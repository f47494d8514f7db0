#!/usr/bin/env python3
"""Second-order convergence gates of the coupled scheme, in dt and in dx.

Every run is the one `hallsim simulate` makes from its config keys
(config.build_config, then cli.simulate_run).

dt: a band-limited Gaussian packet on a 32x32 rectangle runs to T = 10 at
dt = 0.05, 0.025, 0.0125, recording every step.  Each run gives its worst
Hall-law mismatch (ohm_residual), its worst continuity_rel of the
diagnostics rows (cli.records_to_rows, the diagnostics.csv column) and the
error of psi at T against a run at dt/32.

dx: a Gaussian packet (width 1.5, k = (0.6, 0.3)) on a hole-free square of
side 15 runs to T = 2 at dt = 0.004 on lattices of spacing dx = 1, 1/2,
1/4, 1/8 (16^2 to 121^2 sites), giving the packet centroid x, y and the
matter energy at T; the differences between successive lattices are
compared.

Second order makes every error fall by about 4 per halving; the ratios are
printed.  Exits 1 when any ratio lies outside [3.6, 4.4], else 0.

Usage:
    python scripts/convergence.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

# hallsim before numpy: importing it sets one OpenBLAS thread, which holds
# only while numpy's OpenBLAS has not loaded
from hallsim import site_density
from hallsim.cli import records_to_rows, simulate_run
from hallsim.config import build_config
from hallsim.diagnostics import energy, ohm_residual

import numpy as np

RATIO_WINDOW = (3.6, 4.4)
BASE_DT, TIME = 0.05, 10.0
REFERENCE_REFINEMENT = 32
SIDE, DX_DT, DX_TIME = 15.0, 0.004, 2.0


def simulate(time, dt, record_every=0, **keys):
    """Recorded states of `hallsim simulate` with these keys, run to `time`;
    record_every 0 keeps the first and last states only."""
    steps = int(round(time / dt))
    cfg = build_config({k: str(v) for k, v in dict(
        keys, psi0="gaussian", dt=dt, steps=steps,
        record_every=record_every or steps).items()})
    return simulate_run(cfg)[2]


def packet_run(dt, record_every=0):
    """The dt gate's run: a band-limited packet on a 32x32 rectangle."""
    return simulate(TIME, dt, record_every, nx=32, ny=32, psi0_center_x=15.5,
                    psi0_center_y=15.5, psi0_width=3.0, psi0_kx=0.12,
                    psi0_ecut=0.05)


def ratio_line(label, names, ratios):
    """Print `label: name r, ...`; True when every ratio is in the window.

    Callers collect the results in a list before all(), so every line prints.
    """
    print(f"{label}: " + ", ".join(f"{name} {r:.2f}"
                                   for name, r in zip(names, ratios)))
    lo, hi = RATIO_WINDOW
    return all(lo <= r <= hi for r in ratios)


def dt_gate():
    psi_ref = packet_run(BASE_DT / REFERENCE_REFINEMENT)[-1].psi
    results = []
    for k in range(3):
        dt = BASE_DT / 2 ** k
        states = packet_run(dt, record_every=1)
        ohm = max(ohm_residual(*states[i - 1:i + 2])
                  for i in range(1, len(states) - 1))
        cont = max(r.continuity_rel for r in records_to_rows(states)[1:-1])
        err = float(np.abs(states[-1].psi - psi_ref).max())
        results.append((dt, ohm, cont, err))
        print(f"dt = {dt:.4g}: ohm mismatch {ohm:.3e}, continuity {cont:.3e}, "
              f"psi error {err:.3e}")
    return all([ratio_line(f"ratio {dt1:.4g} -> {dt2:.4g}",
                           ("ohm", "continuity", "psi"), np.divide(e1, e2))
                for (dt1, *e1), (dt2, *e2) in zip(results, results[1:])])


def dx_gate():
    names = ("centroid x", "centroid y", "energy")
    results = []
    for k in range(4):
        dx = 1.0 / 2 ** k
        n = int(round(SIDE / dx)) + 1
        states = simulate(DX_TIME, DX_DT, nx=n, ny=n, dx=dx,
                          psi0_center_x=SIDE / 2, psi0_center_y=SIDE / 2,
                          psi0_width=1.5, psi0_kx=0.6, psi0_ky=0.3)
        s = states[-1]
        rho = site_density(s.psi, s.domain)
        x = np.arange(n) * dx
        mass = rho.sum()
        results.append(((x[:, None] * rho).sum() / mass,
                        (x[None, :] * rho).sum() / mass,
                        energy(s.psi, s.a, s.domain, s.params)))
        print(f"dx = {dx:.4g}: " + ", ".join(
            f"{name} {v:.12f}" for name, v in zip(names, results[-1])))
    diffs = [np.subtract(a, b) for a, b in zip(results, results[1:])]
    return all([ratio_line(f"ratio of differences {k}/{k + 1}", names,
                           coarse / fine)
                for k, (coarse, fine) in enumerate(zip(diffs, diffs[1:]))])


def main():
    ok = dt_gate() & dx_gate()
    if not ok:
        lo, hi = RATIO_WINDOW
        print(f"FAIL: a ratio lies outside [{lo}, {hi}]")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
