#!/usr/bin/env python3
"""Second-order convergence gate of the coupled integrator.

For a band-limited Gaussian packet on a 32x32 rectangle, measures along runs
at dt, dt/2, dt/4 the worst Hall-law mismatch, the worst continuity residual
and the error of psi at the final time against a reference run at dt/32,
and prints the reduction ratios per halving.  Exits 1 when any ratio lies
outside [3.6, 4.4] (second order gives about 4), else 0.

Usage:
    python scripts/dt_convergence.py [--base-dt 0.05] [--time 10.0]
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hallsim import (Params, Workspace, advance, band_limited, build_rectangle,
                     gaussian_packet, initialize_consistent)
from hallsim.diagnostics import continuity_residual, ohm_residual

RATIO_WINDOW = (3.6, 4.4)
REFERENCE_REFINEMENT = 32


def evolve(dt, total_time):
    """The states of the reference set-up at dt, from t = 0 to total_time."""
    d = build_rectangle(32, 32, 1.0, [])
    p = Params(sigma_h=1.0, dt=dt)
    psi = gaussian_packet(d, (15.5, 15.5), 3.0, (0.12, 0.0), norm=1.0)
    psi = band_limited(psi, d, p, ecut=0.05, norm=1.0)
    s = initialize_consistent(d, psi, p)
    yield s
    work = Workspace(d)
    for _ in range(int(round(total_time / dt))):
        s = advance(s, work)
        yield s


def measure(dt, total_time):
    states = list(evolve(dt, total_time))
    ohm = max(ohm_residual(states[i - 1], states[i], states[i + 1])
              for i in range(1, len(states) - 1))
    cont = max(continuity_residual(states[i - 1], states[i + 1])
               for i in range(1, len(states) - 1))
    return ohm, cont, states[-1].psi


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--base-dt", type=float, default=0.05)
    ap.add_argument("--time", type=float, default=10.0)
    args = ap.parse_args()

    for s in evolve(args.base_dt / REFERENCE_REFINEMENT, args.time):
        psi_ref = s.psi     # only the last state is kept
    results = []
    for k in range(3):
        dt = args.base_dt / 2 ** k
        ohm, cont, psi = measure(dt, args.time)
        err = float(np.abs(psi - psi_ref).max())
        results.append((dt, ohm, cont, err))
        print(f"dt = {dt:.4g}: ohm mismatch {ohm:.3e}, continuity {cont:.3e}, "
              f"psi error {err:.3e}")
    lo, hi = RATIO_WINDOW
    ok = True
    for (dt1, *e1), (dt2, *e2) in zip(results, results[1:]):
        ratios = [a / b for a, b in zip(e1, e2)]
        print(f"ratio {dt1:.4g} -> {dt2:.4g}: ohm {ratios[0]:.2f}, "
              f"continuity {ratios[1]:.2f}, psi {ratios[2]:.2f}")
        ok = ok and all(lo <= r <= hi for r in ratios)
    if not ok:
        print(f"FAIL: a ratio lies outside [{lo}, {hi}]")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
