#!/usr/bin/env python3
"""Second-order convergence gate of the lattice model in dx.

For a Gaussian packet (width 1.5, k = (0.6, 0.3)) on a hole-free square of
side L = 15, evolves the coupled system to T = 2 at a fixed dt = 0.004 on
lattices of spacing dx = 1, 1/2, 1/4, 1/8 (16^2 to 121^2 sites), and measures
the packet centroid x, y and the matter energy at T.  The differences
between successive lattices fall by about 4 per halving of dx when the
lattice model approaches the continuum model at second order; their ratios
are printed.  Exits 1 when any ratio lies outside [3.6, 4.4], else 0.

Usage:
    python scripts/dx_convergence.py
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hallsim import (Params, Workspace, advance, build_rectangle,
                     gaussian_packet, initialize_consistent, site_density)
from hallsim.diagnostics import energy

RATIO_WINDOW = (3.6, 4.4)
SIDE = 15.0
DT, TOTAL_TIME = 0.004, 2.0
NAMES = ("centroid x", "centroid y", "energy")


def measure(dx):
    """(centroid x, centroid y, energy) at TOTAL_TIME on spacing dx."""
    n = int(round(SIDE / dx)) + 1
    d = build_rectangle(n, n, dx, [])
    p = Params(sigma_h=1.0, dt=DT)
    psi = gaussian_packet(d, (SIDE / 2, SIDE / 2), 1.5, (0.6, 0.3), norm=1.0)
    s = initialize_consistent(d, psi, p)
    work = Workspace(d)
    for _ in range(int(round(TOTAL_TIME / DT))):
        s = advance(s, work)
    rho = site_density(s.psi, d)
    x = np.arange(n) * dx
    mass = rho.sum()
    return ((x[:, None] * rho).sum() / mass, (x[None, :] * rho).sum() / mass,
            energy(s.psi, s.a, d, p))


def main():
    results = []
    for k in range(4):
        dx = 1.0 / 2 ** k
        values = measure(dx)
        results.append(values)
        print(f"dx = {dx:.4g}: " + ", ".join(
            f"{name} {v:.12f}" for name, v in zip(NAMES, values)))
    diffs = [np.subtract(a, b) for a, b in zip(results, results[1:])]
    lo, hi = RATIO_WINDOW
    ok = True
    for k, (coarse, fine) in enumerate(zip(diffs, diffs[1:])):
        ratios = coarse / fine
        print(f"ratio of differences {k}/{k + 1}: " + ", ".join(
            f"{name} {r:.2f}" for name, r in zip(NAMES, ratios)))
        ok = ok and all(lo <= r <= hi for r in ratios)
    if not ok:
        print(f"FAIL: a ratio lies outside [{lo}, {hi}]")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
