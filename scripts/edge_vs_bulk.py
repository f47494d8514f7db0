#!/usr/bin/env python3
"""Edge-current regime versus bulk-density breakdown on a Corbino annulus.

Runs two simulations on the same annulus: a low-density circulating rim
state (consistent initialization keeps the potential almost pure gauge) and
a dense bulk packet (large curl, breakdown regime).  Writes one CSV per run
into --out with the per-step regime diagnostics and prints a short summary.

Usage:
    python scripts/edge_vs_bulk.py --out out_edge_vs_bulk [--steps 500]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hallsim import (Params, Workspace, advance, build_corbino,
                     gaussian_packet, initialize_consistent, rim_pair_state)
from hallsim.diagnostics import (breakdown_indicator, edge_fraction,
                                 interior_mean_density, pure_gauge_residual)

RHO_STAR = 1e-4
B_STAR = 1e-4
EDGE_K = 3


def run(label, state, steps, outdir):
    rows = ["t,edge_fraction,pure_gauge_max,interior_mean_density,breakdown"]
    s = state
    work = Workspace(s.domain)
    for i in range(steps + 1):
        ef = edge_fraction(s, EDGE_K)
        rows.append(",".join([
            repr(float(s.t)),
            "NA" if ef is None else repr(float(ef)),
            repr(float(pure_gauge_residual(s.a, s.domain))),
            repr(float(interior_mean_density(s, EDGE_K))),
            "1" if breakdown_indicator(s, RHO_STAR, B_STAR, EDGE_K) else "0",
        ]))
        if i < steps:
            s = advance(s, work)
    path = os.path.join(outdir, f"{label}.csv")
    with open(path, "w") as f:
        f.write("\n".join(rows) + "\n")
    print(f"{label}: wrote {path}")
    return s


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out_edge_vs_bulk")
    ap.add_argument("--steps", type=int, default=500)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    d = build_corbino(32, 1.0, 5.0, 14.0)
    p = Params(sigma_h=1.0, dt=0.05)

    edge0 = initialize_consistent(d, rim_pair_state(d, p, norm=1e-7, band=3), p)
    bulk0 = initialize_consistent(
        d, gaussian_packet(d, (25.0, 15.5), 2.0, (0.0, 0.3), norm=10.0), p)

    edge_final = run("edge", edge0, args.steps, args.out)
    bulk_final = run("bulk", bulk0, args.steps, args.out)

    print(f"final edge_fraction(k={EDGE_K}): edge run "
          f"{edge_fraction(edge_final, EDGE_K):.4f}, bulk run "
          f"{edge_fraction(bulk_final, EDGE_K):.4f}")
    print(f"final curl sup: edge {pure_gauge_residual(edge_final.a, d):.3e}, "
          f"bulk {pure_gauge_residual(bulk_final.a, d):.3e}")


if __name__ == "__main__":
    main()
