#!/usr/bin/env python3
"""Edge-current regime versus bulk-density breakdown on a Corbino annulus.

Runs `hallsim simulate` twice on the same annulus: a low-density circulating
rim state (consistent initialization keeps the potential almost pure gauge)
and a dense bulk packet (large curl, breakdown regime).  Each run writes its
diagnostics.csv and snapshots into <out>/edge/ and <out>/bulk/; the script
prints the regime columns of each run's last row.

Usage:
    python scripts/edge_vs_bulk.py --out out_edge_vs_bulk [--steps 500]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hallsim.cli import main as hallsim_main

CORBINO = ["shape=corbino", "n=32", "dx=1.0", "r_inner=5.0", "r_outer=14.0",
           "sigma_h=1.0", "dt=0.05"]
RUNS = {
    "edge": ["psi0=rim", "psi0_norm=1e-7"],
    "bulk": ["psi0=gaussian", "psi0_center_x=25.0", "psi0_center_y=15.5",
             "psi0_width=2.0", "psi0_kx=0.0", "psi0_ky=0.3", "psi0_norm=10.0"],
}
SUMMARY = ("t", "edge_fraction", "pure_gauge_max", "breakdown")


def run(label, steps, outdir):
    """Simulate one run into outdir/label; returns its last row by column."""
    out = os.path.join(outdir, label)
    argv = ["simulate", "--out", out]
    for kv in CORBINO + RUNS[label] + [f"steps={steps}"]:
        argv += ["--set", kv]
    rc = hallsim_main(argv)
    if rc != 0:
        sys.exit(rc)
    with open(os.path.join(out, "diagnostics.csv")) as f:
        header, *rows = f.read().splitlines()
    return dict(zip(header.split(","), rows[-1].split(",")))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out_edge_vs_bulk")
    ap.add_argument("--steps", type=int, default=500)
    args = ap.parse_args(argv)
    for label in RUNS:
        last = run(label, args.steps, args.out)
        print(f"{label} run, last row: "
              + ", ".join(f"{c} = {last[c]}" for c in SUMMARY))


if __name__ == "__main__":
    main()
