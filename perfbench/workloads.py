"""Benchmark workloads and their seeded inputs.

Each workload is a fixed grid, step count and command sequence.  The seed
varies only parameters that leave the work size unchanged (packet centre and
momentum, and the flux threaded through the hole), so a claim measured on one
seed can be re-checked on an unseen one.  The program sees only the generated
config file and, for restart-512, the generated HSFIELD psi snapshot.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str              # rectangle | corbino
    n: int                  # grid is n x n sites
    hole: tuple             # rectangle hole (x0, y0, w, h); unused for corbino
    steps: int
    record_every: int

    @property
    def rows(self) -> int:
        return self.steps // self.record_every + 1


# Why each workload exists is recorded in BENCHMARK.json: bulk-256 is
# dominated by stepping, restart-512 by set-up and snapshot I/O, rim-corbino
# by per-step diagnostics.  Every workload records three or more states and
# threads a flux, so each traced layer function runs on each of them.
WORKLOADS = {
    w.name: w for w in (
        Workload("bulk-256", "rectangle", 256, (112, 112, 32, 32), 100, 50),
        Workload("restart-512", "rectangle", 512, (224, 224, 64, 64), 8, 4),
        Workload("rim-corbino", "corbino", 64, (), 1000, 1),
    )
}

R_INNER, R_OUTER = 10, 30


def _base_config(w: Workload) -> list:
    lines = [f"shape = {w.shape}"]
    if w.shape == "corbino":
        lines += [f"n = {w.n}", f"r_inner = {R_INNER}", f"r_outer = {R_OUTER}"]
    else:
        lines += [f"nx = {w.n}", f"ny = {w.n}",
                  "holes = " + ",".join(str(v) for v in w.hole)]
    lines += [f"steps = {w.steps}", f"record_every = {w.record_every}"]
    return lines


def _packet(rng: random.Random, w: Workload, width: float):
    """Packet centre left of the hole and at least 10 widths from the frame
    and the hole, so that the packet's tails (below 1e-10 of its peak) are
    cut off nowhere; momentum of fixed size 0.3 in a random direction.

    Keeping the tails clear keeps the matter solver's iteration count the
    same for every seed.
    """
    margin = 10 * width
    cx = rng.uniform(margin, w.hole[0] - margin)
    cy = rng.uniform(margin, w.n - 1 - margin)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return cx, cy, 0.3 * math.cos(angle), 0.3 * math.sin(angle)


def _write_psi_snapshot(path: str, w: Workload, cx, cy, kx, ky, width):
    """Normalised Gaussian packet (zero in the hole) as an HSFIELD v1 file."""
    x = np.arange(w.n, dtype=float)[:, None]
    y = np.arange(w.n, dtype=float)[None, :]
    psi = np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (4.0 * width ** 2)
                 + 1j * (kx * x + ky * y))
    x0, y0, hw, hh = w.hole
    psi[x0:x0 + hw, y0:y0 + hh] = 0.0
    psi /= math.sqrt(float((np.abs(psi) ** 2).sum()))
    with open(path, "w") as f:
        f.write(f"HSFIELD v1 psi {w.n} {w.n} 1.0\n")
        for ix in range(w.n):
            row = psi[ix]
            f.write("".join(f"{ix} {iy} {v.real!r} {v.imag!r}\n"
                            for iy, v in enumerate(row.tolist())))


def make_inputs(w: Workload, seed: int, workdir: str) -> str:
    """Write the workload's seeded inputs into workdir.

    Returns the config file name; paths inside it are relative to workdir,
    where the program runs.
    """
    rng = random.Random(f"{w.name}:{seed}")
    lines = _base_config(w)
    if w.name == "bulk-256":
        width = 4.0
        cx, cy, kx, ky = _packet(rng, w, width)
        lines += ["psi0 = gaussian", f"psi0_width = {width!r}",
                  f"psi0_center_x = {cx!r}", f"psi0_center_y = {cy!r}",
                  f"psi0_kx = {kx!r}", f"psi0_ky = {ky!r}",
                  f"flux = {rng.uniform(0.2, 1.0)!r}"]
    elif w.name == "restart-512":
        width = 8.0
        cx, cy, kx, ky = _packet(rng, w, width)
        _write_psi_snapshot(os.path.join(workdir, "psi0.hsfield"),
                            w, cx, cy, kx, ky, width)
        lines += ["psi0 = file", "psi0_file = psi0.hsfield",
                  f"flux = {rng.uniform(0.2, 1.0)!r}"]
    else:
        lines += ["psi0 = rim", f"flux = {rng.uniform(0.1, 0.5)!r}"]
    with open(os.path.join(workdir, "run.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    return "run.txt"


def array_bytes(w: Workload) -> dict:
    """Bytes of one site array (complex psi) and one link array (real A)."""
    return {"grid": [w.n, w.n],
            "site_complex_bytes": 16 * w.n * w.n,
            "link_real_bytes": 8 * (w.n - 1) * w.n}
