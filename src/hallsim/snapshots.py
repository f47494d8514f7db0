"""HSFIELD plain-text snapshot format.

Header: ``HSFIELD v1 <kind> <nx> <ny> <dx>`` with kind one of psi (complex,
site-centered), a1 (real, horizontal links), a2 (real, vertical links).
Then one line per entry, ``ix iy re`` (``ix iy re im`` for psi), in
row-major order (iy fastest).  nx, ny are always the site-grid dimensions;
a1 stores (nx-1) x ny values and a2 stores nx x (ny-1).  Floats are written
with shortest round-trip formatting, so write-then-read is lossless.
"""

from __future__ import annotations

import numpy as np

from .domain import Domain
from .fields import LinkField, SiteField

KINDS = ("psi", "a1", "a2")


class SnapshotError(ValueError):
    """Malformed or mismatched snapshot file."""


def _dims(kind: str, nx: int, ny: int):
    if kind == "psi":
        return nx, ny
    if kind == "a1":
        return nx - 1, ny
    return nx, ny - 1


def write_field(path, kind: str, array: np.ndarray, d: Domain):
    if kind not in KINDS:
        raise SnapshotError(f"unknown field kind {kind!r}")
    mx, my = _dims(kind, d.nx, d.ny)
    if array.shape != (mx, my):
        raise SnapshotError(
            f"{kind} array has shape {array.shape}, expected {(mx, my)}")
    complex_vals = kind == "psi"
    with open(path, "w") as f:
        f.write(f"HSFIELD v1 {kind} {d.nx} {d.ny} {repr(float(d.dx))}\n")
        for ix in range(mx):
            for iy in range(my):
                v = array[ix, iy]
                if complex_vals:
                    f.write(f"{ix} {iy} {repr(float(v.real))} {repr(float(v.imag))}\n")
                else:
                    f.write(f"{ix} {iy} {repr(float(v))}\n")


def read_field(path):
    """Read one snapshot; returns (kind, nx, ny, dx, array).

    Rejects a file with a non-finite value or a repeated entry.
    """
    with open(path) as f:
        header = f.readline().split()
        if len(header) != 6 or header[0] != "HSFIELD" or header[1] != "v1":
            raise SnapshotError(f"{path}: not an HSFIELD v1 file")
        kind = header[2]
        if kind not in KINDS:
            raise SnapshotError(f"{path}: unknown field kind {kind!r}")
        nx, ny = int(header[3]), int(header[4])
        dx = float(header[5])
        mx, my = _dims(kind, nx, ny)
        complex_vals = kind == "psi"
        # every entry starts as nan, so one that no line sets fails the
        # finiteness check below
        arr = np.full((mx, my), np.nan,
                      dtype=np.complex128 if complex_vals else np.float64)
        want = 4 if complex_vals else 3
        count = 0
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != want:
                raise SnapshotError(f"{path}: bad line {line!r}")
            ix, iy = int(parts[0]), int(parts[1])
            if not (0 <= ix < mx and 0 <= iy < my):
                raise SnapshotError(f"{path}: index ({ix},{iy}) out of range")
            if complex_vals:
                arr[ix, iy] = float(parts[2]) + 1j * float(parts[3])
            else:
                arr[ix, iy] = float(parts[2])
            count += 1
        if count != mx * my:
            raise SnapshotError(
                f"{path}: expected {mx * my} value lines, found {count}")
    finite = np.isfinite(arr)
    if not finite.all():
        # with the line count right, a missing entry means a repeated one
        at = divmod(int(finite.argmin()), my)
        raise SnapshotError(f"{path}: entry {at} is non-finite, or missing "
                            "because another entry is repeated")
    return kind, nx, ny, dx, arr


def write_state(outdir, tag: str, psi: SiteField, a: LinkField, d: Domain):
    """Write psi/a1/a2 snapshots with a common tag; returns the three paths."""
    import os
    paths = []
    for kind, arr in (("psi", psi.values), ("a1", a.a1), ("a2", a.a2)):
        path = os.path.join(outdir, f"{tag}_{kind}.hsfield")
        write_field(path, kind, arr, d)
        paths.append(path)
    return paths


def check_grid(path, kind, nx, ny, dx, d: Domain):
    """Raise unless the loaded header matches the domain."""
    if (nx, ny) != (d.nx, d.ny) or dx != d.dx:
        raise SnapshotError(
            f"{path}: grid {nx}x{ny} (dx={dx}) does not match domain "
            f"{d.nx}x{d.ny} (dx={d.dx})")
