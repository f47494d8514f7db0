"""HSFIELD plain-text snapshot format.

Header: ``HSFIELD v1 <kind> <nx> <ny> <dx>`` with kind one of psi (complex,
site-centered), a1 (real, horizontal links), a2 (real, vertical links).
Then one line per entry, ``ix iy re`` (``ix iy re im`` for psi), in
row-major order (iy fastest).  nx, ny are always the site-grid dimensions;
a1 stores (nx-1) x ny values and a2 stores nx x (ny-1).  Floats are written
with shortest round-trip formatting, so write-then-read is lossless.
"""

from __future__ import annotations

import itertools
import os
import warnings

import numpy as np

from .domain import Domain
from .fields import LinkField

KINDS = ("psi", "a1", "a2")
CHUNK_LINES = 1 << 12       # body lines parsed per np.loadtxt call


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
    # tolist() gives Python floats (complex for psi) of the same values, so
    # their repr is the shortest round-trip form of each entry
    with open(path, "w") as f:
        f.write(f"HSFIELD v1 {kind} {d.nx} {d.ny} {repr(float(d.dx))}\n")
        for ix, row in enumerate(array.tolist()):
            if kind == "psi":
                f.write("".join(f"{ix} {iy} {v.real!r} {v.imag!r}\n"
                                for iy, v in enumerate(row)))
            else:
                f.write("".join(f"{ix} {iy} {v!r}\n"
                                for iy, v in enumerate(row)))


def read_field(path):
    """Read one snapshot; returns (kind, nx, ny, dx, array).

    The body is parsed by np.loadtxt, CHUNK_LINES lines per call, straight
    into the result, so the memory it takes beyond the result stays at one
    chunk.  Rejects a malformed header, number or line, an index that is not
    an integer in range, a wrong number of entries, a non-finite value and a
    repeated entry.
    """
    with open(path) as f:
        header = f.readline().split()
        if len(header) != 6 or header[0] != "HSFIELD" or header[1] != "v1":
            raise SnapshotError(f"{path}: not an HSFIELD v1 file")
        kind = header[2]
        if kind not in KINDS:
            raise SnapshotError(f"{path}: unknown field kind {kind!r}")
        try:
            nx, ny, dx = int(header[3]), int(header[4]), float(header[5])
        except ValueError:
            raise SnapshotError(f"{path}: malformed header {header}") from None
        mx, my = _dims(kind, nx, ny)
        if mx < 1 or my < 1:
            raise SnapshotError(f"{path}: empty {nx}x{ny} grid")
        # a body line takes at least 6 bytes ("0 0 0\n"): a header asking for
        # more entries than the file can hold is rejected before allocating
        if 6 * mx * my > os.fstat(f.fileno()).st_size:
            raise SnapshotError(
                f"{path}: header grid {nx}x{ny} needs more lines than the file holds")
        want = 4 if kind == "psi" else 3
        # every entry starts as nan, so one that no line sets fails the
        # finiteness check below
        arr = np.full((mx, my), np.nan,
                      dtype=np.complex128 if kind == "psi" else np.float64)
        cells = arr.view(np.float64).reshape(mx * my, want - 2)
        count, first = 0, 2
        while lines := list(itertools.islice(f, CHUNK_LINES)):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")     # all lines blank
                    body = np.loadtxt(lines, ndmin=2, comments=None)
            except ValueError as err:
                raise SnapshotError(
                    f"{path}: {err} (row 0 is line {first})") from None
            first += len(lines)
            if not len(body):
                continue
            if body.shape[1] != want:
                raise SnapshotError(
                    f"{path}: {body.shape[1]} numbers per line, expected {want}")
            with np.errstate(invalid="ignore"):     # nan or huge index: caught
                index = body[:, :2].astype(np.int64)
            bad = ((index != body[:, :2]) | (index < 0)
                   | (index >= (mx, my))).any(axis=1)
            if bad.any():
                at = tuple(body[bad.argmax(), :2].tolist())
                raise SnapshotError(f"{path}: index {at} is not a site in range")
            cells[index[:, 0] * my + index[:, 1]] = body[:, 2:]
            count += len(body)
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


def write_state(outdir, tag: str, psi: np.ndarray, a: LinkField, d: Domain):
    """Write psi/a1/a2 snapshots with a common tag; returns the three paths."""
    paths = []
    for kind, arr in (("psi", psi), ("a1", a.a1), ("a2", a.a2)):
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
