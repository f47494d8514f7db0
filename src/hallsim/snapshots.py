"""HSFIELD snapshot format.

A text header line ``HSFIELD v2 <kind> <nx> <ny> <dx>``, with kind one of
psi (complex, site-centered), a1 (real, horizontal links) and a2 (real,
vertical links), then the raw body in row-major order (iy fastest):
little-endian ``<c16`` for psi (re and im interleaved), ``<f8`` for a1 and
a2.  nx, ny are always the site-grid dimensions; a1 stores (nx-1) x ny
values and a2 stores nx x (ny-1).  Write-then-read is lossless.  The reader
also takes the v1 text body, one line ``ix iy re [im]`` per entry.
"""

from __future__ import annotations

import io
import itertools
import os
import warnings

import numpy as np

from .domain import Domain
from .fields import LinkField

BODY_DTYPES = {"psi": "<c16", "a1": "<f8", "a2": "<f8"}
CHUNK_LINES = 1 << 12       # v1 body lines parsed per np.loadtxt call


class SnapshotError(ValueError):
    """Malformed or mismatched snapshot file."""


def _dims(kind: str, nx: int, ny: int):
    return nx - (kind == "a1"), ny - (kind == "a2")


def write_field(path, kind: str, array: np.ndarray, d: Domain):
    if kind not in BODY_DTYPES:
        raise SnapshotError(f"unknown field kind {kind!r}")
    mx, my = _dims(kind, d.nx, d.ny)
    if array.shape != (mx, my):
        raise SnapshotError(
            f"{kind} array has shape {array.shape}, expected {(mx, my)}")
    with open(path, "wb") as f:
        f.write(f"HSFIELD v2 {kind} {d.nx} {d.ny} {float(d.dx)!r}\n".encode())
        np.ascontiguousarray(array, dtype=BODY_DTYPES[kind]).tofile(f)


def read_field(path):
    """Read one v1 or v2 snapshot; returns (kind, nx, ny, dx, array).

    The array is native-endian, writable and the caller's own.  Rejects a
    malformed header, an unknown version or kind, a body that cannot hold
    (v1) or does not exactly hold (v2) the header grid, before allocating,
    and a non-finite value, naming its entry.  A v1 body is parsed by
    np.loadtxt, CHUNK_LINES lines per call, straight into the result.
    """
    with open(path, "rb") as f:
        # 256 bytes bound the header read of a file that holds no newline
        header = f.readline(256).decode("ascii", "replace").split()
        try:
            magic, version, kind, nx, ny, dx = header
            nx, ny, dx = int(nx), int(ny), float(dx)
        except ValueError:
            raise SnapshotError(f"{path}: malformed header {header}") from None
        if magic != "HSFIELD" or version not in ("v1", "v2"):
            raise SnapshotError(f"{path}: not an HSFIELD v1 or v2 file")
        if kind not in BODY_DTYPES:
            raise SnapshotError(f"{path}: unknown field kind {kind!r}")
        mx, my = _dims(kind, nx, ny)
        if mx < 1 or my < 1:
            raise SnapshotError(f"{path}: empty {nx}x{ny} grid")
        dtype = np.dtype(BODY_DTYPES[kind])
        size = os.fstat(f.fileno()).st_size - f.tell()
        if version == "v2":
            if size != (need := mx * my * dtype.itemsize):
                raise SnapshotError(f"{path}: body holds {size} bytes, header "
                                    f"grid {nx}x{ny} needs {need}")
            arr = np.fromfile(f, dtype, mx * my).reshape(mx, my)
        # a v1 body line takes at least 6 bytes ("0 0 0\n"): a header asking
        # for more entries than the file can hold is rejected before allocating
        elif 6 * mx * my > size:
            raise SnapshotError(
                f"{path}: header grid {nx}x{ny} needs more lines than the file holds")
        else:
            arr = np.full((mx, my), np.nan, dtype=dtype)
            cells = arr.view("<f8").reshape(mx * my, -1)
            want, count, first = 2 + cells.shape[1], 0, 2
            text = io.TextIOWrapper(f)
            while lines := list(itertools.islice(text, CHUNK_LINES)):
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
    if not (finite := np.isfinite(arr)).all():
        # a v1 entry that no line sets stays nan
        raise SnapshotError(
            f"{path}: entry {divmod(int(finite.argmin()), my)} is non-finite"
            + ", or missing because another entry is repeated" * (version == "v1"))
    return kind, nx, ny, dx, arr.astype(dtype.newbyteorder("="), copy=False)


def write_state(outdir, tag: str, psi: np.ndarray, a: LinkField, d: Domain):
    """Write psi/a1/a2 snapshots with a common tag; returns the three paths."""
    paths = []
    for kind, arr in (("psi", psi), ("a1", a.a1), ("a2", a.a2)):
        path = os.path.join(outdir, f"{tag}_{kind}.hsfield")
        write_field(path, kind, arr, d)
        paths.append(path)
    return paths


def check_grid(path, nx, ny, dx, d: Domain):
    """Raise unless the loaded header matches the domain."""
    if (nx, ny) != (d.nx, d.ny) or dx != d.dx:
        raise SnapshotError(
            f"{path}: grid {nx}x{ny} (dx={dx}) does not match domain "
            f"{d.nx}x{d.ny} (dx={d.dx})")
