"""Masked 2D lattice domains: rectangles with holes and Corbino annuli.

Sites live on a uniform nx x ny grid with spacing dx; site (ix, iy) sits at
(ix*dx, iy*dx).  Links are 4-neighbor bonds between active sites; a plaquette
is counted only when all four corner sites are active.  Each hole contributes
one homology generator loop, a closed lattice loop with winding number one
around that hole and zero around all others.

Domains are frozen after construction (arrays are read-only) and safe for
concurrent reads.  A domain compares and hashes by identity: two builds of
the same geometry are two domains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

# Width of the edge band: the active sites within this lattice distance of
# the boundary.  The rim state lives in it, edge_fraction counts the current
# on links that touch it, and breakdown reads the density outside it.
EDGE_WIDTH = 3


class DomainError(ValueError):
    """Requested domain geometry is invalid."""


@dataclass(frozen=True, eq=False)
class Domain:
    nx: int
    ny: int
    dx: float
    active: np.ndarray            # bool (nx, ny), True on sites of the sample
    holes: tuple                  # per hole: (m, 2) int array of inactive cells
    generator_loops: tuple        # per hole: (L, 2) int array, closed CCW loop
    boundary_mask: np.ndarray = field(init=False)   # active sites with an inactive/out-of-frame 4-neighbor
    boundary_distance: np.ndarray = field(init=False)  # lattice (BFS) distance to boundary (-1 on inactive)
    h_active: np.ndarray = field(init=False)        # bool (nx-1, ny), link (x,y)->(x+1,y)
    v_active: np.ndarray = field(init=False)        # bool (nx, ny-1), link (x,y)->(x,y+1)
    plaq_active: np.ndarray = field(init=False)     # bool (nx-1, ny-1), all 4 corners active
    degree: np.ndarray = field(init=False)          # float (nx, ny), active links per site

    def __post_init__(self):
        act = self.active
        h, v = act[:-1, :] & act[1:, :], act[:, :-1] & act[:, 1:]
        degree = np.zeros(act.shape)
        degree[:-1, :] += h
        degree[1:, :] += h
        degree[:, :-1] += v
        degree[:, 1:] += v
        object.__setattr__(self, "h_active", h)
        object.__setattr__(self, "v_active", v)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(
            self, "plaq_active",
            act[:-1, :-1] & act[1:, :-1] & act[:-1, 1:] & act[1:, 1:])
        object.__setattr__(self, "boundary_mask", _boundary_mask(act))
        object.__setattr__(
            self, "boundary_distance", _boundary_distance(act, self.boundary_mask))
        for name in ("active", "boundary_mask", "boundary_distance",
                     "h_active", "v_active", "plaq_active", "degree"):
            getattr(self, name).setflags(write=False)

    @cached_property
    def generator_links(self) -> tuple:
        """loop_links of each generator loop, built on first use (the
        domain builders use it to validate their loops)."""
        return tuple(loop_links(loop, self) for loop in self.generator_loops)

    @property
    def g(self) -> int:
        """Genus: number of independent holes."""
        return len(self.holes)

    @cached_property
    def edge_band(self) -> np.ndarray:
        """bool (nx, ny): active sites within EDGE_WIDTH of the boundary,
        built on first use (so with the EDGE_WIDTH of that moment)."""
        return _frozen(self.active & (self.boundary_distance <= EDGE_WIDTH))

    @cached_property
    def edge_links(self) -> tuple:
        """bool masks (horizontal, vertical) of the active links with an end
        in the edge band."""
        band = self.edge_band
        return (_frozen((band[:-1, :] | band[1:, :]) & self.h_active),
                _frozen((band[:, :-1] | band[:, 1:]) & self.v_active))

    @cached_property
    def interior(self) -> np.ndarray:
        """bool (nx, ny): the active sites outside the edge band."""
        return _frozen(self.active & ~self.edge_band)

    @cached_property
    def n_plaq(self) -> int:
        """Number of counted plaquettes."""
        return int(self.plaq_active.sum())

    @cached_property
    def n_active(self) -> int:
        """Number of active sites."""
        return int(self.active.sum())

    @property
    def area(self) -> float:
        """Sample area: active site count times the cell area."""
        return self.n_active * self.dx ** 2


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _boundary_mask(active: np.ndarray) -> np.ndarray:
    """Active sites with at least one inactive or out-of-frame 4-neighbor."""
    nx, ny = active.shape
    pad = np.zeros((nx + 2, ny + 2), dtype=bool)
    pad[1:-1, 1:-1] = active
    interior = (pad[:-2, 1:-1] & pad[2:, 1:-1] & pad[1:-1, :-2] & pad[1:-1, 2:])
    return active & ~interior


def _boundary_distance(active: np.ndarray, boundary: np.ndarray) -> np.ndarray:
    """4-neighbor path length over active sites to the nearest boundary site;
    -1 off-domain.

    This is the taxicab distance to the nearest boundary site, computed
    exactly by separable 1-D transforms: along each axis in turn,
    g(i) <- min_j g(j) + |i - j| is a forward running minimum of g - index
    plus index, and a backward one of g + index minus index.  The taxicab
    distance equals the path length over active sites: a monotone lattice
    path from an active site to its nearest boundary site cannot leave the
    active set, because the last site before it did would be a closer
    boundary site.
    """
    nx, ny = active.shape
    g = np.full(active.shape, nx + ny, dtype=np.int64)     # beyond any distance
    g[boundary] = 0
    for axis, idx in ((0, np.arange(nx)[:, None]), (1, np.arange(ny)[None, :])):
        fwd = np.minimum.accumulate(g - idx, axis=axis) + idx
        bwd = np.flip(np.minimum.accumulate(np.flip(g + idx, axis), axis=axis),
                      axis) - idx
        g = np.minimum(fwd, bwd)
    return np.where(active, g, -1)


class LoopLinks(NamedTuple):
    """The links under the steps of a closed site loop (see loop_links)."""
    horiz: np.ndarray       # bool (L,): step i runs along a horizontal link
    h_links: tuple          # (x, y) indices into a1 of the horizontal steps
    v_links: tuple          # (x, y) indices into a2 of the vertical steps
    sign: np.ndarray        # float (L,): +1 forwards along the link, -1 back


def loop_links(loop: np.ndarray, d: Domain) -> LoopLinks:
    """The link table of a closed site loop, validated on the domain.

    Step i runs from site loop[i] to loop[i+1] (cyclically) along the link
    that starts at the lower of the two sites, with sign +1 forwards.
    Rejects loops with non-adjacent consecutive sites or crossing inactive
    links, naming the first such step.
    """
    loop = np.asarray(loop, dtype=np.int64)
    step = np.roll(loop, -1, axis=0) - loop
    horiz = (np.abs(step[:, 0]) == 1) & (step[:, 1] == 0)
    vert = (step[:, 0] == 0) & (np.abs(step[:, 1]) == 1)
    lx, ly = (loop + np.minimum(step, 0)).T
    h_links, v_links = (lx[horiz], ly[horiz]), (lx[vert], ly[vert])
    ok = np.zeros(len(loop), dtype=bool)
    ok[horiz] = d.h_active[h_links]
    ok[vert] = d.v_active[v_links]
    if not ok.all():
        i = int(np.argmin(ok))
        (x, y), (sx, sy) = loop[i].tolist(), step[i].tolist()
        if not (horiz[i] or vert[i]):
            raise DomainError(
                f"loop sites {(x, y)} and {(x + sx, y + sy)} are not 4-adjacent")
        x, y = int(lx[i]), int(ly[i])
        raise DomainError(f"loop crosses inactive link ({x},{y})->"
                          f"({x + abs(sx)},{y + abs(sy)})")
    return LoopLinks(horiz, h_links, v_links,
                     step.sum(axis=1).astype(np.float64))


def _rect_ring(x0: int, x1: int, y0: int, y1: int) -> np.ndarray:
    """Closed CCW site loop on the boundary of the index rectangle [x0,x1]x[y0,y1]."""
    sites = []
    for x in range(x0, x1):
        sites.append((x, y0))
    for y in range(y0, y1):
        sites.append((x1, y))
    for x in range(x1, x0, -1):
        sites.append((x, y1))
    for y in range(y1, y0, -1):
        sites.append((x0, y))
    return np.array(sites, dtype=np.int64)


def _validate(domain: Domain):
    act = domain.active
    if not act.any():
        raise DomainError("domain has no active sites")
    if np.any(act & (domain.degree == 0)):
        raise DomainError("domain contains isolated active sites")
    domain.generator_links      # loop_links rejects a loop, naming the step


def build_rectangle(nx: int, ny: int, dx: float, holes=()) -> Domain:
    """Rectangle domain with axis-aligned rectangular holes.

    Each hole is (x0, y0, w, h) in site indices: sites x0..x0+w-1 x
    y0..y0+h-1 become inactive.  Holes must stay clear of the outer frame
    and of each other by at least two sites so every hole keeps a fully
    active one-site rim (the rim carries that hole's generator loop).
    """
    problems = []
    if nx < 4 or ny < 4:
        problems.append(f"grid too small: need nx, ny >= 4, got {nx}x{ny}")
    if dx <= 0:
        problems.append(f"dx must be positive, got {dx}")
    rects = []
    for spec in holes:
        x0, y0, w, h = (int(v) for v in spec)
        if w < 1 or h < 1:
            problems.append(f"hole {spec}: empty extent")
            continue
        if x0 < 1 or y0 < 1 or x0 + w > nx - 1 or y0 + h > ny - 1:
            problems.append(
                f"hole {spec}: touches the outer frame (would change the genus)")
            continue
        rects.append((x0, y0, w, h))
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            xi, yi, wi, hi = rects[i]
            xj, yj, wj, hj = rects[j]
            gap_x = max(xi - (xj + wj), xj - (xi + wi))
            gap_y = max(yi - (yj + hj), yj - (yi + hi))
            if max(gap_x, gap_y) < 2:
                problems.append(
                    f"holes {rects[i]} and {rects[j]} overlap or are closer "
                    "than two sites")
    if problems:
        raise DomainError("; ".join(problems))

    active = np.ones((nx, ny), dtype=bool)
    hole_cells = []
    loops = []
    for x0, y0, w, h in rects:
        active[x0:x0 + w, y0:y0 + h] = False
        hole_cells.append(np.array(
            [(x, y) for x in range(x0, x0 + w) for y in range(y0, y0 + h)],
            dtype=np.int64))
        loops.append(_rect_ring(x0 - 1, x0 + w, y0 - 1, y0 + h))

    d = Domain(nx, ny, dx, active, tuple(hole_cells), tuple(loops))
    _validate(d)
    return d


def build_corbino(n: int, dx: float, r_inner: float, r_outer: float) -> Domain:
    """Annular (Corbino) domain: masked disc of genus 1.

    The disc is centered on the grid; a site at distance d from the center
    is active when r_inner <= d <= r_outer.  The inner disc must contain at
    least one inactive site, otherwise there is no hole to encircle.
    """
    problems = []
    if n < 4:
        problems.append(f"grid too small: need n >= 4, got {n}")
    if dx <= 0:
        problems.append(f"dx must be positive, got {dx}")
    if not (0 < r_inner < r_outer):
        problems.append(
            f"need 0 < r_inner < r_outer, got r_inner={r_inner}, r_outer={r_outer}")
    if r_outer > n * dx / 2:
        problems.append(
            f"r_outer={r_outer} exceeds half the grid extent {n * dx / 2}")
    if problems:
        raise DomainError("; ".join(problems))

    c = (n - 1) / 2.0  # grid center in index units
    ix = np.arange(n)[:, None]
    iy = np.arange(n)[None, :]
    r = np.hypot(ix - c, iy - c) * dx
    active = (r >= r_inner) & (r <= r_outer)
    inner = r < r_inner
    if not inner.any():
        raise DomainError(
            f"inner radius {r_inner} excludes no site at dx={dx}: the hole is "
            "empty and the domain would be simply connected")

    hole_cells = np.argwhere(inner)

    # generator loop: square ring at the mid radius (deterministic, closed)
    m_mid = (r_inner + r_outer) / (2 * dx)
    loop = None
    for m in _ring_candidates(m_mid):
        x0 = int(np.floor(c - m))
        x1 = int(np.ceil(c + m))
        if x0 < 0 or x1 > n - 1:
            continue
        cand = _rect_ring(x0, x1, x0, x1)
        if active[cand[:, 0], cand[:, 1]].all():    # 4-adjacent by construction
            loop = cand
            break
    if loop is None:
        raise DomainError(
            "annulus too thin to carry a rectangular mid-radius loop")

    d = Domain(n, n, dx, active, (hole_cells,), (loop,))
    _validate(d)
    return d


def _ring_candidates(m_mid: float):
    base = int(round(m_mid))
    for step in range(0, max(3, base)):
        for m in (base - step, base + step) if step else (base,):
            if m >= 1:
                yield m
