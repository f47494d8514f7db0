"""Initial matter-field builders: Gaussian packets, uniform fill, rim states.

The rim state and the band limit use the eigenmodes of the free
(zero-potential) Hamiltonian.  _free_modes block-diagonalises it by the
grid mirrors that map the mask onto itself: the x and y reflections, the
half turn and, on square grids, the two diagonal reflections.  A mirror is
a real +-1 symmetry, so every sector basis and every block is real.  A D4
mask (the Corbino, a centred square hole) solves five blocks, four of about
an eighth of its sites and one of about a quarter, and takes the sixth
sector from the fifth by the transpose; a mask with the x and y mirrors
solves four blocks of about a quarter; one mirror gives two halves, and a
mask without one is solved whole.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .domain import Domain, DomainError
from .dynamics import Params, _h_matrix
from .fields import current_density, site_density

DEGENERACY_TOL = 1e-9     # relative gap below which two eigenvalues pair
MIN_RIM_WEIGHT = 0.9      # least band weight of each vector of a rim pair
MAX_BLOCK_SITES = 4000    # rows of the largest sector block eigensolved densely
PEAK_TOL = 1e-6           # sites this close to the peak |psi| tie for the phase
SCORE_TOL = 1e-12         # rim pairs this close to the best band weight tie


def normalize(psi: np.ndarray, d: Domain, norm: float) -> np.ndarray:
    """Scale so that sum |psi|^2 dx^2 equals norm (norm 0 zeroes the field)."""
    total = float(site_density(psi, d).sum() * d.dx ** 2)
    if norm == 0.0:
        return np.zeros_like(psi)
    if total <= 0.0:
        raise ValueError("cannot normalize a field with zero support")
    return np.where(d.active, psi * np.sqrt(norm / total), 0.0)


def gaussian_packet(d: Domain, center, width: float, k=(0.0, 0.0),
                    norm: float = 1.0) -> np.ndarray:
    """Gaussian packet exp(-r^2/4w^2 + i k.x); width w is the density sigma."""
    if width <= 0:
        raise ValueError("width must be positive")
    cx, cy = center
    x = np.arange(d.nx)[:, None] * d.dx
    y = np.arange(d.ny)[None, :] * d.dx
    r2 = (x - cx) ** 2 + (y - cy) ** 2
    phase = k[0] * x + k[1] * y
    vals = np.exp(-r2 / (4.0 * width ** 2) + 1j * phase)
    return normalize(np.where(d.active, vals, 0.0), d, norm)


def uniform_state(d: Domain, norm: float = 1.0) -> np.ndarray:
    """Constant amplitude on every active site."""
    return normalize(np.where(d.active, 1.0 + 0.0j, 0.0), d, norm)


class Sector(NamedTuple):
    """Eigenmodes of one mirror sector of the free Hamiltonian.

    The (grid sites x orbits) basis matrix B has its column for an orbit of
    the sector's mirror group equal to the character sums of the orbit's
    sites, normalized, so each row has at most one nonzero: the flat grid
    site c lies in column col[c] (-1 when the sector's basis leaves it out)
    with the real amplitude amp[c] (0 there).  w (ascending) and V are the
    eigenvalues and real eigenvectors (orbits x modes) of the block B^T H B,
    so expand(V[:, k]) is a full-grid eigenvector of H.  reps are flat grid
    indices of one site of each orbit.
    """
    col: np.ndarray
    amp: np.ndarray
    reps: np.ndarray
    w: np.ndarray
    V: np.ndarray

    def expand(self, v: np.ndarray) -> np.ndarray:
        """B v: the flat grid vector of orbit coefficients v."""
        return np.where(self.col >= 0, self.amp * v[self.col], 0.0)

    def project(self, psi: np.ndarray) -> np.ndarray:
        """B^T psi: the orbit coefficients of a flat grid vector.

        Each coefficient is the sum of its sites' terms amp * psi in site
        order, its real and imaginary parts summed by one np.bincount each.
        """
        on = self.col >= 0
        col, terms = self.col[on], self.amp[on] * psi[on]
        n = len(self.w)
        if not np.iscomplexobj(terms):
            return np.bincount(col, weights=terms, minlength=n)
        out = np.empty(n, dtype=terms.dtype)
        out.real = np.bincount(col, weights=terms.real, minlength=n)
        out.imag = np.bincount(col, weights=terms.imag, minlength=n)
        return out


def _mirrors(d: Domain) -> dict:
    """Flat-site maps of the grid involutions that map the mask onto itself.

    X reflects x, Y reflects y and XY is the half turn; on square grids T
    is the transpose and A the anti-transpose (T after XY).  The order X, Y,
    T, A, XY is the order in which _free_modes takes its generators.
    """
    idx = np.arange(d.nx * d.ny).reshape(d.nx, d.ny)
    maps = {"X": idx[::-1], "Y": idx[:, ::-1]}
    if d.nx == d.ny:
        maps |= {"T": idx.T, "A": idx[::-1, ::-1].T}
    maps["XY"] = idx[::-1, ::-1]
    mask = d.active.ravel()
    return {k: f.ravel() for k, f in maps.items()
            if np.array_equal(mask[f.ravel()], mask)}


def _sector_basis(d: Domain, gens, signs) -> tuple:
    """(col, amp, reps) of the sector where each generator has its sign.

    The generators close into a group of at most 8 maps, each with its +-1
    character.  Each orbit of active sites is listed once, at its least
    flat site, in grid order; a site's amplitude sums the characters of the
    maps that carry the orbit's first site onto it.  An orbit whose sums
    cancel is dropped; on the others every sum has the magnitude of the
    first site's stabilizer, so |G| |sum| over the orbit is its squared
    norm.
    """
    n = d.nx * d.ny
    group = [(np.arange(n), 1.0)]
    for f, c in group:                       # grows to the closure
        for g, s in zip(gens, signs):
            if not any(np.array_equal(g[f], h) for h, _ in group):
                group.append((g[f], c * s))
    images = np.stack([f for f, _ in group], axis=1)
    chi = np.array([c for _, c in group])
    first = images.min(axis=1)               # least site of each site's orbit
    lead = images[d.active.ravel() & (first == np.arange(n))]
    amp = np.bincount(lead.ravel(), np.tile(chi, len(lead)), n)
    reps = lead[amp[lead[:, 0]] != 0.0, 0]
    index = np.full(n, -1)
    index[reps] = np.arange(len(reps))
    amp = amp / np.sqrt(len(chi) * np.maximum(np.abs(amp), 1.0))   # 0 stays 0
    return index[first], amp, reps


def _free_modes(d: Domain, p: Params, purpose: str) -> list:
    """Mirror sectors of the real zero-potential H on the active sites.

    H commutes with every grid mirror that maps the mask onto itself (see
    _mirrors), and a mirror is a real +-1 symmetry, so H is block diagonal
    in the real bases of the characters of the group the mirrors generate
    (the projection-operator construction, Tinkham, Group Theory and
    Quantum Mechanics, 1964, ch. 3).  With all five mirrors (D4: the
    Corbino, centred square holes) the sectors are the four characters
    (+-1, +-1) of X and T, then the character (X: +1, Y: -1) of {1, X, Y,
    XY}; the (X: -1, Y: +1) sector is that one moved by T, with the same w
    and V, and is not solved again.  Otherwise the first two mirrors that
    apply generate an abelian group with one sector per sign choice: 4, 2
    or, without a mirror, 1 (the dense H itself).

    A block B^T H B is one bincount over the free H's stencil entries whose
    two sites are in the sector's basis, and each block is eigensolved
    densely.  The rows of the largest block are capped at MAX_BLOCK_SITES,
    checked before any solve.  `purpose` names the caller in the error.
    Empty sectors are left out.
    """
    mirrors = _mirrors(d)
    d4 = len(mirrors) == 5
    gens = (mirrors["X"], mirrors["T"]) if d4 else list(mirrors.values())[:2]
    bases = [_sector_basis(d, gens, s)
             for s in itertools.product((1.0, -1.0), repeat=len(gens))]
    if d4:
        bases.append(_sector_basis(d, (mirrors["X"], mirrors["Y"]), (1.0, -1.0)))
    n = max(len(reps) for _, _, reps in bases)
    if n > MAX_BLOCK_SITES:
        raise DomainError(
            f"{purpose} eigensolves dense symmetry blocks of the free "
            f"Hamiltonian; the largest block here has {n} sites, "
            f"above the cap of {MAX_BLOCK_SITES}")
    rows, cols, vals = _h_matrix((d.h_active, d.v_active), d, p).entries()
    sectors = []
    for col, amp, reps in bases:
        on = (col[rows] >= 0) & (col[cols] >= 0)
        r, q, m = rows[on], cols[on], len(reps)
        block = np.bincount(col[r] * m + col[q], amp[r] * vals[on] * amp[q], m * m)
        sectors.append(Sector(col, amp, reps, *np.linalg.eigh(block.reshape(m, m))))
    if d4:
        t = mirrors["T"]
        col, amp, reps, w, V = sectors[-1]
        sectors.append(Sector(col[t], amp[t], t[reps], w, V))
    return [s for s in sectors if len(s.w)]


def band_limited(psi: np.ndarray, d: Domain, p: Params, ecut: float,
                 norm: float = 1.0) -> np.ndarray:
    """Project a state onto the free-Hamiltonian modes with energy <= ecut.

    Band-limited preparation removes the fast lattice harmonics a sampled
    and frame-truncated packet inevitably carries, so that every beat
    frequency of the evolving bilinears satisfies omega * dt << 1 and the
    second-order time-discretization diagnostics sit far below their
    tolerances.  The projector is summed sector by sector,
    sum over sectors of B V_keep V_keep^T B^T psi (see _free_modes and
    Sector).
    """
    if ecut <= 0:
        raise ValueError("ecut must be positive")
    sectors = _free_modes(d, p, "band limiting")
    if not any((s.w <= ecut).any() for s in sectors):
        raise ValueError(f"no modes below ecut = {ecut}")
    vec = psi.ravel()
    out = np.zeros(d.nx * d.ny, dtype=np.complex128)
    for s in sectors:
        V = s.V[:, s.w <= ecut]
        out += s.expand(V @ (V.T @ s.project(vec)))
    return normalize(out.reshape(d.nx, d.ny), d, norm)


def circulation(psi: np.ndarray, d: Domain, p: Params) -> float:
    """sum (x - c_x) j2 - (y - c_y) j1 of the zero-potential current.

    j1 sits at the midpoints of horizontal links and j2 of vertical links;
    (c_x, c_y) is the grid centre.  Positive means counter-clockwise.
    """
    j = current_density(psi, (d.h_active, d.v_active), d, p)
    x = (np.arange(d.nx) - (d.nx - 1) / 2.0) * d.dx
    y = (np.arange(d.ny) - (d.ny - 1) / 2.0) * d.dx
    return float((x[:, None] * j.j2).sum() - (y[None, :] * j.j1).sum())


def rim_pair_state(d: Domain, p: Params, norm: float = 1.0) -> np.ndarray:
    """Stationary circulating state supported on the edge band.

    Finds a degenerate pair of free-Hamiltonian eigenvectors whose density
    is concentrated on the edge band (Domain.edge_band): the sector
    eigenvalues of _free_modes are merged and sorted, each run of values
    whose neighbours lie within DEGENERACY_TOL is ordered by sector (in the
    order of _free_modes) and by position within the sector, adjacent values
    of a run pair up, and the first pair whose band weight (the least, over
    the pair, of the weight of a vector within the band) lies within
    SCORE_TOL of the highest is taken, so roundoff in degenerate eigenvalues
    or in the weights does not move the choice.  Of the real pair's (u, v)
    two circulating combinations (u +- i v)/sqrt(2), the state is the one
    whose zero-potential charge current circulates counter-clockwise about
    the grid centre (circulation >= 0).
    It is truncated to the band so the interior support is exactly empty;
    the truncation removes only the exponential tail, so the state stays
    close to an exact stationary pair and its current remains rim-localized
    under evolution.  The global phase makes the first site, in grid order, whose
    |psi| is within PEAK_TOL of the peak real and positive.  Neither the
    direction nor the phase depends on the basis the eigensolver picks.
    """
    sectors = _free_modes(d, p, "rim state construction")
    band = d.edge_band.ravel()
    w = np.concatenate([s.w for s in sectors])
    weights = np.concatenate(
        [(s.V[band[s.reps]] ** 2).sum(axis=0) for s in sectors])
    which = np.concatenate([np.full(len(s.w), k) for k, s in enumerate(sectors)])
    col = np.concatenate([np.arange(len(s.w)) for s in sectors])
    order = np.argsort(w, kind="stable")
    scale = max(abs(w[order[0]]), abs(w[order[-1]]), 1.0)
    run = np.r_[0, np.cumsum(np.diff(w[order]) > DEGENERACY_TOL * scale)]
    order = order[np.lexsort((col[order], which[order], run))]
    weights = weights[order]

    paired = run[1:] == run[:-1]
    score = np.where(paired, np.minimum(weights[:-1], weights[1:]), -1.0)
    i = int(np.argmax(score >= score.max() - SCORE_TOL))
    if score[i] < MIN_RIM_WEIGHT:
        raise DomainError(
            f"no degenerate rim-localized eigenpair found (best rim weight "
            f"{max(score[i], 0.0):.3f} < {MIN_RIM_WEIGHT}); change the domain")

    u, v = (sectors[which[k]].expand(sectors[which[k]].V[:, col[k]])
            for k in order[i:i + 2])
    vec = (u + 1j * v) / np.sqrt(2.0)
    vec = np.where(d.edge_band, vec.reshape(d.nx, d.ny), 0.0)
    if circulation(vec, d, p) < 0.0:
        vec = vec.conj()
    mag = np.abs(vec)
    k = np.argmax(mag >= (1.0 - PEAK_TOL) * mag.max())
    vec = vec * (vec.flat[k].conjugate() / mag.flat[k])
    return normalize(vec, d, norm)
