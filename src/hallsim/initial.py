"""Initial matter-field builders: Gaussian packets, uniform fill, rim states.

The rim state and the band limit use the eigenmodes of the free
(zero-potential) Hamiltonian.  _free_modes block-diagonalises it by the
sectors of the mask's rotation group (Faessler & Stiefel, Group Theoretical
Methods and Their Applications, 1992): C4 about the grid centre when the
mask maps onto itself under a 90 degree rotation, otherwise the trivial
group.  A C4-invariant domain needs three solves of a quarter of its sites
(the sector -1 block is the conjugate of the sector +1 block) instead of
one of all of them.  When the mask also equals its transpose, the mirror
makes every block it solves real (Dyson's threefold way): the sector +-1
block becomes one real block of the same size, and each real sector
(0 and 2, or the trivial group's one) splits into its two mirror parities
of about half the size.  Only the sector +-1 block of a chiral mask, C4
without the mirror, is eigensolved complex.
"""

from __future__ import annotations

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

_I_POW = np.array([1.0, -1j, -1.0, 1j])   # i^(-n), indexed by n mod 4


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
    """Eigenmodes of one rotation sector m of the free Hamiltonian.

    The (grid sites x orbits) basis matrix B_m has its column for the orbit
    s, Rs, R^2 s, ... equal to i^(-mk)/sqrt(|orbit|) at R^k s, so each row
    has at most one nonzero: the flat grid site c lies in column col[c]
    (-1 when the sector's basis leaves it out) with amplitude amp[c] (0
    there).  w (ascending) and V are the eigenvalues and eigenvectors
    (orbits x modes) of the block B_m^H H B_m, so expand(V[:, k]) is a
    full-grid eigenvector of H.  V is real in the real sectors (0 and g/2),
    also where the mirror split their block by parity, and complex in
    sectors +-1.  reps are the flat grid indices of the orbits' first sites.
    """
    col: np.ndarray
    amp: np.ndarray
    reps: np.ndarray
    w: np.ndarray
    V: np.ndarray

    def expand(self, v: np.ndarray) -> np.ndarray:
        """B_m v: the flat grid vector of orbit coefficients v."""
        return np.where(self.col >= 0, self.amp * v[self.col], 0.0)

    def project(self, psi: np.ndarray) -> np.ndarray:
        """B_m^H psi: the orbit coefficients of a flat grid vector."""
        on = self.col >= 0
        out = np.zeros(len(self.w), dtype=np.result_type(self.amp, psi))
        np.add.at(out, self.col[on], self.amp[on].conj() * psi[on])
        return out


def _orbits(d: Domain) -> np.ndarray:
    """Flat grid indices of R^k s in column k, one row per orbit of sites.

    R is the 90 degree rotation about the grid centre (C4, four columns)
    when nx == ny and R maps the mask onto itself; otherwise it is the
    identity (the trivial group, one column).  Each orbit is listed once,
    at its least flat index, in grid order.
    """
    c4 = d.nx == d.ny and np.array_equal(d.active, np.rot90(d.active))
    idx = np.arange(d.nx * d.ny).reshape(d.nx, d.ny)
    images = np.stack([np.rot90(idx, k)[d.active] for k in range(4 if c4 else 1)],
                      axis=1)
    return images[images[:, 0] == images.min(axis=1)]


def _sector_modes(col, amp, reps, flip, entries):
    """(w, V) of one sector's block, solved in its real basis (see _free_modes).

    flip maps each flat site to its mirror image; None, for a mask without
    the mirror, makes every orbit its own image with c_O = 1.  The real
    basis lists the plus vectors, (b_O + c_O b_O')/sqrt(2) or sqrt(c_O) b_O
    where O' = O, then the minus vectors, t (b_O - c_O b_O')/sqrt(2) with
    t = 1 in a real sector and i otherwise, or b_O where O' = O and c_O = -1.
    Row O of the unitary U from orbit to real-basis coefficients holds
    u[O, 0] and u[O, 1] at the columns k[O, 0] and k[O, 1], column n
    standing for none.  A real sector's block splits into its plus and
    minus rows (the parities); a complex sector's stays whole.
    """
    n = len(reps)
    j = np.arange(n)
    real = not np.iscomplexobj(amp)
    image = j if flip is None else col[flip[reps]]
    c = np.ones(n) if flip is None else amp[flip[reps]].conj() / amp[reps]
    alone = image == j
    odd = alone & (c.real < 0) & real
    plus = (image >= j) & ~odd                 # leads a plus vector
    minus = (image > j) | odd                  # leads a minus vector
    lead = np.minimum(j, image)
    k = np.stack([np.where(plus[lead], np.cumsum(plus)[lead] - 1, n),
                  np.where(minus[lead], plus.sum() + np.cumsum(minus)[lead] - 1, n)],
                 axis=1)
    share = np.where(image < j, c, 1.0) / np.sqrt(2.0)
    t = np.where(image < j, -1.0, 1.0) * (1.0 if real else 1j)
    u = np.stack([np.where(alone, np.sqrt(c + 0j), share),
                  np.where(alone, 1.0, t * share)], axis=1)
    u = u.real if real else u
    sizes = [s for s in ([plus.sum(), minus.sum()] if real else [n]) if s]

    # conj(a) H a summed per pair of real basis vectors, a being a site's
    # coefficient in each vector it enters; row and column n collect none
    rows, cols, vals = entries
    on = (col[rows] >= 0) & (col[cols] >= 0)
    r, q = rows[on], cols[on]
    a_r = amp[r, None] * u[col[r]]
    a_q = amp[q, None] * u[col[q]]
    entry = a_r.conj()[:, :, None] * vals[on, None, None] * a_q[:, None, :]
    at = (k[col[r]][:, :, None] * (n + 1) + k[col[q]][:, None, :]).ravel()
    block = np.bincount(at, entry.real.ravel(), (n + 1) ** 2)
    if flip is None and not real:
        block = block + 1j * np.bincount(at, entry.imag.ravel(), (n + 1) ** 2)
    block = block.reshape(n + 1, n + 1)

    w, W = [], np.zeros((n + 1, n), dtype=block.dtype)
    for lo, hi in zip(np.cumsum([0] + sizes[:-1]), np.cumsum(sizes)):
        w_b, W[lo:hi, lo:hi] = np.linalg.eigh(block[lo:hi, lo:hi])
        w.append(w_b)
    w = np.concatenate(w)
    order = np.argsort(w, kind="stable")
    W = W[:, order]
    return w[order], u[:, :1] * W[k[:, 0]] + u[:, 1:] * W[k[:, 1]]


def _free_modes(d: Domain, p: Params, purpose: str) -> list:
    """Sectors m = 0 .. g-1 of the real zero-potential H on the active sites.

    H commutes with the rotation group of the mask (see _orbits), so it is
    block diagonal in the orbit bases B_m.  An orbit of g sites enters
    every sector; the centre of an odd C4 grid is its own orbit and enters
    sector 0 only.  Sectors 0 and g/2 have real bases and real blocks; for
    C4 the block of sector -1 (m = 3) is the conjugate of sector +1's and is
    not solved again.  The trivial group is the same loop with one orbit per
    site and one sector, the dense H itself.

    When the mask equals its transpose, the mirror sigma (transposition,
    which maps R to its inverse) makes every block real, or splits it
    (Dyson, J. Math. Phys. 3, 1199 (1962), the threefold way).  sigma K
    (K the complex conjugation) commutes with H, squares to 1 and maps
    sector m onto itself: sigma K b_O = c_O b_O' for the orbit O' holding
    the mirror images of O's sites, with |c_O| = 1.  In sector +-1 the
    sigma K-invariant basis (b_O + c_O b_O')/sqrt(2), i (b_O - c_O b_O')/
    sqrt(2), and sqrt(c_O) b_O where O' = O, gives one real block of the
    same size.  In the real sectors, where c_O = +-1, the mirror parities
    (b_O +- c_O b_O')/sqrt(2), and b_O in the parity c_O where O' = O, give
    two real blocks of about half the size.  Only the sector +-1 block of a
    mask without the mirror (a chiral one) is solved complex.

    A block entry sums conj(a) H a over the nonzero entries of H whose two
    sites are in the sector's basis, a being a site's coefficient in each
    of the (at most two) real basis vectors it enters.  Each block is
    eigensolved densely, and the eigenvectors are mapped back to the orbit
    basis (V = U W) and sorted with their eigenvalues.  The number of orbits
    is capped at MAX_BLOCK_SITES.  `purpose` names the caller in the error.
    """
    orbits = _orbits(d)
    n_orbits, g = orbits.shape
    if n_orbits > MAX_BLOCK_SITES:
        raise DomainError(
            f"{purpose} eigensolves dense symmetry blocks of the free "
            f"Hamiltonian; the largest block here has {n_orbits} sites, "
            f"above the cap of {MAX_BLOCK_SITES}")
    full = (orbits[:, 1:] != orbits[:, :1]).all(axis=1)
    # sqrt(|orbit|)/g per listed image: the centre's g images sum to 1
    scale = np.where(full, 1.0 / np.sqrt(g), 1.0 / g)[:, None]
    flip = None
    if d.nx == d.ny and np.array_equal(d.active, d.active.T):
        flip = np.arange(d.nx * d.ny).reshape(d.nx, d.ny).T.ravel()
    entries = _h_matrix((d.h_active, d.v_active), d, p).entries()
    sectors = []
    for m in range(g):
        keep = full | (m == 0)
        n = int(keep.sum())
        phase = _I_POW[(m * np.arange(g)) % 4]
        if (2 * m) % g == 0:
            phase = phase.real
        col = np.full(d.nx * d.ny, -1)
        col[orbits[keep]] = np.arange(n)[:, None]
        amp = np.zeros(d.nx * d.ny, dtype=phase.dtype)
        # the centre of an odd C4 grid is listed g times: its images sum
        np.add.at(amp, orbits[keep], scale[keep] * phase)
        partner = (-m) % g
        if partner < m:
            w, V = sectors[partner].w, sectors[partner].V.conj()
        else:
            w, V = _sector_modes(col, amp, orbits[keep, 0], flip, entries)
        sectors.append(Sector(col, amp, orbits[keep, 0], w, V))
    return sectors


def band_limited(psi: np.ndarray, d: Domain, p: Params, ecut: float,
                 norm: float = 1.0) -> np.ndarray:
    """Project a state onto the free-Hamiltonian modes with energy <= ecut.

    Band-limited preparation removes the fast lattice harmonics a sampled
    and frame-truncated packet inevitably carries, so that every beat
    frequency of the evolving bilinears satisfies omega * dt << 1 and the
    second-order time-discretization diagnostics sit far below their
    tolerances.  The projector is summed sector by sector,
    sum_m B_m V_keep V_keep^H B_m^H psi (see _free_modes and Sector).
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
        out += s.expand(V @ (V.conj().T @ s.project(vec)))
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
    whose neighbours lie within DEGENERACY_TOL is ordered by sector label
    (and by position within the sector), adjacent values of a run pair up,
    and the first pair whose band weight (the least, over the pair, of the
    weight of a vector within the band) lies within SCORE_TOL of the highest
    is taken, so roundoff in degenerate eigenvalues or in the weights does
    not move the choice.  Of the pair's two circulating combinations, phi
    and conj(phi) for a C4 sector +-1 pair, (u +- i v)/sqrt(2) for a real
    pair (u, v), the state is the one whose zero-potential charge current
    circulates counter-clockwise about the grid centre (circulation >= 0).
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
        [(np.abs(s.V[band[s.reps]]) ** 2).sum(axis=0) for s in sectors])
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
    # a complex sector vector circulates already, its partner is its conjugate
    vec = u if np.iscomplexobj(u) else (u + 1j * v) / np.sqrt(2.0)
    vec = np.where(d.edge_band, vec.reshape(d.nx, d.ny), 0.0)
    if circulation(vec, d, p) < 0.0:
        vec = vec.conj()
    mag = np.abs(vec)
    k = np.argmax(mag >= (1.0 - PEAK_TOL) * mag.max())
    vec = vec * (vec.flat[k].conjugate() / mag.flat[k])
    return normalize(vec, d, norm)
