"""Initial matter-field builders: Gaussian packets, uniform fill, rim states."""

from __future__ import annotations

import numpy as np

from .domain import Domain, DomainError
from .dynamics import Params, dense_hamiltonian
from .fields import site_density

DEGENERACY_TOL = 1e-9     # relative gap below which two eigenvalues pair
MIN_RIM_WEIGHT = 0.9      # least band weight of each vector of a rim pair


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


def _free_modes(d: Domain, p: Params, purpose: str):
    """(w, V, sites) of the real zero-potential H on the active sites.

    Dense eigensolve, capped at 4000 sites; `purpose` names the caller.
    """
    if d.n_active > 4000:
        raise DomainError(
            f"{purpose} uses a dense eigensolve; {d.n_active} active sites "
            "is too large")
    H, sites = dense_hamiltonian((d.h_active, d.v_active), d, p)
    w, V = np.linalg.eigh(H)
    return w, V, sites


def band_limited(psi: np.ndarray, d: Domain, p: Params, ecut: float,
                 norm: float = 1.0) -> np.ndarray:
    """Project a state onto the free-Hamiltonian modes with energy <= ecut.

    Band-limited preparation removes the fast lattice harmonics a sampled
    and frame-truncated packet inevitably carries, so that every beat
    frequency of the evolving bilinears satisfies omega * dt << 1 and the
    second-order time-discretization diagnostics sit far below their
    tolerances.  Dense eigensolve: meant for modest domains.
    """
    if ecut <= 0:
        raise ValueError("ecut must be positive")
    w, V, sites = _free_modes(d, p, "band limiting")
    keep = w <= ecut
    if not keep.any():
        raise ValueError(f"no modes below ecut = {ecut}")
    vec = psi[sites[:, 0], sites[:, 1]]
    vec = V[:, keep] @ (V[:, keep].T @ vec)
    out = np.zeros((d.nx, d.ny), dtype=np.complex128)
    out[sites[:, 0], sites[:, 1]] = vec
    return normalize(out, d, norm)


def rim_pair_state(d: Domain, p: Params, norm: float = 1.0,
                   band: int = 3) -> np.ndarray:
    """Stationary circulating state supported on the boundary band.

    Finds a degenerate pair (u, v) of free-Hamiltonian eigenvectors whose
    density is concentrated within `band` cells of the boundary, combines
    them as (u + i v)/sqrt(2) to obtain a circulating current, and truncates
    the result to the band so the interior support is exactly empty.  The
    truncation removes only the exponential tail, so the state stays close
    to an exact stationary pair and its current remains rim-localized under
    evolution.

    Dense eigensolve: meant for domains up to a few thousand active sites.
    """
    w, V, sites = _free_modes(d, p, "rim state construction")
    dist = d.boundary_distance[sites[:, 0], sites[:, 1]]
    in_band = dist <= band

    weights = (np.abs(V) ** 2 * in_band[:, None]).sum(axis=0)
    scale = max(abs(w[0]), abs(w[-1]), 1.0)
    paired = np.abs(np.diff(w)) <= DEGENERACY_TOL * scale
    score = np.where(paired, np.minimum(weights[:-1], weights[1:]), -1.0)
    i = int(np.argmax(score))           # the first pair of highest rim weight
    if score[i] < MIN_RIM_WEIGHT:
        raise DomainError(
            f"no degenerate rim-localized eigenpair found (best rim weight "
            f"{max(score[i], 0.0):.3f} < {MIN_RIM_WEIGHT}); widen the band or "
            "change the domain")

    vec = (V[:, i] + 1j * V[:, i + 1]) / np.sqrt(2.0)
    vec = np.where(in_band, vec, 0.0)
    psi = np.zeros((d.nx, d.ny), dtype=np.complex128)
    psi[sites[:, 0], sites[:, 1]] = vec
    return normalize(psi, d, norm)
