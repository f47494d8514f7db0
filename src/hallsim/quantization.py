"""Zero-mode quantization of the gauge field and the integer Hall spectrum.

The spatially constant component (abar1, abar2) of the potential forms a
two-dimensional phase space.  In polar form A1 = R cos(phi), A2 = R sin(phi)
the states are eigenfunctions of the angular momentum operator,

    Psi(A) = F(R) exp(i sigma_H l phi / hbar),

with F arbitrary and l a constant of motion (l = R^2, normalized here to
l = 1).  Single-valuedness of Psi under phi -> phi + 2 pi forces
sigma_H l / hbar into the integers: with l = hbar = 1 the allowed values are
sigma_H = 0, 1, 2, ..., N (the non-negative branch is the physical one).

The canonical commutator of the two components,

    [A1, A2] = (4 pi i hbar / sigma_H) * kappa,

follows from the field commutator with kappa the discrete-delta
normalization (1/area on a finite sample); commutator_check verifies a
finite-difference representation of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Domain
from .fields import LinkField


@dataclass(frozen=True)
class ZeroMode:
    abar1: float
    abar2: float

    @property
    def R(self) -> float:
        return math.hypot(self.abar1, self.abar2)

    @property
    def phi(self) -> float:
        if self.abar1 == 0.0 and self.abar2 == 0.0:
            return 0.0
        return math.atan2(self.abar2, self.abar1)


def zero_mode(a: LinkField, d: Domain) -> ZeroMode:
    """Area means of the two link components, in polar-ready form.

    Each link weighs half its number of counted neighbouring plaquettes
    (1 inside, 1/2 on a boundary row): the trapezoid rule across the link,
    second order in dx for a smooth potential.  Each family's weights sum
    to the counted plaquette number, so a constant potential keeps its value.
    """
    m = int(d.plaq_active.sum())
    if not m:
        return ZeroMode(0.0, 0.0)
    q = d.plaq_active.astype(float)
    w1 = 0.5 * (np.pad(q, ((0, 0), (1, 0))) + np.pad(q, ((0, 0), (0, 1))))
    w2 = 0.5 * (np.pad(q, ((1, 0), (0, 0))) + np.pad(q, ((0, 1), (0, 0))))
    return ZeroMode(float((w1 * a.a1).sum() / m), float((w2 * a.a2).sum() / m))


@dataclass
class WavefunctionSpec:
    """Zero-mode wavefunction Psi(A) = F(R) exp(i sigma l phi / hbar)."""
    sigma: float
    l: float = 1.0
    hbar: float = 1.0
    profile: object = None      # callable F(R); defaults to F == 1

    def F(self, R):
        if self.profile is None:
            return np.ones_like(np.asarray(R, dtype=float))
        return self.profile(R)


def wavefunction_value(w: WavefunctionSpec, R, phi):
    """Evaluate Psi at polar zero-mode coordinates (R, phi)."""
    return w.F(R) * np.exp(1j * w.sigma * w.l * np.asarray(phi) / w.hbar)


@dataclass(frozen=True)
class Spectrum:
    candidates: tuple
    mismatches: tuple           # |exp(2 pi i sigma l / hbar) - 1| per candidate
    allowed: tuple

    @property
    def allowed_nonnegative(self) -> tuple:
        return tuple(s for s in self.allowed if s >= 0.0)


def single_valuedness_scan(candidates, l: float = 1.0, hbar: float = 1.0,
                           tol: float = 1e-9) -> Spectrum:
    """Keep the candidates whose zero-mode wavefunction is single valued.

    sigma passes when |exp(i sigma l 2 pi / hbar) - 1| <= tol; the mismatch
    is independent of the radial profile, so the allowed set is too.  Any
    tol > 0 is accepted; mismatches never exceed 2, so tol >= 2 admits
    every candidate.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    cands = tuple(float(s) for s in candidates)
    mism = tuple(abs(np.exp(2j * np.pi * s * l / hbar) - 1.0) for s in cands)
    allowed = tuple(s for s, m in zip(cands, mism) if m <= tol)
    return Spectrum(cands, mism, allowed)


def commutator_check(sigma: float, grid: np.ndarray, test_functions,
                     hbar: float = 1.0, kappa: float = 1.0) -> float:
    """Deviation of the represented zero-mode commutator from its target.

    A1 acts by multiplication on the sampled axis and A2 as
    -i (4 pi hbar kappa / sigma) d/dA1 (central differences), so that
    [A1, A2] f should equal i (4 pi hbar kappa / sigma) f.  Returns the max
    deviation over interior grid points and test functions; second order in
    the grid spacing, and exact for f linear in A1.
    """
    if sigma == 0.0:
        raise ValueError("sigma must be nonzero")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 3:
        raise ValueError("grid must be a 1D axis with at least 3 points")
    h = grid[1] - grid[0]
    if not np.allclose(np.diff(grid), h):
        raise ValueError("grid must be uniform")

    c = 4.0 * np.pi * hbar * kappa / sigma

    def ddx(v):
        return (v[2:] - v[:-2]) / (2.0 * h)

    worst = 0.0
    for f in test_functions:
        fv = np.asarray(f(grid), dtype=complex)
        a1_d_f = grid[1:-1] * ddx(fv)            # A1 (d f)
        d_a1_f = ddx(grid * fv)                  # d (A1 f)
        comm = -1j * c * (a1_d_f - d_a1_f)       # [A1, A2] f on interior points
        dev = np.abs(comm - 1j * c * fv[1:-1]).max(initial=0.0)
        worst = max(worst, float(dev))
    return worst
