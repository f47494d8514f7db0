"""Zero-mode quantization of the gauge field and the integer Hall spectrum.

The lattice Hall law is a Poisson system.  The link current is the energy
gradient, j = -dx^-2 dE/dA, so d_t A = R j = Omega dE/dA with R the linear
map of dynamics.gauge_rate and Omega = -dx^-2 R, antisymmetric because R
is.  The zero mode (abar1, abar2), the area means of the two link families
(zero_mode), is a pair of linear functionals abar_i = f_i . A, and its
bracket is

    {abar1, abar2} = f1 . Omega f2            (zero_mode_bracket).

On rectangles with or without holes it converges at second order in dx to

    sigma_H * area * {abar1, abar2} -> -1,

with area the mean of the two link families' active counts times dx^2, so
that canonical quantization gives

    [abar1, abar2] = i hbar {abar1, abar2} -> -i hbar / (sigma_H area),

the zero-mode commutator of Chern-Simons theory (Dunne, hep-th/9902115).
Against the form [A1, A2] = 4 pi i hbar kappa / sigma_H with kappa = 1/area,
the lattice result carries the factor -1/(4 pi): the opposite sign and 4 pi
less.  The text of the paper at hand (PAPER.md) is too short to show which
normalization the paper uses, so none is assumed here.

Any such pair has the polar wavefunctions Psi(A) = F(R) exp(i sigma_H l phi
/ hbar), with F arbitrary and l a constant of motion (normalized here to
l = 1).  Single-valuedness of Psi under phi -> phi + 2 pi forces
sigma_H l / hbar into the integers, whatever F: with l = hbar = 1 the
allowed values are sigma_H = 0, 1, 2, ..., N (the non-negative branch is the
physical one).  single_valuedness_scan applies that test to candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Domain
from .dynamics import Params, gauge_rate
from .fields import CurrentField, LinkField


@dataclass(frozen=True)
class ZeroMode:
    abar1: float
    abar2: float


def _weights(d: Domain):
    """Trapezoid weights of the horizontal and the vertical links.

    Each link weighs half its number of counted neighbouring plaquettes
    (1 inside, 1/2 on a boundary row), so each family's weights sum to the
    counted plaquette number d.n_plaq.
    """
    q = d.plaq_active.astype(float)
    return (0.5 * (np.pad(q, ((0, 0), (1, 0))) + np.pad(q, ((0, 0), (0, 1)))),
            0.5 * (np.pad(q, ((1, 0), (0, 0))) + np.pad(q, ((0, 1), (0, 0)))))


def zero_mode(a: LinkField, d: Domain) -> ZeroMode:
    """Area means of the two link components.

    The weights are the trapezoid rule across each link, second order in
    dx for a smooth potential, over d.n_plaq, so a constant potential keeps
    its value.  (0, 0) when no plaquette is counted.
    """
    m = d.n_plaq
    if not m:
        return ZeroMode(0.0, 0.0)
    w1, w2 = _weights(d)
    return ZeroMode(float((w1 * a.a1).sum() / m), float((w2 * a.a2).sum() / m))


def zero_mode_bracket(d: Domain, p: Params) -> float:
    """{abar1, abar2} = f1 . Omega f2, f the weights of zero_mode over n_plaq.

    Omega f2 is -dx^-2 times gauge_rate of the link field (0, f2): one Hall
    map apply, O(links), with no matrix built.  0 when no plaquette is
    counted.
    """
    m = d.n_plaq
    if not m:
        return 0.0
    w1, w2 = _weights(d)
    rate = gauge_rate(CurrentField(np.zeros_like(w1), w2), d, p)
    return float(-(w1 * rate.a1).sum() / (m * d.dx) ** 2)


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
