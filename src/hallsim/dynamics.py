"""Coupled time evolution of the matter field and the gauge potential.

The temporal gauge A0 = 0 is built in.  One full step advances

    i hbar d_t psi = H(A) psi                (gauge-covariant Schroedinger)
    d_t A1 = + jt2 / sigma_H                 (Hall response of the links)
    d_t A2 = - jt1 / sigma_H

where jt denotes the current interpolated onto the transverse link (mean of
the four nearest links of the other orientation, zeros off-domain).

Scheme (second order overall):

1. predict the half-step potential  A_half = A + (dt/2) * rate(j(psi, A));
2. trapezoidal (Cayley) matter step with A frozen at A_half:
       (1 + i dt H/2 hbar) psi' = (1 - i dt H/2 hbar) psi
   which is exactly unitary up to the linear-solver tolerance;
3. gauge update A' = A + dt * rate(j_mid) with the midpoint current
   j_mid = j((psi + psi')/2, A_half).

Steps 2-3 are matched: the Cayley step satisfies a discrete continuity
identity with exactly the current j_mid, and the transverse interpolation
makes curl(rate(j)) equal to minus the four-corner-averaged divergence of j.
Together these preserve the discrete Gauss functional

    sigma_H * curl(A) - e * <|psi|^2>_plaquette

to solver tolerance at every step, independent of dt.

The continuity identity needs H and j_mid to carry the same Peierls link
phases.  fields.link_phases is their one owner: advance evaluates the phases
of A_half once and passes them to both the Cayley solve and j_mid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Domain
from .fields import (CurrentField, LinkField, SiteField, current_density,
                     density_to_plaquettes, j1_at_vlinks, j2_at_hlinks,
                     link_phases, stencil_matrix)


class SolverError(RuntimeError):
    """An inner linear solve failed to reach its tolerance."""


@dataclass(frozen=True)
class Params:
    """Physical and integration parameters (natural units by default)."""
    sigma_h: float = 1.0
    hbar: float = 1.0
    e: float = 1.0
    mu: float = 1.0
    dt: float = 0.05
    solver_tol: float = 1e-14
    solver_maxiter: int = 500

    def __post_init__(self):
        if self.sigma_h == 0.0:
            raise ValueError("sigma_h must be nonzero (the gauge update divides by it)")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")


def default_dt(d: Domain, mu: float = 1.0, hbar: float = 1.0) -> float:
    """Stability default: dt = 0.05 mu dx^2 / hbar."""
    return 0.05 * mu * d.dx ** 2 / hbar


@dataclass
class SimState:
    domain: Domain
    params: Params
    psi: SiteField
    a: LinkField
    t: float = 0.0

    def copy(self) -> "SimState":
        return SimState(self.domain, self.params, self.psi.copy(),
                        self.a.copy(), self.t)


def make_hamiltonian(phases, d: Domain, p: Params):
    """Closure applying H for fixed link phases (u1, u2) from link_phases.

    The phases vanish on inactive links and Domain.degree on inactive sites,
    so H maps onto active sites without a separate mask.
    """
    u1, u2 = phases
    u1c, u2c = np.conj(u1), np.conj(u2)
    pref = p.hbar ** 2 / (2.0 * p.mu * d.dx ** 2)
    deg = d.degree

    def apply_h(v: np.ndarray) -> np.ndarray:
        out = deg * v
        out[:-1, :] -= u1c * v[1:, :]
        out[1:, :] -= u1 * v[:-1, :]
        out[:, :-1] -= u2c * v[:, 1:]
        out[:, 1:] -= u2 * v[:, :-1]
        return pref * out

    return apply_h


def hamiltonian_apply(psi: SiteField, a: LinkField, d: Domain, p: Params) -> SiteField:
    """Kinetic Hamiltonian with Peierls link phases and reflecting boundaries.

    (H psi)(x) = (hbar^2 / 2 mu dx^2) *
        sum over active links at x of [psi(x) - (hop phase) psi(neighbor)],

    the hop phase being exp(+-i e dx a / hbar) with the sign fixed by the
    link orientation relative to x (the phase of the line integral from the
    neighbor to x).  Hermitian, and gauge-covariant under apply_gauge.
    """
    return SiteField(make_hamiltonian(link_phases(a, d, p), d, p)(psi.values))


def dense_hamiltonian(a: LinkField, d: Domain, p: Params):
    """Dense matrix of the Hamiltonian on active sites.

    Returns (H, sites) with sites the (m, 2) index array fixing the basis
    order.  Intended for small domains (oracle eigensolves, rim states).
    """
    u1, u2 = link_phases(a, d, p)
    pref = p.hbar ** 2 / (2.0 * p.mu * d.dx ** 2)
    H, sites = stencil_matrix(d.active, -pref * u1, -pref * u2, pref * d.degree)
    return H.toarray(), sites


def cayley_step(psi: SiteField, a: LinkField, d: Domain, p: Params,
                dt: float, phases=None) -> SiteField:
    """One trapezoidal step (1 + i dt H/2hbar) psi' = (1 - i dt H/2hbar) psi.

    H takes `phases` when given, else link_phases(a, d, p).  Solved by
    conjugate gradients on the normal equations; the operator 1 + alpha^2 H^2
    has condition number 1 + (alpha ||H||)^2, about 1.01 at the default dt,
    so a handful of iterations reaches 1e-14.  Raises SolverError if the
    tolerance is not met within the iteration cap or the state or residual
    turns non-finite.
    """
    if phases is None:
        phases = link_phases(a, d, p)
    apply_h = make_hamiltonian(phases, d, p)
    alpha = dt / (2.0 * p.hbar)

    b = psi.values - 1j * alpha * apply_h(psi.values)
    rhs = b - 1j * alpha * apply_h(b)      # adjoint (1 - i alpha H) applied to b
    bnorm = float(np.sqrt(np.vdot(rhs, rhs).real))
    if not np.isfinite(bnorm):
        raise SolverError(f"matter step: non-finite state (rhs norm {bnorm})")
    if bnorm == 0.0:
        return SiteField(np.zeros_like(psi.values))

    def apply_m(v):
        return v + alpha ** 2 * apply_h(apply_h(v))

    x = psi.values.copy()
    r = rhs - apply_m(x)
    q = r.copy()
    rs = np.vdot(r, r).real
    tol = p.solver_tol * bnorm
    it = 0
    while not np.sqrt(rs) <= tol:          # a nan residual enters the loop
        if not np.isfinite(rs):
            raise SolverError(f"matter step: non-finite residual {rs} "
                              f"after {it} iterations")
        if it >= p.solver_maxiter:
            raise SolverError(
                f"matter step did not converge: residual {np.sqrt(rs):.3e} "
                f"> {tol:.3e} after {p.solver_maxiter} iterations")
        mq = apply_m(q)
        step = rs / np.vdot(q, mq).real
        x = x + step * q
        r = r - step * mq
        rs_new = np.vdot(r, r).real
        q = r + (rs_new / rs) * q
        rs = rs_new
        it += 1
    return SiteField(np.where(d.active, x, 0.0))


def step_matter(s: SimState, dt: float | None = None) -> SiteField:
    """Matter step with the state's potential frozen (dt < 0 runs backward)."""
    if dt is None:
        dt = s.params.dt
    return cayley_step(s.psi, s.a, s.domain, s.params, dt)


def gauge_rate(j: CurrentField, d: Domain, p: Params) -> LinkField:
    """d_t A from the Hall law, with transverse current interpolation."""
    return LinkField(j2_at_hlinks(j.j2, d) / p.sigma_h,
                     -j1_at_vlinks(j.j1, d) / p.sigma_h)


def step_gauge(s: SimState, j: CurrentField, dt: float | None = None) -> LinkField:
    """Explicit update A + dt * rate(j); j should be the midpoint current."""
    if dt is None:
        dt = s.params.dt
    rate = gauge_rate(j, s.domain, s.params)
    return LinkField(s.a.a1 + dt * rate.a1, s.a.a2 + dt * rate.a2)


def advance(s: SimState) -> SimState:
    """One full coupled step of length params.dt."""
    d, p, dt = s.domain, s.params, s.params.dt
    j0 = current_density(s.psi, s.a, d, p)
    half_rate = gauge_rate(j0, d, p)
    a_half = LinkField(s.a.a1 + 0.5 * dt * half_rate.a1,
                       s.a.a2 + 0.5 * dt * half_rate.a2)
    u_half = link_phases(a_half, d, p)
    psi_new = cayley_step(s.psi, a_half, d, p, dt, phases=u_half)
    psi_mid = SiteField(0.5 * (s.psi.values + psi_new.values))
    j_mid = current_density(psi_mid, a_half, d, p, phases=u_half)
    rate = gauge_rate(j_mid, d, p)
    a_new = LinkField(s.a.a1 + dt * rate.a1, s.a.a2 + dt * rate.a2)
    return SimState(d, p, psi_new, a_new, s.t + dt)


def initialize_consistent(d: Domain, psi0: SiteField, p: Params) -> SimState:
    """Build a state whose potential satisfies the Gauss constraint.

    Solves a discrete Poisson problem for a plaquette stream function chi
    with A1 = -d2 chi, A2 = +d1 chi, so that curl A = laplace chi equals the
    constraint target e <|psi0|^2>_plaquette / sigma_H on every counted
    plaquette (chi = 0 on uncounted dual sites).  The returned state has a
    relative Gauss residual at the direct-solver roundoff level.
    """
    from scipy.sparse.linalg import spsolve

    rho_p = density_to_plaquettes(p.e * np.where(d.active, psi0.density(), 0.0), d)
    target = rho_p / p.sigma_h
    if not np.any(target):
        return SimState(d, p, psi0.copy(), LinkField.zeros(d), 0.0)

    inv_dx2 = 1.0 / d.dx ** 2
    lap, _ = stencil_matrix(d.plaq_active, inv_dx2, inv_dx2, -4.0 * inv_dx2)
    chi_vec = spsolve(lap, target[d.plaq_active])
    if not np.all(np.isfinite(chi_vec)):
        raise SolverError("stream-function Poisson solve returned non-finite values")

    chi = np.zeros((d.nx - 1, d.ny - 1))
    chi[d.plaq_active] = chi_vec

    # chi padded with zeros on the virtual dual sites outside counted plaquettes
    pad = np.zeros((d.nx + 1, d.ny + 1))
    pad[1:-1, 1:-1] = chi
    # a1[x, y] = -(chi(plaq above) - chi(plaq below))/dx
    a1 = -(pad[1:-1, 1:] - pad[1:-1, :-1]) / d.dx * d.h_active
    # a2[x, y] = +(chi(plaq right) - chi(plaq left))/dx
    a2 = (pad[1:, 1:-1] - pad[:-1, 1:-1]) / d.dx * d.v_active
    state = SimState(d, p, psi0.copy(), LinkField(a1, a2), 0.0)

    from .diagnostics import gauss_residual
    _, rel = gauss_residual(state)
    if rel > 1e-10:
        raise SolverError(
            f"consistent initialization failed: relative Gauss residual {rel:.3e}")
    return state
