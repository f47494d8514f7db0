"""Coupled time evolution of the matter field and the gauge potential.

The temporal gauge A0 = 0 is built in.  One full step advances

    i hbar d_t psi = H(A) psi                (gauge-covariant Schroedinger)
    d_t A1 = + jt2 / sigma_H                 (Hall response of the links)
    d_t A2 = - jt1 / sigma_H

where jt denotes the current interpolated onto the transverse link (mean of
the four nearest links of the other orientation, zeros off-domain).
gauge_rate is this Hall map, and the only code that forms jt.

Scheme (second order overall):

1. predict the half-step potential  A_half = A + (dt/2) * rate_prev, with
   rate_prev = rate(j_mid) of the step that produced the state (stored in
   SimState.rate), or rate(j(psi, A)) of the state itself when there is no
   such step (after initialization, flux insertion or a restart);
2. trapezoidal (Cayley) matter step with A frozen at A_half:
       (1 + i dt H/2 hbar) psi' = (1 - i dt H/2 hbar) psi
   which is exactly unitary up to the linear-solver tolerance.  The solve
   is a Galerkin (Widlund-type) Krylov method on the unsquared system
   (1 + i dt H/2 hbar) y = psi, psi' = 2y - psi, with one H apply per
   iteration; it cannot break down because the projected matrix
   I + i (dt/2 hbar) T_k (T_k the real tridiagonal Lanczos matrix of H)
   has Hermitian part I (see cayley_step);
3. gauge update A' = A + dt * rate(j_mid) with the midpoint current
   j_mid = j((psi + psi')/2, A_half).

The predictor needs only first-order accuracy in time: rate_prev is the
rate at t - dt/2, O(dt) away from rate(t), so A_half is off by O(dt^2) and
the matter step's local error stays O(dt^3).  Reusing it saves one phase
evaluation, one current and one transverse interpolation per step.

Steps 2-3 are matched: the Cayley step satisfies a discrete continuity
identity with exactly the current j_mid, and the transverse interpolation
makes curl(rate(j)) equal to minus the four-corner-averaged divergence of j.
Together these preserve the discrete Gauss functional

    sigma_H * curl(A) - e * <|psi|^2>_plaquette

to solver tolerance at every step, independent of dt.

The continuity identity needs H and j_mid to carry the same Peierls link
phases.  fields.link_phases is their one owner: advance has it write the
phases of A_half into the Workspace's H once, and both the Cayley solve and
j_mid read them there.  How A_half was predicted does not enter, so the
predictor leaves Gauss preservation as it is.

A run keeps one Workspace for all its steps: the five-point stencil of H,
whose hops are the cache of the phases they were last written for, and the
vectors of the Cayley solve.  The Hall law moves A only where current
flows, so a step rewrites the hops only on the links whose phase moved
(about 5% of them for a packet in the bulk).  A step's result does not
depend on the workspace it is given.

The initial potential meets the Gauss constraint through a plaquette stream
function, the solution of a Poisson problem on the counted plaquettes.  It
is solved by conjugate gradients on the whole plaquette grid with the masked
Laplacian of fields.stencil_matrix, preconditioned by one symmetric
geometric-multigrid V-cycle, which needs about the same number of
iterations at every grid size.  CG starts from zero, and every iterate is
tested (see initialize_consistent).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Domain
from .fields import (BLOCK_SITES, CurrentField, LinkField, Stencil,
                     charge_density, current_density, density_to_plaquettes,
                     kinetic_scale, link_phases, stencil_matrix)


class SolverError(RuntimeError):
    """An inner linear solve failed to reach its tolerance."""


# Stopping tolerance of the Cayley matter step: its residual relative to the
# right-hand side.  The Gauss functional holds only to this tolerance, so it
# is fixed where the Gauss residual stays at roundoff (<= 1e-10 relative).
CAYLEY_TOL = 1e-14

# Iteration cap of both linear solves: the Cayley matter step's Krylov
# iterations (one H apply each) and the conjugate gradients of
# initialize_consistent.  Both test their last allowed iterate, so a solve
# that converges in k iterations succeeds with MAX_ITERATIONS = k.
MAX_ITERATIONS = 500


@dataclass(frozen=True)
class Params:
    """Physical and integration parameters (natural units by default).

    The linear solves take no parameter: their iteration cap is
    MAX_ITERATIONS and their tolerances are fixed (CAYLEY_TOL and the 1e-13
    of initialize_consistent).  A rejected value raises ValueError whose
    message starts with the parameter's name.
    """
    sigma_h: float = 1.0
    hbar: float = 1.0
    e: float = 1.0
    mu: float = 1.0
    dt: float = 0.05

    def __post_init__(self):
        if self.sigma_h == 0.0:
            raise ValueError("sigma_h: must be nonzero (the gauge update divides by it)")
        if self.dt <= 0.0:
            raise ValueError(f"dt: must be positive, got {self.dt!r}")


def default_dt(d: Domain, mu: float = 1.0, hbar: float = 1.0) -> float:
    """Stability default: dt = 0.05 mu dx^2 / hbar."""
    return 0.05 * mu * d.dx ** 2 / hbar


@dataclass
class SimState:
    """psi and A at time t, and the Hall rate that predicts the next A_half.

    rate is gauge_rate(j_mid) of the advance step that produced the state;
    the next step predicts A_half = a + (dt/2) rate from it.  None (after
    initialization, flux insertion, a restart or for a hand-built state)
    makes advance compute the rate of the state's own current instead.
    """
    domain: Domain
    params: Params
    psi: np.ndarray     # complex, shape (nx, ny)
    a: LinkField
    t: float = 0.0
    rate: LinkField | None = None


def _h_matrix(phases, d: Domain, p: Params,
              h: Stencil | None = None) -> Stencil:
    """H over the whole grid; the phases and Domain.degree vanish off-domain.

    With h (a complex stencil of the same grid), its entries are rewritten."""
    args = (*phases, d.degree, kinetic_scale(d, p))
    return stencil_matrix((d.nx, d.ny), *args) if h is None else h.fill(*args)


def make_hamiltonian(phases, d: Domain, p: Params,
                     work: Workspace | None = None):
    """Closure applying H for fixed link phases (u1, u2) from link_phases.

    The kinetic Hamiltonian with Peierls link phases and reflecting
    boundaries,

        (H psi)(x) = (hbar^2 / 2 mu dx^2) *
            sum over active links at x of [psi(x) - (hop phase) psi(neighbor)],

    the hop phase being u = exp(i e dx a / hbar) or its conjugate, as the
    link points to or from x (the phase of the line integral from the
    neighbor to x).  Hermitian, and gauge-covariant under apply_gauge.

    H is fields.stencil_matrix with hops u, diagonal Domain.degree and scale
    fields.kinetic_scale, built once per call, and H maps onto active sites
    without a separate mask.  phases may also be H itself, the stencil that
    link_phases returns from a Workspace, which is then applied as it is.
    Without `work` every apply returns a new array.  With a Workspace, H
    (unless given) is written into its stencil work.h, which drops the
    phases cached there, and every apply goes into work.hq, which the next
    apply overwrites.
    """
    if isinstance(phases, Stencil):
        h = phases
    elif work is None:
        h = _h_matrix(phases, d, p)
    else:
        work.phases_of = None
        h = _h_matrix(phases, d, p, work.h)
    out = None if work is None else work.hq

    def apply_h(v: np.ndarray) -> np.ndarray:
        return h.apply(v, out)

    return apply_h


def dense_hamiltonian(phases, d: Domain, p: Params):
    """Dense matrix of the Hamiltonian on active sites.

    The matrix of make_hamiltonian for the same link phases (u1, u2),
    restricted to the active sites; returns (H, sites) with
    sites = np.argwhere(d.active) fixing the basis order.  Real phases, such
    as the link masks (d.h_active, d.v_active) of the zero potential, give a
    real matrix.  Intended for small domains (the tests' eigensolve oracle).
    """
    rows, cols, vals = _h_matrix(phases, d, p).entries()
    keep = d.active.ravel()
    pos = np.cumsum(keep) - 1               # basis index of an active site
    on = keep[rows] & keep[cols]
    H = np.zeros((int(keep.sum()),) * 2, dtype=vals.dtype)
    H[pos[rows[on]], pos[cols[on]]] = vals[on]
    return H, np.argwhere(d.active)


class Workspace:
    """The arrays one run reuses in every matter step, for one grid.

    h is the complex stencil of H and hq receives its applies; r and q are
    the residual and direction vectors of cayley_step, and t, one block of
    BLOCK_SITES sites, holds the products of its vector updates.  (Its
    iterate y becomes the new state, so each step allocates that one.)

    Two of these are caches, which a step reads without writing them first:
    H's diagonal and hop rows, which fields.link_phases writes only where
    the Peierls phase moved, and theta, the phases e dx A / hbar they were
    written for.  phases_of is the (domain, kinetic scale) they hold, or
    None; link_phases writes the whole stencil when its domain or scale is
    not that one, and make_hamiltonian sets it to None whenever it fills h
    from other phases (a direct cayley_step with explicit phases).  The
    other buffers are scratch that a step writes before it reads: link_phases
    forms theta in the float view of hq, and after the solve advance writes
    the midpoint state (psi + psi')/2 into r and the current's complex link
    products into hq.  So a step's result does not depend on the workspace's
    history.  The updates are numpy ufuncs into these buffers; the only BLAS
    calls of a step are the inner products of np.vdot.
    """

    def __init__(self, d: Domain):
        shape = (d.nx, d.ny)
        self.h = Stencil(shape, np.complex128)
        self.hq, self.r, self.q = (
            np.empty(shape, dtype=np.complex128) for _ in range(3))
        self.t = np.empty(min(BLOCK_SITES, d.nx * d.ny), dtype=np.complex128)
        self.theta = LinkField(np.empty((d.nx - 1, d.ny)),
                               np.empty((d.nx, d.ny - 1)))
        self.phases_of = None


def cayley_step(psi: np.ndarray, phases, d: Domain, p: Params, dt: float,
                work: Workspace) -> np.ndarray:
    """One trapezoidal step (1 + i dt H/2hbar) psi' = (1 - i dt H/2hbar) psi.

    H carries the link phases (u1, u2) of link_phases, or the link masks
    (d.h_active, d.v_active) of the zero potential, or is the stencil that
    link_phases wrote into `work`, which also holds the solver's vectors.
    With alpha = dt/2hbar, psi' = 2y - psi where
    (1 + i alpha H) y = psi, and the residual of the Cayley system is twice
    that of the y system.  The y
    system is solved by the Galerkin method on the Krylov space of H
    (Widlund 1978): conjugate-gradient recurrences with the complex pivot
    q* (1 + i alpha H) q and a direction update scaled by -conj(pivot)/pivot,
    one H apply per iteration.  It cannot break down: in the Lanczos basis
    the projected matrix is I + i alpha T_k with T_k real tridiagonal, whose
    Hermitian part is I, so every pivot has real part |q|^2 > 0.  The solve
    stops when the Cayley residual is at most CAYLEY_TOL, less one unit
    roundoff, times the norm of the right-hand side,
    sqrt(|psi|^2 + alpha^2 |H psi|^2) (H is Hermitian), read off the first
    iteration's apply.  The unit roundoff covers the drift between the
    recurred residual and the one recomputed from psi'.  The updates of y
    and r go through the sites in blocks of BLOCK_SITES, as Stencil.apply
    does, so each block's four products stay in cache.  Raises SolverError
    if that takes more than MAX_ITERATIONS iterations or the state or
    residual turns non-finite.
    """
    apply_h = make_hamiltonian(phases, d, p, work)
    alpha = dt / (2.0 * p.hbar)
    r, q = work.r, work.q

    # residual of y = 0, that is psi on active sites and 0 elsewhere
    r.fill(0.0)
    np.copyto(r, psi, where=d.active)
    rr = np.vdot(r, r).real
    if not np.isfinite(rr):
        raise SolverError(f"matter step: non-finite state (norm^2 {rr})")
    if rr == 0.0:
        return np.zeros_like(psi)
    y = np.zeros_like(r)
    np.copyto(q, r)
    n = y.size
    blocks = [(slice(s, s + BLOCK_SITES), work.t[:min(BLOCK_SITES, n - s)])
              for s in range(0, n, BLOCK_SITES)]
    yf, rf, qf = y.reshape(-1), r.reshape(-1), q.reshape(-1)
    res, tol = 2.0 * np.sqrt(rr), CAYLEY_TOL * np.sqrt(rr)
    for it in range(MAX_ITERATIONS):
        hq = apply_h(q)
        if it == 0:                                 # q = psi
            bnorm = np.sqrt(rr + alpha ** 2 * np.vdot(hq, hq).real)
            if not np.isfinite(bnorm):
                raise SolverError(
                    f"matter step: non-finite state (rhs norm {bnorm})")
            tol = (CAYLEY_TOL - np.finfo(np.float64).eps) * bnorm
        pivot = complex(np.vdot(q, q).real, alpha * np.vdot(q, hq).real)
        size = abs(pivot)
        phase = pivot.conjugate() / size            # 1/pivot = phase/size
        step = (rr / size) * phase
        hstep = -1j * alpha * step
        hqf = hq.reshape(-1)
        for b, t in blocks:
            np.multiply(qf[b], step, out=t)
            yf[b] += t                              # y += step q
            rf[b] -= t                              # r -= step (1 + i alpha H) q
            np.multiply(hqf[b], hstep, out=t)
            rf[b] += t
        rr_new = np.vdot(r, r).real
        res = 2.0 * np.sqrt(rr_new)
        if res <= tol:
            y *= 2.0
            np.subtract(y, psi, out=y, where=d.active)
            return y
        if not np.isfinite(res):
            raise SolverError(f"matter step: non-finite residual {res} "
                              f"after {it + 1} iterations")
        # q = r - (rr_new/rr) conj(pivot)/pivot q
        q *= -(rr_new / rr) * phase * phase
        q += r
        rr = rr_new
    raise SolverError(
        f"matter step did not converge: residual {res:.3e} > {tol:.3e} "
        f"after {MAX_ITERATIONS} iterations")


def _transverse_mean(j: np.ndarray, mask: np.ndarray, sigma: float) -> np.ndarray:
    """Mean of the four vertical-link values j nearest each horizontal link,
    missing links counting as zero (the weights stay 1/4), times mask (the
    horizontal links' activity) and divided by sigma.

    Given the transposes of horizontal-link values and of the vertical
    links' mask, it returns the transpose of the same on the vertical links.
    The zero pad takes j's memory layout, so a transposed call reads and
    writes its arrays in memory order.
    """
    pad = np.zeros_like(j, shape=(j.shape[0], j.shape[1] + 2))
    pad[:, 1:-1] = j
    return (0.25 * (pad[:-1, 1:] + pad[1:, 1:] + pad[:-1, :-1] + pad[1:, :-1])
            * mask / sigma)


def gauge_rate(j: CurrentField, d: Domain, p: Params) -> LinkField:
    """d_t A = (jt2, -jt1) / sigma_H: the Hall law, the one Hall map R.

    jt is the current interpolated onto the transverse links.  Both halves
    are _transverse_mean, the vertical-link one on the transposed arrays
    and with divisor -sigma_H, so x . R(y) = -y . R(x), summed over the
    links, for link fields x and y that vanish on inactive links.
    """
    return LinkField(_transverse_mean(j.j2, d.h_active, p.sigma_h),
                     _transverse_mean(j.j1.T, d.v_active.T, -p.sigma_h).T)


def _gauge_update(a: LinkField, rate: LinkField, c: float) -> LinkField:
    """A + c * rate: the one expression of every explicit gauge update."""
    return LinkField(a.a1 + c * rate.a1, a.a2 + c * rate.a2)


def advance(s: SimState, work: Workspace) -> SimState:
    """One full coupled step of length params.dt, in the run's Workspace.

    A_half = a + (dt/2) s.rate, the midpoint Hall rate of the previous step;
    when s.rate is None, the rate of the current j(psi, a) instead, which is
    the only case that computes a current besides j_mid.  Either prediction
    is O(dt^2) accurate, which keeps the scheme second order.  The returned
    state carries rate(j_mid), the rate of its own gauge update.

    The phases of A_half (and of a, when the rate is computed) go into the
    Workspace's H through link_phases, which rewrites them only on the links
    where they moved, and j_mid reads its hops from there.  The predictor's
    rate stays alive for the step, as s.rate does; every other
    lattice-sized intermediate is dropped after its last read, and the
    midpoint state and the current's complex products are written into the
    Workspace's r and hq, which the solve leaves free.
    """
    d, p, dt = s.domain, s.params, s.params.dt
    rate = s.rate
    if rate is None:
        rate = gauge_rate(current_density(s.psi, link_phases(s.a, d, p, work),
                                          d, p, work.hq), d, p)
    h = link_phases(_gauge_update(s.a, rate, 0.5 * dt), d, p, work)
    psi_new = cayley_step(s.psi, h, d, p, dt, work)
    psi_mid = np.add(s.psi, psi_new, out=work.r)
    psi_mid *= 0.5
    j_mid = current_density(psi_mid, h, d, p, work.hq)
    rate_mid = gauge_rate(j_mid, d, p)
    del j_mid
    return SimState(d, p, psi_new, _gauge_update(s.a, rate_mid, dt),
                    s.t + dt, rate_mid)


# The init's V-cycle: weighted-Jacobi factor on the diagonal 4 scale, and
# sweeps before and after each coarse-grid correction.  A weight below 1
# keeps every sweep a contraction in the energy norm (the spectrum of D^-1 L
# lies in [0, 2]), which makes the cycle positive definite.
JACOBI_WEIGHT = 0.8
SWEEPS = 2


def _plaquette_laplacian(mask: np.ndarray, scale: float) -> Stencil:
    """The masked -laplace on a grid of cells: hops 1 between two counted
    cells, diagonal 4 on counted ones, zero rows and columns elsewhere."""
    return stencil_matrix(mask.shape, mask[:-1, :] & mask[1:, :],
                          mask[:, :-1] & mask[:, 1:], 4.0 * mask, scale)


def _v_cycle(lap: Stencil, mask: np.ndarray, scale: float):
    """Closure applying one symmetric multigrid V-cycle B ~ L^-1, where
    lap = L is the _plaquette_laplacian of mask and scale, to a grid array
    that vanishes off the counted cells; so does the result.

    Coarse cell i of a side sits on fine cell 2i+1 of 2k+1 (an even side
    counts as padded with one uncounted cell, so a side of m cells has
    m // 2 coarse ones); the mask is injected there and the scale divided
    by 4.  A grid with a side of 3 or less is the coarsest.
    Each grid smooths with SWEEPS weighted-Jacobi sweeps before and after
    the correction from the next grid: the residual goes down by full
    weighting R = P^T / 4, the coarse cycle's result comes back by bilinear
    prolongation P, and both are masked.  The coarsest grid only smooths.
    The same smoother before and after and R proportional to P^T make B
    symmetric, and the weight makes it positive definite on every mask, so
    conjugate gradients may use it (Tatebe 1993).
    """
    weight = JACOBI_WEIGHT / (4.0 * scale)
    m, n = mask.shape
    k, l = m // 2, n // 2
    coarse = None
    if min(m, n) > 3:
        cmask, cscale = mask[1::2, 1::2], scale / 4.0
        coarse = _v_cycle(_plaquette_laplacian(cmask, cscale), cmask, cscale)
        weight_r = 0.25 * cmask                 # R = P^T / 4, masked

    def restrict(r):
        f = np.zeros((2 * k + 1, 2 * l + 1))
        f[:m, :n] = r
        g = f[1::2] + 0.5 * (f[:-1:2] + f[2::2])
        return (g[:, 1::2] + 0.5 * (g[:, :-1:2] + g[:, 2::2])) * weight_r

    def prolong(e):
        c = np.pad(e, 1)
        g = np.empty((2 * k + 1, l + 2))
        g[1::2], g[::2] = c[1:-1], 0.5 * (c[:-1] + c[1:])
        f = np.empty((2 * k + 1, 2 * l + 1))
        f[:, 1::2], f[:, ::2] = g[:, 1:-1], 0.5 * (g[:, :-1] + g[:, 1:])
        return f[:m, :n] * mask

    def residual(b, x, out):
        return np.subtract(b, lap.apply(x, out), out=out)

    def apply(b):
        x = weight * b                              # the first sweep from 0
        t = np.empty_like(b)
        for sweep in range(1, 2 * SWEEPS):
            if sweep == SWEEPS and coarse is not None:
                x += prolong(coarse(restrict(residual(b, x, t))))
            residual(b, x, t)
            t *= weight
            x += t
        return x
    return apply


def initialize_consistent(d: Domain, psi0: np.ndarray, p: Params) -> SimState:
    """Build a state whose potential satisfies the Gauss constraint.

    Solves a discrete Poisson problem for a plaquette stream function chi
    with A1 = -d2 chi, A2 = +d1 chi, so that curl A = laplace chi equals the
    constraint target e <|psi0|^2>_plaquette / sigma_H on every counted
    plaquette (chi = 0 on uncounted dual sites).

    The operator is the masked -laplace on the whole (nx-1) x (ny-1)
    plaquette grid, assembled by fields.stencil_matrix: hops 1 between two
    counted plaquettes, diagonal 4 on counted ones, scale 1/dx^2.  It is the
    Dirichlet Laplacian L of the grid restricted to the counted plaquettes,
    and zero off them.  The SPD system -laplace chi = -target is solved by
    conjugate gradients on grid arrays that vanish off the counted
    plaquettes, preconditioned with one V-cycle of _v_cycle, which is
    symmetric and positive definite on every mask (Brandt 1977; Tatebe
    1993); CG from zero reaches the tolerance in about 10-16 iterations on
    grids from 32^2 to 512^2, hole-free, with holes or as an annulus.
    Every iterate, the zero start and the MAX_ITERATIONS-th included, is
    accepted once its recurred relative residual is at most 1e-13.  The
    inactive links of the result hold +0.0.  The
    acceptance test of the result is the relative Gauss residual of the
    returned state, at most 1e-10.  Raises SolverError on a non-finite
    density, when CG meets a non-finite value or does not converge (naming
    the true relative residual), and when that test fails.
    """
    rho_p = density_to_plaquettes(charge_density(psi0, d, p), d)
    target = rho_p / p.sigma_h
    if not np.all(np.isfinite(target)):
        raise SolverError("consistent initialization: non-finite density")
    if not np.any(target):
        return SimState(d, p, psi0.copy(), LinkField.zeros(d), 0.0)

    mask = d.plaq_active
    scale = 1.0 / d.dx ** 2
    neg_lap = _plaquette_laplacian(mask, scale)
    precondition = _v_cycle(neg_lap, mask, scale)

    b = -target
    bnorm = np.linalg.norm(b)
    chi, r = np.zeros_like(b), b.copy()
    tmp = np.empty_like(r)
    direction = rz = None
    it = 0
    while True:
        rel = np.linalg.norm(r) / bnorm
        if rel <= 1e-13:
            break
        if it >= MAX_ITERATIONS or not np.isfinite(rel):
            res = np.linalg.norm(b - neg_lap.apply(chi)) / bnorm
            raise SolverError(
                f"consistent initialization: Poisson CG solve did not converge: "
                f"relative residual {res:.3e} after {it} iterations")
        z = precondition(r)
        rz_new = np.vdot(r, z)
        if direction is None:
            direction = z
        else:
            direction *= rz_new / rz
            direction += z
        rz = rz_new
        q = neg_lap.apply(direction)
        step = rz / np.vdot(direction, q)
        chi += np.multiply(direction, step, out=tmp)
        r -= np.multiply(q, step, out=tmp)
        it += 1

    # chi padded with zeros on the virtual dual sites outside counted plaquettes
    pad = np.zeros((d.nx + 1, d.ny + 1))
    np.copyto(pad[1:-1, 1:-1], chi, where=mask)
    # a1[x, y] = -(chi(plaq above) - chi(plaq below))/dx; the product with a
    # False mask keeps the sign of a zero, and adding +0 makes it +0
    a1 = -(pad[1:-1, 1:] - pad[1:-1, :-1]) / d.dx * d.h_active + 0.0
    # a2[x, y] = +(chi(plaq right) - chi(plaq left))/dx
    a2 = (pad[1:, 1:-1] - pad[:-1, 1:-1]) / d.dx * d.v_active + 0.0
    state = SimState(d, p, psi0.copy(), LinkField(a1, a2), 0.0)

    from .diagnostics import gauss_residual
    _, rel = gauss_residual(state)
    if rel > 1e-10:
        raise SolverError(
            f"consistent initialization failed: relative Gauss residual {rel:.3e}")
    return state
