import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hallsim import (CurrentField, LinkField, Params, SimState, Workspace,
                     advance, apply_gauge, band_limited, build_rectangle,
                     cayley_step, default_dt, dense_hamiltonian, gauge_rate,
                     gaussian_packet, initialize_consistent, plaquette_curl,
                     uniform_state)
from hallsim import (DomainError, build_corbino, density_to_plaquettes,
                     dynamics, link_divergence, site_gradient)
from hallsim.diagnostics import gauss_residual, record_state
from hallsim.dynamics import CAYLEY_TOL, make_hamiltonian
from hallsim.fields import (Stencil, current_density, link_phases,
                            stencil_matrix)


def norm(s):
    """The norm column of the state's diagnostics row."""
    return record_state(s).norm


def test_hamiltonian_zero_potential_constant_psi_interior(params):
    # on sites with all four neighbors active the stencil annihilates constants
    d = build_rectangle(8, 8, 1.0, [])
    psi = np.where(d.active, 1.0 + 0j, 0.0)
    h = make_hamiltonian(link_phases(LinkField.zeros(d), d, params), d,
                         params)(psi)
    interior = d.active & ~d.boundary_mask
    assert np.abs(h[interior]).max() == 0.0


def test_hamiltonian_delta_stencil(params):
    d = build_rectangle(9, 9, 1.0, [])
    psi = np.zeros((d.nx, d.ny), dtype=complex)
    psi[4, 4] = 1.0
    h = make_hamiltonian(link_phases(LinkField.zeros(d), d, params), d,
                         params)(psi)
    pref = params.hbar ** 2 / (2 * params.mu * d.dx ** 2)
    assert h[4, 4] == pytest.approx(4 * pref)
    for x, y in ((3, 4), (5, 4), (4, 3), (4, 5)):
        assert h[x, y] == pytest.approx(-pref)
    mask = np.ones((9, 9), dtype=bool)
    mask[3:6, 4] = False
    mask[4, 3:6] = False
    assert np.abs(h[mask]).max() == 0.0


def test_hamiltonian_gauge_covariance(rect12, params, rng):
    psi = np.where(rect12.active,
                   rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)),
                   0.0)
    a = LinkField(rng.normal(size=(11, 12)) * rect12.h_active,
                  rng.normal(size=(12, 11)) * rect12.v_active)
    lam = rng.normal(size=(12, 12))
    lam[rect12.boundary_mask] = 0.0
    a2, psi2 = apply_gauge(a, psi, lam, rect12, params)
    h2 = make_hamiltonian(link_phases(a2, rect12, params), rect12, params)
    h = make_hamiltonian(link_phases(a, rect12, params), rect12, params)
    lhs = h2(psi2)
    rhs = np.where(rect12.active,
                   np.exp(1j * params.e * lam / params.hbar) * h(psi), 0.0)
    scale = np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() / scale < 1e-12


def test_matter_step_eigenstate_phase():
    # dense eigensolve on 4x4 is the oracle: a Cayley step multiplies an
    # eigenstate by (1 - ix)/(1 + ix) with x = E dt/2hbar, whose phase matches
    # -E dt/hbar to O(dt^3)
    d = build_rectangle(4, 4, 1.0, [])
    p = Params(dt=0.05)
    H, sites = dense_hamiltonian((d.h_active, d.v_active), d, p)
    w, V = np.linalg.eigh(H)
    E = w[5]
    u = np.zeros((d.nx, d.ny), dtype=complex)
    u[sites[:, 0], sites[:, 1]] = V[:, 5]
    out = cayley_step(u, (d.h_active, d.v_active), d, p, p.dt, Workspace(d))
    x = E * p.dt / (2 * p.hbar)
    cayley_factor = (1 - 1j * x) / (1 + 1j * x)
    assert np.abs(out - cayley_factor * u).max() < 1e-12
    theta = np.angle(np.vdot(u, out))
    assert abs(theta - (-E * p.dt / p.hbar)) <= abs(E * p.dt / p.hbar) ** 3 / 10


def test_matter_step_unitary(rect12, params, rng):
    psi = gaussian_packet(rect12, (5.5, 5.5), 1.5, (0.4, -0.2), norm=1.0)
    a = LinkField(rng.normal(size=(11, 12)) * rect12.h_active,
                  rng.normal(size=(12, 11)) * rect12.v_active)
    out = cayley_step(psi, link_phases(a, rect12, params), rect12, params,
                      params.dt, Workspace(rect12))
    n0 = np.vdot(psi, psi).real
    n1 = np.vdot(out, out).real
    assert abs(n1 - n0) / n0 < 1e-12


def test_matter_step_zero_stays_zero(rect12, params):
    out = cayley_step(np.zeros((12, 12), dtype=complex),
                      link_phases(LinkField.zeros(rect12), rect12, params),
                      rect12, params, params.dt, Workspace(rect12))
    assert np.all(out == 0.0)


def test_matter_step_time_reversal(rect12, params, rng):
    psi = np.where(rect12.active,
                   rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)),
                   0.0)
    a = LinkField(rng.normal(size=(11, 12)) * rect12.h_active,
                  rng.normal(size=(12, 11)) * rect12.v_active)
    phases, work = link_phases(a, rect12, params), Workspace(rect12)
    fwd = cayley_step(psi, phases, rect12, params, params.dt, work)
    back = cayley_step(fwd, phases, rect12, params, -params.dt, work)
    assert np.abs(back - psi).max() < 1e-12


def test_step_gauge_zero_current(rect12, params):
    j = CurrentField(np.zeros((11, 12)), np.zeros((12, 11)))
    rate = gauge_rate(j, rect12, params)
    assert not rate.a1.any() and not rate.a2.any()


def test_step_gauge_uniform_current():
    # uniform j1 = c with sigma_H = 1 gives dA2/dt = -c on interior links
    # and dA1/dt = 0
    d = build_rectangle(10, 10, 1.0, [])
    p = Params(sigma_h=1.0, dt=0.1)
    c = 0.8
    j = CurrentField(np.full((9, 10), c) * d.h_active, np.zeros((10, 9)))
    rate = gauge_rate(j, d, p)
    assert rate.a2[4:6, 4:6] == pytest.approx(-c, rel=1e-14)
    assert np.abs(rate.a1).max() == 0.0


def test_step_gauge_sign_flip():
    d = build_rectangle(10, 10, 1.0, [])
    j = CurrentField(np.ones((9, 10)) * d.h_active,
                     np.ones((10, 9)) * d.v_active)
    r_pos = gauge_rate(j, d, Params(sigma_h=2.0, dt=0.1))
    r_neg = gauge_rate(j, d, Params(sigma_h=-2.0, dt=0.1))
    assert np.abs(r_pos.a1 + r_neg.a1).max() == 0.0
    assert np.abs(r_pos.a2 + r_neg.a2).max() == 0.0


def test_sigma_zero_rejected():
    with pytest.raises(ValueError, match="sigma_h"):
        Params(sigma_h=0.0, dt=0.05)


def test_matter_step_solver_abort(rect12, rng, monkeypatch):
    from hallsim import SolverError
    monkeypatch.setattr(dynamics, "MAX_ITERATIONS", 0)
    p = Params(dt=0.05)
    psi = np.where(rect12.active,
                   rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)),
                   0.0)
    with pytest.raises(SolverError, match="did not converge"):
        cayley_step(psi, link_phases(LinkField.zeros(rect12), rect12, p),
                    rect12, p, p.dt, Workspace(rect12))


def test_matter_step_rejects_nan_state(rect12, params, rng):
    # a nan residual fails every `residual > tol` test, so without an explicit
    # finiteness check the nan state would pass through unreported
    from hallsim import SolverError
    psi = np.where(rect12.active,
                   rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)),
                   0.0)
    psi[5, 6] = np.nan
    with pytest.raises(SolverError, match="non-finite"):
        cayley_step(psi, link_phases(LinkField.zeros(rect12), rect12, params),
                    rect12, params, params.dt, Workspace(rect12))


def test_initialize_consistent_zero_psi(rect12, params):
    s = initialize_consistent(rect12, np.zeros((12, 12), dtype=complex),
                              params)
    assert np.all(s.a.a1 == 0.0) and np.all(s.a.a2 == 0.0)


def test_initialize_consistent_uniform_density():
    # uniform density rho0: every counted plaquette carries curl e rho0/sigma_H
    d = build_rectangle(16, 16, 1.0, [])
    p = Params(sigma_h=2.0, dt=0.05)
    psi0 = uniform_state(d, norm=float(d.n_active) * 0.3)  # rho0 = 0.3
    s = initialize_consistent(d, psi0, p)
    curl = plaquette_curl(s.a, d)
    expect = p.e * 0.3 / p.sigma_h
    assert curl[d.plaq_active] == pytest.approx(expect, rel=1e-10)


def test_initialize_consistent_rim_supported_pure_gauge_interior(corbino32, params):
    from hallsim import rim_pair_state
    psi0 = rim_pair_state(corbino32, params, norm=1.0)
    s = initialize_consistent(corbino32, psi0, params)
    _, rel = gauss_residual(s)
    assert rel <= 1e-10
    deep = corbino32.plaq_active.copy()
    # plaquettes whose four corners are all deeper than the support band
    dist = corbino32.boundary_distance
    far = dist > 4
    deep &= far[:-1, :-1] & far[1:, :-1] & far[:-1, 1:] & far[1:, 1:]
    if deep.any():
        curl = plaquette_curl(s.a, corbino32)
        pure = record_state(s).pure_gauge_max
        assert np.abs(curl[deep]).max() <= 1e-12 * pure


@pytest.mark.parametrize("n, holes, center, k, bound", [
    (16, [], (7.5, 7.5), (0.3, 0.1), 1e-10),
    # a packet on a centred hole: the largest gauss_rel over the run is
    # 3.4e-14 at CAYLEY_TOL = 1e-14 and 7.6e-11 at 1e-12, so this bound sits
    # more than a factor 10 from both and pins the tolerance
    (32, [(14, 14, 4, 4)], (15.5, 15.5), (0.2, 0.0), 1e-12),
], ids=["plain", "holed"])
def test_gauss_residual_preserved_along_run(n, holes, center, k, bound):
    d = build_rectangle(n, n, 1.0, holes)
    p = Params(sigma_h=1.0, dt=0.05)
    psi0 = gaussian_packet(d, center, 2.0, k, norm=1.0)
    s = initialize_consistent(d, psi0, p)
    work = Workspace(d)
    for _ in range(200):
        s = advance(s, work)
        _, rel = gauss_residual(s)
        assert rel < bound


def test_norm_conserved_along_run():
    d = build_rectangle(16, 16, 1.0, [])
    p = Params(sigma_h=1.0, dt=0.05)
    psi0 = gaussian_packet(d, (7.5, 7.5), 2.0, (0.3, 0.1), norm=1.0)
    s = initialize_consistent(d, psi0, p)
    n0 = norm(s)
    work = Workspace(d)
    for _ in range(200):
        s = advance(s, work)
    assert abs(norm(s) - n0) / n0 < 1e-12


def test_advance_static_for_zero_psi(rect12, params, rng):
    a = LinkField(rng.normal(size=(11, 12)) * rect12.h_active,
                  rng.normal(size=(12, 11)) * rect12.v_active)
    s = SimState(rect12, params, np.zeros((12, 12), dtype=complex), a, 0.0)
    out = advance(s, Workspace(rect12))
    assert np.array_equal(out.a.a1, a.a1)
    assert np.array_equal(out.a.a2, a.a2)
    assert np.all(out.psi == 0.0)


def assert_step_predicted_from(out, s, rate):
    """out is the coupled step from s written out, with A_half from `rate`."""
    d, p, dt = s.domain, s.params, s.params.dt
    a_half = LinkField(s.a.a1 + 0.5 * dt * rate.a1, s.a.a2 + 0.5 * dt * rate.a2)
    phases = link_phases(a_half, d, p)
    psi = cayley_step(s.psi, phases, d, p, dt, Workspace(d))
    j_mid = current_density(0.5 * (s.psi + psi), phases, d, p)
    rate_mid = gauge_rate(j_mid, d, p)
    a_new = LinkField(s.a.a1 + dt * rate_mid.a1, s.a.a2 + dt * rate_mid.a2)
    assert np.array_equal(out.psi, psi)
    for got, want in ((out.a, a_new), (out.rate, rate_mid)):
        assert np.array_equal(got.a1, want.a1)
        assert np.array_equal(got.a2, want.a2)


def test_advance_predicts_from_fresh_current_then_stored_rate(rect12, params, rng):
    # a state without a stored rate (the first step of every run) predicts
    # from its own current; the state advance returns predicts from its rate
    psi = np.where(rect12.active, rng.normal(size=(12, 12))
                   + 1j * rng.normal(size=(12, 12)), 0.0)
    a = LinkField(rng.normal(size=(11, 12)) * rect12.h_active,
                  rng.normal(size=(12, 11)) * rect12.v_active)
    s = SimState(rect12, params, psi, a, 0.0)
    assert s.rate is None
    work = Workspace(rect12)
    first = advance(s, work)
    j0 = current_density(psi, link_phases(a, rect12, params), rect12, params)
    assert_step_predicted_from(first, s, gauge_rate(j0, rect12, params))
    assert_step_predicted_from(advance(first, work), first, first.rate)


def _packet_psi_at(dt, total_time=2.0):
    """psi at total_time of the dt gate's set-up in scripts/convergence.py
    (32x32 rectangle)."""
    d = build_rectangle(32, 32, 1.0, [])
    p = Params(sigma_h=1.0, dt=dt)
    psi = gaussian_packet(d, (15.5, 15.5), 3.0, (0.12, 0.0), norm=1.0)
    s = initialize_consistent(d, band_limited(psi, d, p, ecut=0.05, norm=1.0), p)
    work = Workspace(d)
    for _ in range(int(round(total_time / dt))):
        s = advance(s, work)
    return s.psi


def test_advance_psi_second_order_in_dt():
    # the predicted A_half keeps the scheme second order: the error of psi
    # against a dt/32 reference falls by about 4 per halving of dt
    ref = _packet_psi_at(0.1 / 32)
    err = [np.abs(_packet_psi_at(dt) - ref).max() for dt in (0.1, 0.05, 0.025)]
    for coarse, fine in zip(err, err[1:]):
        assert 3.6 <= coarse / fine <= 4.4, err


def test_energy_drift_second_order_in_dt():
    # E = Re<psi|H(A)|psi> dx^2 is an invariant of the semi-discrete flow
    # (the Hall law does no work), so the integrator's largest drift of E
    # over a run falls by about 4 per halving of dt; unfiltered packet
    # next to a hole
    from hallsim.diagnostics import energy
    d = build_rectangle(48, 48, 1.0, [(20, 20, 8, 8)])
    psi = gaussian_packet(d, (10.0, 24.0), 3.0, (0.4, 0.2), norm=1.0)
    drift = []
    for dt in (0.05, 0.025, 0.0125):
        p = Params(sigma_h=1.0, dt=dt)
        s = initialize_consistent(d, psi, p)
        work = Workspace(d)
        e0 = energy(s.psi, s.a, d, p)
        worst = 0.0
        for _ in range(int(round(10.0 / dt))):
            s = advance(s, work)
            worst = max(worst, abs(energy(s.psi, s.a, d, p) - e0))
        drift.append(worst)
    for coarse, fine in zip(drift, drift[1:]):
        assert 3.6 <= coarse / fine <= 4.4, drift


@pytest.mark.parametrize("sigma_h, dx, n, dt", [(1.0, 1.0, 16, 0.05),
                                                 (-2.5, 0.5, 31, None)],
                         ids=["sigma1-dx1", "sigma-2.5-dx0.5"])
def test_ohm_law_internal_consistency(sigma_h, dx, n, dt):
    # the same 15 x 15 box either way; dt None is the stability default
    from hallsim.diagnostics import ohm_residual
    d = build_rectangle(n, n, dx, [])
    p = Params(sigma_h=sigma_h, dt=dt or default_dt(d))
    psi0 = gaussian_packet(d, (7.5, 7.5), 2.5, (0.3, 0.0), norm=1.0)
    s = initialize_consistent(d, psi0, p)
    states = [s]
    work = Workspace(d)
    for _ in range(40):
        s = advance(s, work)
        states.append(s)
    worst = max(ohm_residual(states[i - 1], states[i], states[i + 1])
                for i in range(1, len(states) - 1))
    assert worst < 5e-3


@st.composite
def masked_domains(draw):
    """Rectangles with 0-2 holes and Corbino annuli, at most 16 x 16 sites."""
    try:
        if draw(st.booleans()):
            n = draw(st.integers(12, 16))
            r_outer = draw(st.floats(n / 2 - 1.5, n / 2))
            r_inner = draw(st.floats(1.0, r_outer - 3.5))
            return build_corbino(n, 1.0, r_inner, r_outer)
        nx, ny = draw(st.integers(6, 16)), draw(st.integers(6, 16))
        holes = []
        for _ in range(draw(st.integers(0, 2))):
            w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            holes.append((draw(st.integers(1, nx - 1 - w)),
                          draw(st.integers(1, ny - 1 - h)), w, h))
        return build_rectangle(nx, ny, 1.0, holes)
    except DomainError:         # holes too close, annulus too thin
        assume(False)


def random_fields(d, seed):
    rng = np.random.default_rng(seed)
    psi = np.where(d.active, rng.normal(size=(d.nx, d.ny))
                   + 1j * rng.normal(size=(d.nx, d.ny)), 0.0)
    a = LinkField(rng.normal(size=(d.nx - 1, d.ny)) * d.h_active,
                  rng.normal(size=(d.nx, d.ny - 1)) * d.v_active)
    return psi, a


@given(d=masked_domains(), seed=st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_dense_hamiltonian_matches_apply(d, seed):
    # reference: H built column by column from the apply closure
    p = Params(dt=0.05)
    _, a = random_fields(d, seed)
    phases = link_phases(a, d, p)
    H, sites = dense_hamiltonian(phases, d, p)
    apply_h = make_hamiltonian(phases, d, p)
    basis = np.zeros((d.nx, d.ny), dtype=np.complex128)
    for k, (ix, iy) in enumerate(sites):
        basis[ix, iy] = 1.0
        col = apply_h(basis)
        basis[ix, iy] = 0.0
        assert np.array_equal(H[:, k], col[sites[:, 0], sites[:, 1]])
        assert not col[~d.active].any()
    assert np.array_equal(H, H.conj().T)


@given(d=masked_domains(), seed=st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_cayley_step_continuity_with_own_phases(d, seed):
    # e (|psi'|^2 - |psi|^2)/dt + div j_mid = 0 per site, with j_mid the
    # current of (psi + psi')/2 on the phases that built the step's H: the
    # phases themselves, or H's hops when link_phases writes them into a
    # Workspace, also at a kinetic scale that is no power of two (mu = 1.3),
    # where the current of the hops is that of the phases to roundoff
    psi, a = random_fields(d, seed)
    for p in (Params(dt=0.05), Params(dt=0.05, mu=1.3)):
        work = Workspace(d)
        for cached in (False, True):
            phases = link_phases(a, d, p, work if cached else None)
            new = cayley_step(psi, phases, d, p, p.dt, work)
            j_mid = current_density(0.5 * (psi + new), phases, d, p)
            res = (p.e * (np.abs(new) ** 2 - np.abs(psi) ** 2) / p.dt
                   + link_divergence(j_mid.j1, j_mid.j2, d))
            scale = p.e * (np.abs(psi) ** 2).max() / p.dt
            assert np.abs(res).max() <= 1e-12 * scale


@given(d=masked_domains(), seed=st.integers(0, 2 ** 31),
       sigma_h=st.floats(0.05, 20.0) | st.floats(-20.0, -0.05))
@settings(max_examples=40, deadline=None)
def test_hall_law_does_no_work(d, seed, sigma_h):
    # sum over links of j . dA/dt vanishes: gauge_rate forms its two halves
    # with one function, the second on the transposed arrays and with the
    # opposite sign, so the matter energy Re<psi|H(A)|psi> is an invariant
    # of the semi-discrete flow
    p = Params(sigma_h=sigma_h, dt=0.05)
    psi, a = random_fields(d, seed)
    j = current_density(psi, link_phases(a, d, p), d, p)
    rate = gauge_rate(j, d, p)
    terms = np.concatenate([(j.j1 * rate.a1).ravel(), (j.j2 * rate.a2).ravel()])
    assert abs(terms.sum()) <= 1e-13 * np.abs(terms).sum()


@given(d=masked_domains(), seed=st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_hall_map_antisymmetric(d, seed):
    # x . R(y) = -y . R(x) exactly for R = gauge_rate at sigma_H = 1: with
    # small integer link currents every product and sum is exact
    p = Params(sigma_h=1.0)
    rng = np.random.default_rng(seed)
    x, y = (CurrentField(*(np.where(m, rng.integers(-8, 9, m.shape), 0.0)
                           for m in (d.h_active, d.v_active)))
            for _ in range(2))

    def pair(u, v):
        r = gauge_rate(v, d, p)
        return (u.j1 * r.a1).sum() + (u.j2 * r.a2).sum()

    assert pair(x, y) == -pair(y, x)


def curl_adjoint(lam, d):
    """curl^T lam: the link field x with sum(curl(a) lam) = a . x."""
    lm = np.where(d.plaq_active, lam, 0.0) / d.dx
    x1, x2 = np.zeros((d.nx - 1, d.ny)), np.zeros((d.nx, d.ny - 1))
    x1[:, :-1] += lm
    x1[:, 1:] -= lm
    x2[1:, :] += lm
    x2[:-1, :] -= lm
    return x1, x2


def map_adjoint(lam, d):
    """map^T lam: the site field r with sum(map(rho) lam) = rho . r, map
    the four-corner mean density_to_plaquettes."""
    lm = 0.25 * np.where(d.plaq_active, lam, 0.0)
    r = np.zeros((d.nx, d.ny))
    r[:-1, :-1] += lm
    r[1:, :-1] += lm
    r[:-1, 1:] += lm
    r[1:, 1:] += lm
    return r


@given(d=masked_domains(), seed=st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_gauss_law_generates_gauge_transformations(d, seed):
    # R curl^T lam = -grad(map^T lam) / sigma_H for every plaquette field
    # lam, R = gauge_rate: the Gauss functional generates, through the Hall
    # dynamics' Poisson structure, the gauge transformation with gauge
    # function map^T lam.  Exact for integer lam at sigma_H = 1 and dx = 1,
    # where every sum of quarters is exact; to roundoff at dx = 1/2
    rng = np.random.default_rng(seed)
    shape = d.plaq_active.shape
    lam = rng.integers(-8, 9, shape).astype(float)
    a = LinkField(*(np.where(m, rng.integers(-8, 9, m.shape), 0.0)
                    for m in (d.h_active, d.v_active)))
    rho = np.where(d.active, rng.integers(-8, 9, d.active.shape), 0.0)
    x1, x2 = curl_adjoint(lam, d)
    assert ((plaquette_curl(a, d) * lam).sum()
            == (a.a1 * x1).sum() + (a.a2 * x2).sum())
    assert ((density_to_plaquettes(rho, d) * lam).sum()
            == (rho * map_adjoint(lam, d)).sum())

    for dom, sigma_h, lam in ((d, 1.0, lam),
                              (dataclasses.replace(d, dx=0.5), -1.7,
                               rng.normal(size=shape))):
        rate = gauge_rate(CurrentField(*curl_adjoint(lam, dom)), dom,
                          Params(sigma_h=sigma_h))
        g1, g2 = site_gradient(map_adjoint(lam, dom), dom)
        lhs = np.concatenate([rate.a1.ravel(), rate.a2.ravel()])
        rhs = -np.concatenate([g1.ravel(), g2.ravel()]) / sigma_h
        if sigma_h == 1.0:
            assert np.array_equal(lhs, rhs)
        else:
            scale = np.abs(rhs).max(initial=1.0)
            assert np.abs(lhs - rhs).max() <= 1e-15 * scale


def cayley_residual(psi, new, phases, d, p, dt):
    """|(1 + i a H) new - (1 - i a H) psi| and |(1 - i a H) psi|, a = dt/2hbar."""
    apply_h = make_hamiltonian(phases, d, p)
    alpha = dt / (2.0 * p.hbar)
    rhs = psi - 1j * alpha * apply_h(psi)
    res = new + 1j * alpha * apply_h(new) - rhs
    return np.linalg.norm(res), np.linalg.norm(rhs)


@given(d=masked_domains(), seed=st.integers(0, 2 ** 31),
       dt=st.floats(0.01, 0.5))
@settings(max_examples=40, deadline=None)
def test_cayley_step_residual_within_tolerance(d, seed, dt):
    # the residual recomputed from the returned state, not the solver's own
    p = Params(dt=0.05)
    psi, a = random_fields(d, seed)
    phases = link_phases(a, d, p)
    new = cayley_step(psi, phases, d, p, dt, Workspace(d))
    res, rhs = cayley_residual(psi, new, phases, d, p, dt)
    assert res <= CAYLEY_TOL * rhs
    assert not new[~d.active].any()


@given(d=masked_domains(), seed=st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_cayley_step_time_reversal_random_domains(d, seed):
    # C(-dt) C(dt) = 1 exactly, so only the two solves' errors remain
    p = Params(dt=0.05)
    psi, a = random_fields(d, seed)
    phases, work = link_phases(a, d, p), Workspace(d)
    fwd = cayley_step(psi, phases, d, p, p.dt, work)
    back = cayley_step(fwd, phases, d, p, -p.dt, work)
    assert np.abs(back - psi).max() <= 1e-12 * np.abs(psi).max()


@given(d=masked_domains(), seed=st.integers(0, 2 ** 31))
@settings(max_examples=20, deadline=None)
def test_advance_keeps_gauss_and_norm_random_domains(d, seed):
    # Gauss-consistent start, then a random pure-gauge part on every link:
    # the potential is random and the plaquette curl is unchanged
    from hallsim import site_gradient
    p = Params(dt=0.05)
    psi, _ = random_fields(d, seed)
    s = initialize_consistent(d, psi, p)
    lam = np.random.default_rng(seed + 1).normal(size=(d.nx, d.ny))
    g1, g2 = site_gradient(lam, d)
    s = SimState(d, p, s.psi, LinkField(s.a.a1 + g1, s.a.a2 + g2))
    n0 = norm(s)
    work = Workspace(d)
    for _ in range(5):
        s = advance(s, work)
        assert gauss_residual(s)[1] <= 1e-10
    assert abs(norm(s) - n0) / n0 <= 1e-12


@given(d=masked_domains(), seed=st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_advance_commutes_with_gauge_random_domains(d, seed):
    # a boundary-vanishing gauge transform before or after a few coupled
    # steps gives the same psi and the same links
    p = Params(dt=0.05)
    psi, a = random_fields(d, seed)
    lam = np.random.default_rng(seed + 1).normal(size=(d.nx, d.ny))
    lam[d.boundary_mask] = 0.0
    s = SimState(d, p, psi, a)
    a_g, psi_g = apply_gauge(a, psi, lam, d, p)
    s_g = SimState(d, p, psi_g, a_g)
    work = Workspace(d)
    for _ in range(3):
        s, s_g = advance(s, work), advance(s_g, work)
    a_want, psi_want = apply_gauge(s.a, s.psi, lam, d, p)
    for got, want in ((s_g.psi, psi_want), (s_g.a.a1, a_want.a1),
                      (s_g.a.a2, a_want.a2)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_cayley_step_one_h_apply_per_iteration(rect12, rng, monkeypatch):
    # k iterations may use k applies and one set-up apply, no more: a solve
    # on the squared operator 1 + alpha^2 H^2 would need two per iteration
    from hallsim import SolverError
    calls = []
    make = dynamics.make_hamiltonian

    def counting(*args):
        apply_h = make(*args)

        def counted(v):
            calls.append(1)
            return apply_h(v)
        return counted

    monkeypatch.setattr(dynamics, "make_hamiltonian", counting)
    psi = np.where(rect12.active,
                   rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)),
                   0.0)
    a = LinkField(rng.normal(size=(11, 12)) * rect12.h_active,
                  rng.normal(size=(12, 11)) * rect12.v_active)
    phases, work = link_phases(a, rect12, Params()), Workspace(rect12)
    for maxiter in range(1, 100):
        calls.clear()
        monkeypatch.setattr(dynamics, "MAX_ITERATIONS", maxiter)
        try:
            cayley_step(psi, phases, rect12, Params(), 0.05, work)
        except SolverError:
            assert len(calls) <= maxiter + 1
            continue
        break
    # maxiter is now the iteration count of the converged solve
    assert maxiter > 3
    assert len(calls) <= maxiter + 1


def spsolve_potential(d, psi, p):
    """Reference potential of the consistent init: a direct sparse solve of
    the masked plaquette Poisson problem, assembled plaquette by plaquette."""
    from scipy.sparse import lil_matrix
    from scipy.sparse.linalg import spsolve
    rho = p.e * np.where(d.active, np.abs(psi) ** 2, 0.0)
    target = 0.25 * (rho[:-1, :-1] + rho[1:, :-1] + rho[:-1, 1:] + rho[1:, 1:]) / p.sigma_h
    cells = [tuple(c) for c in np.argwhere(d.plaq_active)]
    index = {c: k for k, c in enumerate(cells)}
    lap = lil_matrix((len(cells), len(cells)))
    for k, (x, y) in enumerate(cells):
        lap[k, k] = -4.0 / d.dx ** 2
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nb in index:
                lap[k, index[nb]] = 1.0 / d.dx ** 2
    chi = np.zeros((d.nx + 1, d.ny + 1))       # zero on the uncounted dual sites
    chi[1:-1, 1:-1][d.plaq_active] = spsolve(
        lap.tocsc(), np.array([target[c] for c in cells]))
    return LinkField(-(chi[1:-1, 1:] - chi[1:-1, :-1]) / d.dx * d.h_active,
                     (chi[1:, 1:-1] - chi[:-1, 1:-1]) / d.dx * d.v_active)


def check_consistent_init(d, sigma_h, seed):
    p = Params(sigma_h=sigma_h, dt=0.05)
    psi, _ = random_fields(d, seed)
    s = initialize_consistent(d, psi, p)
    assert gauss_residual(s)[1] <= 1e-10
    # +0.0 on every inactive link, so records off the domain rebuild exactly
    for x, mask in ((s.a.a1, d.h_active), (s.a.a2, d.v_active)):
        assert not x[~mask].any() and not np.signbit(x[~mask]).any()
    want = spsolve_potential(d, psi, p)
    scale = max(np.abs(want.a1).max(), np.abs(want.a2).max())
    assert np.abs(s.a.a1 - want.a1).max() <= 1e-9 * scale
    assert np.abs(s.a.a2 - want.a2).max() <= 1e-9 * scale


@given(d=masked_domains(), sigma_h=st.sampled_from([0.5, 1.0, 3.0]),
       seed=st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_initialize_consistent_matches_direct_solve_random_domains(d, sigma_h, seed):
    check_consistent_init(d, sigma_h, seed)


@pytest.mark.parametrize("dx", [0.5, 1.7])
@pytest.mark.parametrize("shape", ["holed", "annulus", "plain"])
def test_initialize_consistent_matches_direct_solve_scaled_dx(dx, shape):
    # the plaquette Laplacian carries 1/dx^2; a wrong scale moves the
    # potential away from the direct solve at dx != 1
    if shape == "holed":
        d = build_rectangle(15, 13, dx, [(3, 3, 2, 3), (9, 7, 3, 2)])
    elif shape == "annulus":
        d = build_corbino(16, dx, 2.0 * dx, 7.6 * dx)
    else:
        d = build_rectangle(15, 13, dx, [])
    check_consistent_init(d, 1.0, 11)


def test_initialize_consistent_solver_abort(monkeypatch):
    from hallsim import SolverError
    monkeypatch.setattr(dynamics, "MAX_ITERATIONS", 1)
    d = build_rectangle(32, 32, 1.0, [(12, 14, 6, 5)])
    psi = gaussian_packet(d, (8.0, 9.0), 3.0, (0.2, 0.0), norm=1.0)
    with pytest.raises(SolverError,
                       match=r"consistent initialization.*relative residual"):
        initialize_consistent(d, psi, Params())


def test_initialize_consistent_converged_on_last_iteration(monkeypatch):
    # CG converges in exactly 12 iterations here; every iterate is tested,
    # the last allowed one included, so a cap of 12 succeeds and 11 raises
    from hallsim import SolverError
    d = build_rectangle(32, 32, 1.0, [(10, 12, 6, 5)])
    psi = gaussian_packet(d, (12.0, 9.0), 3.0, (0.0, 0.0))
    ref = initialize_consistent(d, psi, Params())
    monkeypatch.setattr(dynamics, "MAX_ITERATIONS", 11)
    with pytest.raises(SolverError, match="relative residual"):
        initialize_consistent(d, psi, Params())
    monkeypatch.setattr(dynamics, "MAX_ITERATIONS", 12)
    s = initialize_consistent(d, psi, Params())
    assert np.array_equal(s.a.a1, ref.a.a1) and np.array_equal(s.a.a2, ref.a.a2)
    assert gauss_residual(s)[1] <= 1e-10


@pytest.mark.parametrize("shape", [(32, 32), (100, 100), (200, 120),
                                   (256, 256), "corbino", "plain-32",
                                   "plain-256"])
def test_initialize_consistent_iterations_independent_of_grid(shape, monkeypatch):
    # the multigrid-preconditioned CG from zero needs about the same number
    # of iterations at every size, with a hole of 1/8 of the side, as a
    # Corbino annulus and on a hole-free rectangle (10-16 here)
    if shape == "corbino":
        d = build_corbino(128, 1.0, 20.0, 60.0)
        psi = gaussian_packet(d, (64.0, 110.0), 4.0, (0.3, 0.0))
    else:
        if isinstance(shape, str):              # "plain-n": n x n, no hole
            nx = ny = int(shape[6:])
            holes = []
        else:
            nx, ny = shape
            holes = [(7 * nx // 16, 7 * ny // 16, nx // 8, ny // 8)]
        d = build_rectangle(nx, ny, 1.0, holes)
        psi = gaussian_packet(d, (0.3 * nx, 0.4 * ny), nx / 32, (0.3, 0.0))
    monkeypatch.setattr(dynamics, "MAX_ITERATIONS", 16)
    s = initialize_consistent(d, psi, Params())
    assert gauss_residual(s)[1] <= 1e-10


def test_initialize_consistent_rejects_nan_state():
    from hallsim import SolverError
    d = build_rectangle(32, 32, 1.0, [(12, 14, 6, 5)])
    psi = gaussian_packet(d, (8.0, 9.0), 3.0, (0.2, 0.0), norm=1.0)
    psi[20, 21] = np.nan
    with pytest.raises(SolverError, match="consistent initialization: non-finite"):
        initialize_consistent(d, psi, Params())


@given(d=masked_domains(), dx=st.sampled_from([1.0, 0.3]),
       seed=st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_init_v_cycle_symmetric_positive_definite(d, dx, seed):
    # the preconditioner of the init's CG: <x, B y> = <B x, y> and
    # <x, B x> > 0 for fields x, y on the counted plaquettes
    from hallsim.dynamics import _plaquette_laplacian, _v_cycle
    mask, scale = d.plaq_active, 1.0 / dx ** 2
    assume(mask.any())
    v_cycle = _v_cycle(_plaquette_laplacian(mask, scale), mask, scale)
    rng = np.random.default_rng(seed)
    x, y = (rng.normal(size=mask.shape) * mask for _ in range(2))
    bx, by = v_cycle(x), v_cycle(y)
    assert not bx[~mask].any()
    assert abs(np.vdot(x, by) - np.vdot(bx, y)) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(by)
    assert np.vdot(x, bx) > 0


def assert_same_state(s, t):
    for x, y in ((s.psi, t.psi), (s.a.a1, t.a.a1), (s.a.a2, t.a.a2),
                 (s.rate.a1, t.rate.a1), (s.rate.a2, t.rate.a2)):
        assert x.tobytes() == y.tobytes()
    assert s.t == t.t


@given(d=masked_domains(), seed=st.integers(0, 2 ** 31), k=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_advance_with_one_workspace_bit_identical(d, seed, k):
    # k steps reusing one workspace, a flux threaded through the first hole
    # (which drops the predictor), k more steps: every state is that of
    # steps that each build a fresh workspace, bit for bit
    from hallsim import insert_flux
    p = Params(dt=0.05)
    psi, a = random_fields(d, seed)
    work = Workspace(d)
    s = fresh = SimState(d, p, psi, a)
    for i in range(2 * k):
        if i == k:
            a = s.a
            if d.g:
                try:
                    a = insert_flux(s.a, d, 0, 0.4)
                except DomainError:     # no cut from this hole to the frame
                    pass
            s = fresh = SimState(d, p, s.psi, a, s.t)
        s, fresh = advance(s, work), advance(fresh, Workspace(d))
        assert_same_state(s, fresh)


@given(d=masked_domains(), seed=st.integers(0, 2 ** 31))
@settings(max_examples=25, deadline=None)
def test_advance_in_a_nan_filled_workspace_bit_identical(d, seed):
    # every entry of H that fill writes and every vector, the scratch t and
    # hq included, is NaN on entry: a step without and a step with the
    # predictor's rate give the bits of a fresh workspace.  So does a
    # workspace warmed by a step of another state whose buffers other than
    # the caches (H, theta) are then NaN
    p = Params(dt=0.05)
    psi, a = random_fields(d, seed)
    other = SimState(d, p, *random_fields(d, seed + 1))
    s = SimState(d, p, psi, a)
    for _ in range(2):
        dirty, warm = Workspace(d), Workspace(d)
        dirty.h.fill(np.nan, np.nan, np.nan, 1.0)
        advance(other, warm)
        for buf in (dirty.hq, dirty.r, dirty.q, dirty.t,
                    warm.hq, warm.r, warm.q, warm.t):
            buf.fill(np.nan)
        fresh = advance(s, Workspace(d))
        assert_same_state(advance(s, warm), fresh)
        s = advance(s, dirty)
        assert_same_state(s, fresh)


def warm_ups(d, p, psi, a, seed):
    """Ways to leave a Workspace that the next step must not notice: a step
    of another state; a step of the same state at another kinetic scale (mu,
    hbar) or dx; one at another charge, from a stored zero rate, so that its
    A_half is a and only theta tells the potentials apart; and a step
    followed by a direct cayley_step with the phases of another potential."""
    psi2, a2 = garbage_fields(d, seed + 1)

    def step(d=d, p=p, psi=psi, a=a, rate=None):
        return lambda work: advance(SimState(d, p, psi, a, 0.0, rate), work)

    def refill(work):
        advance(SimState(d, p, psi, a), work)
        cayley_step(psi2, link_phases(a2, d, p), d, p, p.dt, work)
    return {
        "another state": step(psi=psi2, a=a2),
        "mu": step(p=dataclasses.replace(p, mu=1.7)),
        "hbar": step(p=dataclasses.replace(p, hbar=0.6)),
        "dx": step(d=dataclasses.replace(d, dx=0.5)),
        "charge": step(p=dataclasses.replace(p, e=-1.3), rate=LinkField(
            np.zeros_like(a.a1), np.zeros_like(a.a2))),
        "explicit phases": refill,
    }


def garbage_fields(d, seed):
    """random_fields with random values on the inactive links as well, which
    the phases must ignore."""
    psi, _ = random_fields(d, seed)
    rng = np.random.default_rng(seed)
    return psi, LinkField(rng.normal(size=(d.nx - 1, d.ny)),
                          rng.normal(size=(d.nx, d.ny - 1)))


@given(d=masked_domains(), seed=st.integers(0, 2 ** 31))
@settings(max_examples=25, deadline=None)
def test_advance_in_a_warmed_workspace_bit_identical(d, seed):
    # the phases cached in a Workspace's H: after each warm_ups entry, a
    # step without and a step with the predictor's rate give the bits of a
    # fresh workspace
    p = Params(dt=0.05)
    psi, a = garbage_fields(d, seed)
    want = [advance(SimState(d, p, psi, a), Workspace(d))]
    want.append(advance(want[0], Workspace(d)))
    for name, warm_up in warm_ups(d, p, psi, a, seed).items():
        work = Workspace(d)
        warm_up(work)
        s = SimState(d, p, psi, a)
        for fresh in want:
            s = advance(s, work)
            assert_same_state(s, fresh)


@pytest.mark.parametrize("predictor", [False, True], ids=["warm", "no-rate"])
def test_advance_working_set(predictor):
    # one step on a 96^2 rectangle with a 12^2 hole holds at most 4.5
    # complex site arrays above its entry, three of them the returned state
    # (4.44 here, at the Hall map of j_mid; a step that kept each
    # intermediate until it returned held 8.5); a step without a rate may
    # hold one more, the rate it computes, which a warm step holds on entry.
    # The phases live in the Workspace, so no step allocates a phase array
    import tracemalloc
    d = build_rectangle(96, 96, 1.0, [(42, 42, 12, 12)])
    p = Params()
    work = Workspace(d)
    s = advance(initialize_consistent(
        d, gaussian_packet(d, (24.0, 24.0), 4.0, (0.3, 0.1)), p), work)
    if predictor:
        s = SimState(d, p, s.psi, s.a, s.t)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        advance(s, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry <= (4.5 + predictor) * 16 * d.nx * d.ny


def test_workspace_of_another_grid_rejected(rng):
    # same number of sites, transposed grid: the stencil offsets differ
    d = build_rectangle(12, 16, 1.0, [])
    psi = np.where(d.active, rng.normal(size=(12, 16)) + 0j, 0.0)
    p = Params()
    with pytest.raises(ValueError, match=r"^Stencil\.fill: filling a complex128 "
                       r"stencil over the cells of \(16, 12\), but the entries "
                       r"need one over the cells of \(12, 16\)"):
        cayley_step(psi, link_phases(LinkField.zeros(d), d, p), d, p, 0.05,
                    Workspace(build_rectangle(16, 12, 1.0, [])))


def test_cayley_step_real_link_masks_bit_identical(rng):
    # the zero potential's link masks are real phases: the workspace's
    # complex H takes them, and the step is that of the complex phases
    d = build_rectangle(16, 16, 1.0, [(6, 6, 4, 4)])
    p = Params()
    psi = np.where(d.active, rng.normal(size=(16, 16))
                   + 1j * rng.normal(size=(16, 16)), 0.0)
    work = Workspace(d)
    got = cayley_step(psi, (d.h_active, d.v_active), d, p, p.dt, work)
    want = cayley_step(psi, link_phases(LinkField.zeros(d), d, p), d, p, p.dt,
                       work)
    assert got.tobytes() == want.tobytes()


def test_stencil_matrix_complex_into_real_out_rejected():
    real = stencil_matrix((4, 4), 1.0, 1.0, 4.0, 1.0)
    with pytest.raises(ValueError, match="holds complex128 entries"):
        real.fill(1j, 1.0, 4.0, 1.0)


def stencil_by_loops(shape, hop1, hop2, diag, scale):
    """(row, col, value) of scale * (diag - hops) on the row-major cells of
    `shape`, by explicit loops over each site's neighbours (independent of
    fields.Stencil's storage)."""
    nx, ny = shape
    terms = []
    for x in range(nx):
        for y in range(ny):
            c = x * ny + y
            terms.append((c, c, scale * diag[x, y]))
            if x + 1 < nx:                  # M[x + e1, x] and its conjugate
                terms.append((c + ny, c, -scale * hop1[x, y]))
                terms.append((c, c + ny, -scale * np.conj(hop1[x, y])))
            if y + 1 < ny:
                terms.append((c + 1, c, -scale * hop2[x, y]))
                terms.append((c, c + 1, -scale * np.conj(hop2[x, y])))
    return terms


def random_stencil_inputs(rng, shape, h_mask, v_mask, complex_hops):
    nx, ny = shape
    hop1, hop2 = rng.normal(size=(nx - 1, ny)), rng.normal(size=(nx, ny - 1))
    if complex_hops:
        hop1 = hop1 + 1j * rng.normal(size=hop1.shape)
        hop2 = hop2 + 1j * rng.normal(size=hop2.shape)
    return hop1 * h_mask, hop2 * v_mask, rng.normal(size=shape), rng.uniform(0.1, 3.0)


@given(d=masked_domains(), seed=st.integers(0, 2 ** 31),
       complex_hops=st.booleans())
@settings(max_examples=30, deadline=None)
def test_stencil_apply_matches_dense_neighbour_loops(d, seed, complex_hops):
    # the blocked apply against a dense matrix summed from explicit
    # neighbour loops, for complex and real coefficients and arguments
    rng = np.random.default_rng(seed)
    shape = (d.nx, d.ny)
    args = random_stencil_inputs(rng, shape, d.h_active, d.v_active, complex_hops)
    dense = np.zeros((d.nx * d.ny,) * 2, dtype=np.complex128)
    for r, c, v in stencil_by_loops(shape, *args):
        dense[r, c] += v
    op = stencil_matrix(shape, *args)
    assert op.coef.dtype == (np.complex128 if complex_hops else np.float64)
    for v in (rng.normal(size=shape), rng.normal(size=shape)
              + 1j * rng.normal(size=shape)):
        want = (dense @ v.ravel()).reshape(shape)
        got = op.apply(v)
        assert got.shape == shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        out = np.empty(shape, dtype=got.dtype)
        assert op.apply(v, out) is out and np.array_equal(out, got)


@pytest.mark.parametrize("complex_hops", [True, False])
def test_stencil_apply_across_blocks_matches_neighbour_loops(complex_hops):
    # 131 x 129 = 16,899 sites: more than one block of BLOCK_SITES and not a
    # multiple of it, so the seams between blocks and the short last block
    # (where the +e1 neighbours end) are covered; a fill over a stencil
    # that held other entries gives the same result
    from hallsim.fields import BLOCK_SITES
    shape = (131, 129)
    n = shape[0] * shape[1]
    assert n > BLOCK_SITES and n % BLOCK_SITES
    rng = np.random.default_rng(3)
    mask = build_rectangle(*shape, 1.0, [(40, 50, 30, 20)])
    args = random_stencil_inputs(rng, shape, mask.h_active, mask.v_active,
                                 complex_hops)
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    want = np.zeros(n, dtype=np.complex128)
    flat = v.ravel()
    for r, c, val in stencil_by_loops(shape, *args):
        want[r] += val * flat[c]
    want = want.reshape(shape)
    op = stencil_matrix(shape, *args)
    refilled = stencil_matrix(shape, *random_stencil_inputs(
        rng, shape, 1.0, 1.0, complex_hops)).fill(*args)
    for got in (op.apply(v), refilled.apply(v)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@given(d=masked_domains(), seed=st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_stencil_stores_each_hop_once_and_lists_hermitian_entries(d, seed):
    # three rows of storage (the hops along e1 and e2 below the diagonal,
    # and the diagonal), and every entry above the diagonal is listed as the
    # conjugate of its mirror below, bit for bit
    rng = np.random.default_rng(seed)
    shape = (d.nx, d.ny)
    assert Stencil(shape, np.complex128).coef.nbytes == 3 * 16 * d.nx * d.ny
    op = stencil_matrix(shape, *random_stencil_inputs(
        rng, shape, d.h_active, d.v_active, True))
    rows, cols, vals = op.entries()
    entry = {(r, c): v for r, c, v in zip(rows.tolist(), cols.tolist(), vals)}
    assert len(entry) == len(rows)
    off = rows != cols
    assert off.sum() == 2 * (d.h_active.sum() + d.v_active.sum())
    for r, c, v in zip(rows[off].tolist(), cols[off].tolist(), vals[off]):
        assert entry[c, r].tobytes() == np.conjugate(v).tobytes()
