import numpy as np
import pytest

from hallsim import (CurrentField, LinkField, Params, SimState, advance,
                     apply_gauge, build_rectangle,
                     dense_hamiltonian, gaussian_packet,
                     initialize_consistent, site_gradient, step_matter,
                     uniform_state)
from hallsim.diagnostics import (breakdown_indicator, continuity_residual,
                                 edge_fraction, edge_fraction_of,
                                 gauss_residual, global_sigma,
                                 interior_mean_density, mean_curl,
                                 pure_gauge_residual)


def test_gauss_scalar_consistent_state(params):
    d = build_rectangle(16, 16, 1.0, [])
    s = initialize_consistent(d, gaussian_packet(d, (7.5, 7.5), 2.0, norm=1.0), params)
    _, rel = gauss_residual(s)
    assert rel <= 1e-10


def test_gauss_scalar_pure_gauge_zero_psi(rect12, params, rng):
    lam = rng.integers(-5, 5, size=(12, 12)).astype(float)
    g1, g2 = site_gradient(lam, rect12)
    s = SimState(rect12, params, np.zeros((12, 12), dtype=complex),
                 LinkField(g1, g2))
    r, rel = gauss_residual(s)
    assert np.all(r == 0.0)


def test_gauss_scalar_maximal_violation(params):
    # uniform density with A = 0: residual equals the density term everywhere
    d = build_rectangle(16, 16, 1.0, [])
    psi = uniform_state(d, norm=float(d.n_active) * 0.5)
    s = SimState(d, params, psi, LinkField.zeros(d))
    _, rel = gauss_residual(s)
    assert rel == pytest.approx(1.0, rel=1e-12)


def test_global_sigma_consistent_uniform():
    for sh in (1.0, 2.0, 3.0):
        d = build_rectangle(32, 32, 1.0, [])
        p = Params(sigma_h=sh, dt=0.05)
        s = initialize_consistent(d, uniform_state(d, norm=1.0), p)
        assert global_sigma(s) == pytest.approx(sh, abs=1e-8)


def test_global_sigma_missing_for_zero_state(rect12, params):
    s = SimState(rect12, params, np.zeros((12, 12), dtype=complex),
                 LinkField.zeros(rect12))
    assert global_sigma(s) is None


def test_global_sigma_scale_invariance(params):
    d = build_rectangle(16, 16, 1.0, [])
    s = initialize_consistent(d, uniform_state(d, norm=1.0), params)
    est1 = global_sigma(s)
    s2 = SimState(d, params, np.sqrt(2.0) * s.psi,
                  LinkField(2.0 * s.a.a1, 2.0 * s.a.a2))
    assert global_sigma(s2) == pytest.approx(est1, rel=1e-12)


def test_continuity_static_zero(rect12, params):
    s1 = SimState(rect12, params, np.zeros((12, 12), dtype=complex),
                  LinkField.zeros(rect12), 0.0)
    s2 = SimState(rect12, params, np.zeros((12, 12), dtype=complex),
                  LinkField.zeros(rect12), 0.1)
    assert continuity_residual(s1, s2) == 0.0


def test_continuity_eigenstate_stationary():
    # complex combination of a degenerate pair: stationary density with a
    # nonzero circulating current; the residual stays at solver level
    d = build_rectangle(4, 4, 1.0, [])
    p = Params(dt=0.05, solver_tol=1e-14)
    H, sites = dense_hamiltonian((d.h_active, d.v_active), d, p)
    w, V = np.linalg.eigh(H)
    pair = None
    for i in range(len(w) - 1):
        if abs(w[i + 1] - w[i]) < 1e-12:
            pair = i
            break
    assert pair is not None
    psi = np.zeros((d.nx, d.ny), dtype=complex)
    vec = (V[:, pair] + 1j * V[:, pair + 1]) / np.sqrt(2)
    psi[sites[:, 0], sites[:, 1]] = vec
    s = SimState(d, p, psi, LinkField.zeros(d), 0.0)
    states = [s]
    for _ in range(4):
        prev = states[-1]
        states.append(SimState(d, p, step_matter(prev), LinkField.zeros(d),
                               prev.t + p.dt))
    assert continuity_residual(states[0], states[2]) <= 1e-8
    assert continuity_residual(states[1], states[3]) <= 1e-8


def test_continuity_second_order_convergence():
    def worst(dt, steps):
        d = build_rectangle(16, 16, 1.0, [])
        p = Params(sigma_h=1.0, dt=dt)
        s = initialize_consistent(
            d, gaussian_packet(d, (7.5, 7.5), 2.0, (0.3, 0.1), norm=1.0), p)
        states = [s]
        for _ in range(steps):
            states.append(advance(states[-1]))
        return max(continuity_residual(states[i - 1], states[i + 1])
                   for i in range(1, len(states) - 1))

    r1 = worst(0.05, 60)
    r2 = worst(0.025, 120)
    assert 3.6 <= r1 / r2 <= 4.4


def test_pure_gauge_residual_examples(rect12, rng):
    lam = rng.integers(-4, 4, size=(12, 12)).astype(float)
    g1, g2 = site_gradient(lam, rect12)
    assert pure_gauge_residual(LinkField(g1, g2), rect12) == 0.0
    assert pure_gauge_residual(LinkField.zeros(rect12), rect12) == 0.0
    b0 = 0.45
    a = LinkField.zeros(rect12)
    a.a2[:, :] = b0 * np.arange(rect12.nx)[:, None] * rect12.dx * rect12.v_active
    assert pure_gauge_residual(a, rect12) == pytest.approx(b0, rel=1e-12)


def test_edge_fraction_rim_only_current(corbino32, params):
    # current only on links joining boundary sites
    j1 = np.zeros((31, 32))
    j2 = np.zeros((32, 31))
    bm = corbino32.boundary_mask
    j1[(bm[:-1, :] & bm[1:, :]) & corbino32.h_active] = 1.0
    j2[(bm[:, :-1] & bm[:, 1:]) & corbino32.v_active] = 1.0
    j = CurrentField(j1, j2)
    assert edge_fraction_of(j, corbino32, 1) == 1.0


def test_edge_fraction_uniform_current_counting():
    # uniform |j| on every active link: the fraction is the shell link share,
    # cross-checked by a brute-force distance scan
    d = build_rectangle(20, 20, 1.0, [])
    j = CurrentField(np.ones((19, 20)) * d.h_active,
                     np.ones((20, 19)) * d.v_active)
    k = 2
    got = edge_fraction_of(j, d, k)

    dist = d.boundary_distance
    count_near = 0
    count_all = 0
    for x in range(19):
        for y in range(20):
            if d.h_active[x, y]:
                count_all += 1
                if min(dist[x, y], dist[x + 1, y]) <= k:
                    count_near += 1
    for x in range(20):
        for y in range(19):
            if d.v_active[x, y]:
                count_all += 1
                if min(dist[x, y], dist[x, y + 1]) <= k:
                    count_near += 1
    assert got == pytest.approx(count_near / count_all, rel=1e-12)


def test_edge_fraction_missing_for_zero_current(rect12, params):
    s = SimState(rect12, params, np.zeros((12, 12), dtype=complex),
                 LinkField.zeros(rect12))
    assert edge_fraction(s, 3) is None


def test_edge_fraction_monotone_in_k(params, rng):
    d = build_rectangle(24, 24, 1.0, [])
    psi = gaussian_packet(d, (11.5, 11.5), 3.0, (0.4, 0.2), norm=1.0)
    a = LinkField(rng.normal(size=(23, 24)) * 0.1 * d.h_active,
                  rng.normal(size=(24, 23)) * 0.1 * d.v_active)
    s = SimState(d, params, psi, a)
    vals = [edge_fraction(s, k) for k in range(1, 12)]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0)


def test_breakdown_indicator_regimes(params):
    d = build_rectangle(24, 24, 1.0, [])
    s0 = SimState(d, params, np.zeros((d.nx, d.ny), dtype=complex),
                  LinkField.zeros(d))
    assert breakdown_indicator(s0, 1e-4, 1e-4, 3) is False

    dense = initialize_consistent(d, gaussian_packet(d, (11.5, 11.5), 3.0, norm=10.0),
                                  params)
    assert interior_mean_density(dense, 3) > 1e-4
    assert breakdown_indicator(dense, 1e-4, 1e-4, 3) is True

    from hallsim import build_corbino, rim_pair_state
    dc = build_corbino(32, 1.0, 5.0, 14.0)
    edge = initialize_consistent(dc, rim_pair_state(dc, params, norm=1e-6), params)
    assert breakdown_indicator(edge, 1e-4, 1e-4, 3) is False


def test_diagnostics_gauge_invariant(params, rng):
    d = build_rectangle(16, 16, 1.0, [])
    s = initialize_consistent(
        d, gaussian_packet(d, (7.5, 7.5), 2.0, (0.3, 0.0), norm=1.0), params)
    base = {
        "gauss": gauss_residual(s)[1],
        "sigma": global_sigma(s),
        "bmean": mean_curl(s.a, d),
        "edge": edge_fraction(s, 3),
        "pg": pure_gauge_residual(s.a, d),
    }
    for _ in range(5):
        lam = rng.normal(size=(16, 16)) * 2.0
        lam[d.boundary_mask] = 0.0
        lam[~d.active] = 0.0
        a2, psi2 = apply_gauge(s.a, s.psi, lam, d, params)
        s2 = SimState(d, params, psi2, a2)
        assert gauss_residual(s2)[1] == pytest.approx(base["gauss"], abs=1e-12)
        assert global_sigma(s2) == pytest.approx(base["sigma"], rel=1e-12)
        assert mean_curl(s2.a, d) == pytest.approx(base["bmean"], rel=1e-12)
        assert edge_fraction(s2, 3) == pytest.approx(base["edge"], rel=1e-12)
        assert pure_gauge_residual(s2.a, d) == pytest.approx(base["pg"], rel=1e-12)
