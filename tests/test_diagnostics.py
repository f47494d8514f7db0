import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hallsim import (CurrentField, LinkField, Params, SimState, Workspace,
                     advance, apply_gauge, build_rectangle, cayley_step,
                     current_density, dense_hamiltonian, gaussian_packet,
                     initialize_consistent, link_phases, site_density,
                     site_gradient, uniform_state)
from hallsim import diagnostics, domain
from hallsim.diagnostics import (continuity_residual, edge_fraction_of,
                                 gauss_residual, record_state)

from conftest import continuity_of_states
from test_dynamics import masked_domains, random_fields


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
        assert record_state(s).sigma_est == pytest.approx(sh, abs=1e-8)


def test_global_sigma_missing_for_zero_state(rect12, params):
    s = SimState(rect12, params, np.zeros((12, 12), dtype=complex),
                 LinkField.zeros(rect12))
    assert record_state(s).sigma_est is None


def test_global_sigma_scale_invariance(params):
    d = build_rectangle(16, 16, 1.0, [])
    s = initialize_consistent(d, uniform_state(d, norm=1.0), params)
    est1 = record_state(s).sigma_est
    s2 = SimState(d, params, np.sqrt(2.0) * s.psi,
                  LinkField(2.0 * s.a.a1, 2.0 * s.a.a2))
    assert record_state(s2).sigma_est == pytest.approx(est1, rel=1e-12)


def test_sigma_est_missing_below_sigma_floor():
    # a uniform curl b (a2 = b x) under a uniform density: sigma_est reads
    # n e / b from SIGMA_FLOOR = 1e-12 on and is missing below it
    d = build_rectangle(12, 12, 1.0, [])
    p = Params(sigma_h=1.0, dt=0.05)
    psi = uniform_state(d, norm=1.0)
    x = np.arange(d.nx)[:, None] * d.dx
    for b, missing in ((0.5e-12, True), (2e-12, False)):
        a = LinkField(np.zeros((d.nx - 1, d.ny)), np.repeat(b * x, d.ny - 1, 1))
        rec = record_state(SimState(d, p, psi, a))
        assert rec.B_mean == pytest.approx(b, rel=1e-9)
        if missing:
            assert rec.sigma_est is None
        else:
            assert rec.sigma_est == pytest.approx(
                p.e * np.abs(psi[0, 0]) ** 2 / b, rel=1e-9)


def test_continuity_one_link_current_at_dx_half(params):
    # equal densities and one link current J in both states: the divergence
    # is +-J/dx at the link's two sites and the current scale is J/dx, so
    # the residual is exactly 1 at any dx (2 or 1/2 at dx = 1/2 if either
    # misses its 1/dx)
    d = build_rectangle(8, 8, 0.5, [])
    psi = uniform_state(d, norm=1.0)
    s1, s2 = (SimState(d, params, psi, LinkField.zeros(d), t) for t in (0.0, 0.1))
    j1 = np.zeros((d.nx - 1, d.ny))
    j1[3, 4] = 0.75
    j = CurrentField(j1, np.zeros((d.nx, d.ny - 1)))
    rho = site_density(psi, d)
    assert continuity_residual(s1, s2, j, j, rho, rho) == 1.0


def test_continuity_static_zero(rect12, params):
    s1 = SimState(rect12, params, np.zeros((12, 12), dtype=complex),
                  LinkField.zeros(rect12), 0.0)
    s2 = SimState(rect12, params, np.zeros((12, 12), dtype=complex),
                  LinkField.zeros(rect12), 0.1)
    assert continuity_of_states(s1, s2) == 0.0


def test_continuity_eigenstate_stationary():
    # complex combination of a degenerate pair: stationary density with a
    # nonzero circulating current; the residual stays at solver level
    d = build_rectangle(4, 4, 1.0, [])
    p = Params(dt=0.05)
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
    phases, work = link_phases(s.a, d, p), Workspace(d)
    for _ in range(4):
        prev = states[-1]
        psi = cayley_step(prev.psi, phases, d, p, p.dt, work)
        states.append(SimState(d, p, psi, LinkField.zeros(d), prev.t + p.dt))
    assert continuity_of_states(states[0], states[2]) <= 1e-8
    assert continuity_of_states(states[1], states[3]) <= 1e-8


def test_continuity_second_order_convergence():
    def worst(dt, steps):
        d = build_rectangle(16, 16, 1.0, [])
        p = Params(sigma_h=1.0, dt=dt)
        s = initialize_consistent(
            d, gaussian_packet(d, (7.5, 7.5), 2.0, (0.3, 0.1), norm=1.0), p)
        states = [s]
        work = Workspace(d)
        for _ in range(steps):
            states.append(advance(states[-1], work))
        return max(continuity_of_states(states[i - 1], states[i + 1])
                   for i in range(1, len(states) - 1))

    r1 = worst(0.05, 60)
    r2 = worst(0.025, 120)
    assert 3.6 <= r1 / r2 <= 4.4


def test_pure_gauge_residual_examples(rect12, params, rng):
    def pure_gauge_max(a):
        return record_state(SimState(rect12, params, None, a)).pure_gauge_max

    lam = rng.integers(-4, 4, size=(12, 12)).astype(float)
    g1, g2 = site_gradient(lam, rect12)
    assert pure_gauge_max(LinkField(g1, g2)) == 0.0
    assert pure_gauge_max(LinkField.zeros(rect12)) == 0.0
    b0 = 0.45
    a = LinkField.zeros(rect12)
    a.a2[:, :] = b0 * np.arange(rect12.nx)[:, None] * rect12.dx * rect12.v_active
    assert pure_gauge_max(a) == pytest.approx(b0, rel=1e-12)


def test_edge_fraction_rim_only_current(corbino32, params):
    # current only on links joining boundary sites
    j1 = np.zeros((31, 32))
    j2 = np.zeros((32, 31))
    bm = corbino32.boundary_mask
    j1[(bm[:-1, :] & bm[1:, :]) & corbino32.h_active] = 1.0
    j2[(bm[:, :-1] & bm[:, 1:]) & corbino32.v_active] = 1.0
    j = CurrentField(j1, j2)
    with mock.patch.object(domain, "EDGE_WIDTH", 1):
        assert edge_fraction_of(j, corbino32) == 1.0


def test_edge_fraction_uniform_current_counting():
    # uniform |j| on every active link: the fraction is the shell link share,
    # cross-checked by a brute-force distance scan
    d = build_rectangle(20, 20, 1.0, [])
    j = CurrentField(np.ones((19, 20)) * d.h_active,
                     np.ones((20, 19)) * d.v_active)
    k = 2
    with mock.patch.object(domain, "EDGE_WIDTH", k):
        got = edge_fraction_of(j, d)

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
    assert record_state(s).edge_fraction is None


def test_edge_fraction_monotone_in_k(params, rng):
    d = build_rectangle(24, 24, 1.0, [])
    psi = gaussian_packet(d, (11.5, 11.5), 3.0, (0.4, 0.2), norm=1.0)
    a = LinkField(rng.normal(size=(23, 24)) * 0.1 * d.h_active,
                  rng.normal(size=(24, 23)) * 0.1 * d.v_active)
    vals = []
    for k in range(1, 12):
        # a domain reads EDGE_WIDTH when it first builds its edge band
        with mock.patch.object(domain, "EDGE_WIDTH", k):
            s = SimState(dataclasses.replace(d), params, psi, a)
            vals.append(record_state(s).edge_fraction)
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0)


def test_breakdown_indicator_regimes(params):
    d = build_rectangle(24, 24, 1.0, [])
    s0 = SimState(d, params, np.zeros((d.nx, d.ny), dtype=complex),
                  LinkField.zeros(d))
    assert record_state(s0).breakdown is False

    dense = initialize_consistent(d, gaussian_packet(d, (11.5, 11.5), 3.0, norm=10.0),
                                  params)
    interior = d.active & (d.boundary_distance > domain.EDGE_WIDTH)
    assert (np.abs(dense.psi[interior]) ** 2).mean() > 1e-4
    assert record_state(dense).breakdown is True

    from hallsim import build_corbino, rim_pair_state
    dc = build_corbino(32, 1.0, 5.0, 14.0)
    edge = initialize_consistent(dc, rim_pair_state(dc, params, norm=1e-6), params)
    assert record_state(edge).breakdown is False


def test_diagnostics_gauge_invariant(params, rng):
    d = build_rectangle(16, 16, 1.0, [])
    s = initialize_consistent(
        d, gaussian_packet(d, (7.5, 7.5), 2.0, (0.3, 0.0), norm=1.0), params)
    base = record_state(s)
    for _ in range(5):
        lam = rng.normal(size=(16, 16)) * 2.0
        lam[d.boundary_mask] = 0.0
        lam[~d.active] = 0.0
        a2, psi2 = apply_gauge(s.a, s.psi, lam, d, params)
        got = record_state(SimState(d, params, psi2, a2))
        assert got.gauss_rel == pytest.approx(base.gauss_rel, abs=1e-12)
        for name in ("sigma_est", "B_mean", "edge_fraction", "pure_gauge_max"):
            assert getattr(got, name) == pytest.approx(getattr(base, name),
                                                       rel=1e-12), name


@given(d=masked_domains(), dx=st.sampled_from([1.0, 0.7]),
       seed=st.integers(0, 2 ** 31), k=st.integers(1, 3),
       floor_at=st.sampled_from([0.5, 2.0]), rho_at=st.sampled_from([0.5, 2.0]),
       b_at=st.sampled_from([0.5, 2.0]))
@settings(max_examples=40, deadline=None)
def test_record_state_matches_definitions(d, dx, seed, k, floor_at, rho_at,
                                          b_at):
    # each single-state column of a diagnostics row against its definition;
    # the floor and the thresholds sit at half or twice the value they
    # guard, so both sides of every branch are reached
    d = dataclasses.replace(d, dx=dx)
    p = Params(sigma_h=1.3, e=0.7, dt=0.05)
    psi, a = random_fields(d, seed)
    rho = np.abs(psi) ** 2
    norm = rho[d.active].sum() * d.dx ** 2
    n_global = norm / (d.n_active * d.dx ** 2)
    curl = ((a.a1[:, :-1] - a.a1[:, 1:]) + (a.a2[1:, :] - a.a2[:-1, :])) / d.dx
    b_mean = curl[d.plaq_active].mean()
    # the charge as the Gauss law weighs it: the four-corner mean per
    # counted plaquette, averaged over those plaquettes
    n_plaq = (0.25 * (rho[:-1, :-1] + rho[1:, :-1] + rho[:-1, 1:]
                      + rho[1:, 1:]))[d.plaq_active].mean()
    pure = np.abs(curl[d.plaq_active]).max()
    j = current_density(psi, link_phases(a, d, p), d, p)
    dist = np.where(d.active, d.boundary_distance, np.iinfo(np.int64).max)
    h_near = np.minimum(dist[:-1, :], dist[1:, :]) <= k
    v_near = np.minimum(dist[:, :-1], dist[:, 1:]) <= k
    edge = ((np.abs(j.j1[h_near & d.h_active]).sum()
             + np.abs(j.j2[v_near & d.v_active]).sum())
            / (np.abs(j.j1).sum() + np.abs(j.j2).sum()))
    deep = d.active & (d.boundary_distance > k)
    rho_in = rho[deep].mean() if deep.any() else 0.0
    floor = floor_at * abs(float(b_mean))
    rho_star, b_star = rho_at * float(rho_in), b_at * float(pure)

    with mock.patch.multiple(diagnostics, SIGMA_FLOOR=floor, RHO_STAR=rho_star,
                             B_STAR=b_star), \
            mock.patch.object(domain, "EDGE_WIDTH", k):
        rec = record_state(SimState(d, p, psi, a))
    assert rec.norm == pytest.approx(norm, rel=1e-12)
    assert rec.n_global == pytest.approx(n_global, rel=1e-12)
    assert rec.B_mean == pytest.approx(b_mean, rel=1e-9, abs=1e-14)
    if floor_at > 1.0:
        assert rec.sigma_est is None
    else:
        assert rec.sigma_est == pytest.approx(n_plaq * p.e / b_mean, rel=1e-9)
    assert rec.pure_gauge_max == pytest.approx(pure, rel=1e-12)
    assert rec.edge_fraction == pytest.approx(edge, rel=1e-12)
    assert rec.breakdown is (rho_at < 1.0 and rho_in > 0.0 and b_at < 1.0)
