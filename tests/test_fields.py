import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hallsim import (LinkField, Params, apply_gauge, current_density,
                     build_rectangle, link_divergence, link_phases,
                     plaquette_curl, site_gradient)
from hallsim import Workspace
from hallsim.fields import charge_density, kinetic_scale, stencil_matrix


def random_state(d, rng, scale=1.0):
    psi = np.where(d.active,
                   rng.normal(size=(d.nx, d.ny)) * scale
                   + 1j * rng.normal(size=(d.nx, d.ny)) * scale, 0.0)
    a = LinkField(rng.normal(size=(d.nx - 1, d.ny)) * d.h_active,
                  rng.normal(size=(d.nx, d.ny - 1)) * d.v_active)
    return psi, a


def boundary_zero_lambda(d, rng, scale=1.0):
    lam = rng.normal(size=(d.nx, d.ny)) * scale
    lam[~d.active] = 0.0
    lam[d.boundary_mask] = 0.0
    return lam


def test_curl_of_zero_field(rect12):
    assert np.all(plaquette_curl(LinkField.zeros(rect12), rect12) == 0.0)


def test_curl_of_gradient_exact_integers(rect12):
    # integer-valued lambda: all link sums are exact in floating point,
    # so the lattice identity curl(grad) = 0 holds bit-exactly
    rng = np.random.default_rng(7)
    lam = rng.integers(-8, 8, size=(12, 12)).astype(float)
    g1, g2 = site_gradient(lam, rect12)
    assert np.all(plaquette_curl(LinkField(g1, g2), rect12) == 0.0)


def test_curl_of_gradient_roundoff(rect12, rng):
    lam = rng.normal(size=(12, 12))
    g1, g2 = site_gradient(lam, rect12)
    assert np.abs(plaquette_curl(LinkField(g1, g2), rect12)).max() < 1e-13


def test_curl_landau_gauge(rect12):
    b0 = 0.7
    a = LinkField.zeros(rect12)
    x = np.arange(rect12.nx)[:, None] * rect12.dx
    a.a2[:, :] = b0 * x * rect12.v_active
    curl = plaquette_curl(a, rect12)
    assert curl[rect12.plaq_active] == pytest.approx(b0, abs=1e-13)


def test_apply_gauge_identity(rect12, params, rng):
    psi, a = random_state(rect12, rng)
    a2, psi2 = apply_gauge(a, psi, np.zeros((12, 12)), rect12, params)
    assert np.array_equal(a2.a1, a.a1) and np.array_equal(a2.a2, a.a2)
    assert np.array_equal(psi2, psi)


def test_apply_gauge_constant_lambda(rect12, params, rng):
    psi, a = random_state(rect12, rng)
    a2, psi2 = apply_gauge(a, psi, np.full((12, 12), 1.3), rect12, params,
                           boundary_constrained=False)
    assert np.abs(a2.a1 - a.a1).max() == 0.0
    assert np.abs(a2.a2 - a.a2).max() == 0.0
    phase = np.exp(1j * params.e * 1.3 / params.hbar)
    assert np.abs(psi2 - phase * psi).max() < 1e-15


def test_apply_gauge_group_inverse(rect12, params, rng):
    psi, a = random_state(rect12, rng)
    lam = boundary_zero_lambda(rect12, rng)
    a1, psi1 = apply_gauge(a, psi, lam, rect12, params)
    a2, psi2 = apply_gauge(a1, psi1, -lam, rect12, params)
    assert np.abs(a2.a1 - a.a1).max() < 1e-13
    assert np.abs(a2.a2 - a.a2).max() < 1e-13
    assert np.abs(psi2 - psi).max() < 1e-13


def test_boundary_constrained_transform_rejects_nonzero_boundary(rect12,
                                                                  params, rng):
    psi, a = random_state(rect12, rng)
    lam = np.ones((12, 12))
    with pytest.raises(ValueError, match="boundary"):
        apply_gauge(a, psi, lam, rect12, params)


def test_current_zero_for_real_constant(rect12, params):
    psi = np.where(rect12.active, 0.37 + 0j, 0.0)
    j = current_density(psi,
                        link_phases(LinkField.zeros(rect12), rect12, params),
                        rect12, params)
    assert np.all(j.j1 == 0.0) and np.all(j.j2 == 0.0)
    rho = charge_density(psi, rect12, params)
    assert rho[rect12.active] == pytest.approx(params.e * 0.37 ** 2)


def test_current_plane_wave(params):
    # psi = exp(ikx): interior link current is (e hbar/mu dx) sin(k dx) |psi|^2,
    # which is (e hbar k/mu)|psi|^2 up to O(dx^2)
    d = build_rectangle(32, 8, 0.5, [])
    k = 0.3
    x = np.arange(d.nx)[:, None] * d.dx
    psi = np.where(d.active, np.exp(1j * k * x) * np.ones((1, d.ny)), 0.0)
    j = current_density(psi, link_phases(LinkField.zeros(d), d, params), d,
                        params)
    exact = params.e * params.hbar / (params.mu * d.dx) * np.sin(k * d.dx)
    assert j.j1[10, 4] == pytest.approx(exact, rel=1e-12)
    continuum = params.e * params.hbar * k / params.mu
    assert abs(j.j1[10, 4] - continuum) <= continuum * (k * d.dx) ** 2 / 6 * 1.01


def test_current_constant_potential(rect12, params):
    # psi constant, a1 = A0: covariant difference gives
    # -(e hbar/mu dx) sin(e dx A0/hbar) |psi|^2 ~ -(e^2/mu) A0 |psi|^2
    a0 = 0.2
    psi = np.where(rect12.active, 1.0 + 0j, 0.0)
    a = LinkField(np.full((11, 12), a0) * rect12.h_active, np.zeros((12, 11)))
    j = current_density(psi, link_phases(a, rect12, params), rect12, params)
    exact = -params.e * params.hbar / (params.mu * rect12.dx) * np.sin(
        params.e * rect12.dx * a0 / params.hbar)
    assert j.j1[5, 5] == pytest.approx(exact, rel=1e-12)
    assert abs(j.j1[5, 5] + params.e ** 2 / params.mu * a0) < 2e-3


def test_current_is_real_and_zero_off_domain(params, rng):
    d = build_rectangle(16, 16, 1.0, [(6, 6, 3, 3)])
    psi = np.where(d.active,
                   rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)),
                   0.0)
    a = LinkField(rng.normal(size=(15, 16)) * d.h_active,
                  rng.normal(size=(16, 15)) * d.v_active)
    j = current_density(psi, link_phases(a, d, params), d, params)
    assert j.j1.dtype == np.float64 and j.j2.dtype == np.float64
    assert np.all(j.j1[~d.h_active] == 0.0)
    assert np.all(j.j2[~d.v_active] == 0.0)
    # nonzero amplitude off the domain must not leak into the density
    psi[~d.active] = 1.0
    assert np.all(charge_density(psi, d, params)[~d.active] == 0.0)


@given(seed=st.integers(0, 2 ** 31))
@settings(max_examples=25, deadline=None)
def test_gauge_invariance_of_observables(seed):
    d = build_rectangle(10, 10, 1.0, [])
    p = Params(sigma_h=1.0, dt=0.05)
    rng = np.random.default_rng(seed)
    psi, a = random_state(d, rng)
    lam = boundary_zero_lambda(d, rng, scale=2.0)
    a2, psi2 = apply_gauge(a, psi, lam, d, p)

    j = current_density(psi, link_phases(a, d, p), d, p)
    j2 = current_density(psi2, link_phases(a2, d, p), d, p)
    scale = max(np.abs(j.j1).max(), np.abs(j.j2).max(), 1e-30)
    assert np.abs(j.j1 - j2.j1).max() / scale < 1e-12
    assert np.abs(j.j2 - j2.j2).max() / scale < 1e-12
    assert np.abs(np.abs(psi) ** 2 - np.abs(psi2) ** 2).max() < 1e-12 * max(
        (np.abs(psi) ** 2).max(), 1e-30)

    c1 = plaquette_curl(a, d)
    c2 = plaquette_curl(a2, d)
    cs = max(np.abs(c1).max(), 1.0)
    assert np.abs(c1 - c2).max() / cs < 1e-12


def test_divergence_adjoint_identity(rect12, rng):
    # sum over sites of f * div(j) == -sum over links of grad(f) . j
    f = rng.normal(size=(12, 12)) * rect12.active
    j1 = rng.normal(size=(11, 12)) * rect12.h_active
    j2 = rng.normal(size=(12, 11)) * rect12.v_active
    div = link_divergence(j1, j2, rect12)
    g1, g2 = site_gradient(f, rect12)
    lhs = float((f * div).sum()) * rect12.dx ** 2
    rhs = -float((g1 * j1).sum() + (g2 * j2).sum()) * rect12.dx ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def exp_link_phases(a, d, p):
    """The link phases as exp(0 + i theta), theta = e dx a (1/hbar), masked."""
    out = []
    for x, mask in ((a.a1, d.h_active), (a.a2, d.v_active)):
        u = np.zeros(x.shape, dtype=np.complex128)
        np.multiply(x, p.e * d.dx, out=u.imag)
        u.imag *= 1.0 / p.hbar
        np.exp(u, out=u)
        u *= mask
        out.append(u)
    return out


@pytest.mark.parametrize("e", [1.0, -1.0, 2.5])
@pytest.mark.parametrize("dx", [1.0, 0.3, 1.7])
@pytest.mark.parametrize("hbar", [1.0, 0.7, 3.0])
def test_link_phases_bit_identical_to_complex_exp(e, dx, hbar):
    # cos/sin written into the real and imaginary parts give exactly the
    # bits of the complex exponential, signed zeros included
    d = build_rectangle(40, 40, dx, [(10, 12, 6, 5)])
    p = Params(e=e, hbar=hbar, dt=0.05)
    rng = np.random.default_rng(5)
    mags = np.logspace(-3, 8, 600)
    special = [0.0, -0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2, 2 * np.pi,
               np.nextafter(np.pi, 0.0), 5e-324, -5e-324, 1e-300, 1e8, -1e8]
    pool = np.concatenate([special, mags, -mags,
                           rng.uniform(-1e8, 1e8, 400), rng.normal(size=400)])
    a = LinkField(rng.choice(pool, (39, 40)), rng.choice(pool, (40, 39)))
    # every special value at least once on each component
    a.a1.flat[:len(special)] = special
    a.a2.flat[:len(special)] = special
    def assert_h_of_exp(h):
        want = stencil_matrix((40, 40), *exp_link_phases(a, d, p), d.degree,
                              kinetic_scale(d, p))
        assert h.coef.dtype == np.complex128
        assert np.array_equal(h.coef.view(np.int64), want.coef.view(np.int64))

    assert_h_of_exp(link_phases(a, d, p))
    # the phases cached in a Workspace's H, along potentials that each move
    # a random subset of links (inactive links and signed zeros included):
    # every entry is that of the stencil filled from the phases above
    work = Workspace(d)
    for step in range(6):
        if step:
            for x in (a.a1, a.a2):
                moved = rng.random(x.shape) < 0.1
                x[moved] = rng.choice(pool, moved.sum())
                x[rng.random(x.shape) < 0.02] *= -1.0       # -0.0 among them
        h = link_phases(a, d, p, work)
        assert h is work.h
        assert_h_of_exp(h)
        assert_h_of_exp(link_phases(a, d, p))


def exp_current(psi, a, d, p):
    """The link current of the phases exp_link_phases, written out."""
    scale = p.e * p.hbar / (p.mu * d.dx)
    return [scale * np.imag(np.conj(tail * u) * head) * mask
            for tail, u, head, mask in zip(
                (psi[:-1, :], psi[:, :-1]), exp_link_phases(a, d, p),
                (psi[1:, :], psi[:, 1:]), (d.h_active, d.v_active))]


def test_current_of_h_matches_current_of_phases(rng):
    # the current reads H's hops, -kinetic_scale u, and divides the scale
    # back out: at mu = 1.3 and dx = 0.3 the scale is no power of two, and
    # the current is that of the phases to roundoff
    d = build_rectangle(40, 36, 0.3, [(10, 12, 6, 5)])
    p = Params(mu=1.3)
    psi, a = random_state(d, rng)
    got = current_density(psi, link_phases(a, d, p), d, p)
    want = exp_current(psi, a, d, p)
    scale = max(np.abs(w).max() for w in want)
    for g, w in zip((got.j1, got.j2), want):
        assert np.abs(g - w).max() <= 1e-15 * scale
