import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hallsim import (LinkField, Params, ZeroMode, build_corbino,
                     build_rectangle, current_density, link_phases,
                     single_valuedness_scan, zero_mode, zero_mode_bracket)
from hallsim.diagnostics import energy


def test_zero_mode_trivials(rect12):
    assert zero_mode(LinkField.zeros(rect12), rect12) == ZeroMode(0.0, 0.0)

    a = LinkField.zeros(rect12)
    a.a1[:, :] = 0.6 * rect12.h_active
    a.a2[:, :] = -0.8 * rect12.v_active
    zm = zero_mode(a, rect12)
    assert zm.abar1 == pytest.approx(0.6, rel=1e-14)
    assert zm.abar2 == pytest.approx(-0.8, rel=1e-14)


@pytest.mark.parametrize("hole", [None, (5.0, 6.0, 3.0)])
def test_zero_mode_second_order_in_dx(hole):
    # a smooth potential on a 15-unit square (optionally minus a 3-unit
    # square hole, its site indices scaled by 1/dx so the removed area stays
    # [5, 8] x [6, 9]) at dx = 1, 1/2, 1/4, 1/8 against the exact area means
    length = 15.0
    f1 = lambda x, y: np.exp(0.1 * x) * np.cos(0.2 * y + 0.3)
    f2 = lambda x, y: np.sin(0.15 * x + 0.4) * np.exp(-0.05 * y)

    def integrals(x0, x1, y0, y1):
        i1 = ((math.exp(0.1 * x1) - math.exp(0.1 * x0)) / 0.1
              * (math.sin(0.2 * y1 + 0.3) - math.sin(0.2 * y0 + 0.3)) / 0.2)
        i2 = ((math.cos(0.15 * x0 + 0.4) - math.cos(0.15 * x1 + 0.4)) / 0.15
              * (math.exp(-0.05 * y0) - math.exp(-0.05 * y1)) / 0.05)
        return np.array([i1, i2, (x1 - x0) * (y1 - y0)])

    exact = integrals(0.0, length, 0.0, length)
    if hole:
        x0, y0, w = hole
        exact -= integrals(x0, x0 + w, y0, y0 + w)
    errors = []
    for dx in (1.0, 0.5, 0.25, 0.125):
        n = round(length / dx) + 1
        holes = []
        if hole:        # sites x0/dx + 1 .. (x0 + w)/dx - 1 become inactive
            holes = [(round(x0 / dx) + 1, round(y0 / dx) + 1,
                      round(w / dx) - 1, round(w / dx) - 1)]
        d = build_rectangle(n, n, dx, holes)
        x = np.arange(n) * dx
        mid = x[:-1] + dx / 2
        a = LinkField(f1(mid[:, None], x[None, :]) * d.h_active,
                      f2(x[:, None], mid[None, :]) * d.v_active)
        zm = zero_mode(a, d)
        errors.append(np.abs([zm.abar1, zm.abar2] - exact[:2] / exact[2]))
    errors = np.array(errors)
    ratios = errors[:-1] / errors[1:]
    assert np.all((3.6 <= ratios) & (ratios <= 4.4)), ratios


def test_scan_integer_spectrum():
    cands = [0.25 * i for i in range(21)]
    spec = single_valuedness_scan(cands, tol=1e-9)
    assert spec.allowed == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
    assert spec.allowed_nonnegative == spec.allowed


def test_scan_rejects_half_and_third():
    spec = single_valuedness_scan([0.5], tol=1e-9)
    assert spec.allowed == ()
    assert spec.mismatches[0] == pytest.approx(2.0)
    spec = single_valuedness_scan([1.0 / 3.0], tol=1e-9)
    assert spec.allowed == ()
    assert spec.mismatches[0] == pytest.approx(math.sqrt(3.0))


def test_scan_tol_validation():
    with pytest.raises(ValueError):
        single_valuedness_scan([1.0], tol=0.0)
    assert single_valuedness_scan([1.0, 0.5], tol=1.5).allowed == (1.0,)
    cands = [0.25 * i for i in range(9)]
    assert single_valuedness_scan(cands, tol=3.0).allowed == tuple(cands)


@given(st.integers(-6, 6))
@settings(max_examples=20, deadline=None)
def test_scan_integers_always_allowed(n):
    spec = single_valuedness_scan([float(n)], tol=1e-9)
    assert spec.allowed == (float(n),)


@pytest.mark.parametrize("d", [build_rectangle(10, 9, 0.5, [(3, 3, 2, 2)]),
                               build_corbino(14, 1.0, 2.0, 6.5)])
def test_link_current_is_the_energy_gradient(d):
    # j = -dx^-2 dE/dA, so d_t A = R j = Omega dE/dA with Omega = -dx^-2 R:
    # the Poisson structure that zero_mode_bracket evaluates.  Central
    # differences along a random link direction, with units other than 1
    p = Params(sigma_h=-1.3, hbar=1.1, e=0.9, mu=1.2)
    rng = np.random.default_rng(3)
    psi = np.where(d.active, rng.normal(size=d.active.shape)
                   + 1j * rng.normal(size=d.active.shape), 0.0)
    a, da = (LinkField(*(rng.normal(size=m.shape) * m
                         for m in (d.h_active, d.v_active)))
             for _ in range(2))
    h = 1e-4
    fd = (energy(psi, LinkField(a.a1 + h * da.a1, a.a2 + h * da.a2), d, p)
          - energy(psi, LinkField(a.a1 - h * da.a1, a.a2 - h * da.a2), d, p)
          ) / (2 * h)
    j = current_density(psi, link_phases(a, d, p), d, p)
    grad = -d.dx ** 2 * ((j.j1 * da.a1).sum() + (j.j2 * da.a2).sum())
    assert fd == pytest.approx(grad, rel=1e-7)


def scaled_bracket(d, sigma_h=1.0):
    """sigma_H * area * {abar1, abar2}, area the mean of the two link
    families' active counts times dx^2: -1 in the continuum limit."""
    area = 0.5 * (d.h_active.sum() + d.v_active.sum()) * d.dx ** 2
    return sigma_h * area * zero_mode_bracket(d, Params(sigma_h=sigma_h))


def test_zero_mode_bracket_on_a_square():
    # the square of side 16 at dx = 1, 1/2, 1/4 (16/dx sites a side)
    got = [scaled_bracket(build_rectangle(round(16 / dx), round(16 / dx), dx))
           for dx in (1.0, 0.5, 0.25)]
    assert got == pytest.approx([-0.99674, -0.99923, -0.99981], abs=1e-5)


def test_zero_mode_bracket_without_plaquettes():
    d = build_rectangle(12, 12, 1.0, [(1, 1, 10, 10)])
    assert d.n_plaq == 0 and zero_mode_bracket(d, Params()) == 0.0


def test_commutator_sigma_scaling():
    # {abar1, abar2} scales as 1/sigma_H, sign included
    d = build_rectangle(12, 10, 0.5, [(4, 3, 3, 3)])
    ref = scaled_bracket(d)
    for sigma_h in (-1.0, 2.5, -2.5, 0.3, -7.0):
        assert scaled_bracket(d, sigma_h) == pytest.approx(ref, rel=1e-14)


def test_commutator_second_order():
    # a 12 x 10 rectangle with a 3 x 3 hole at (4, 3), refined from dx = 1
    # to 1/8 with the same physical hole: the error of sigma_H area {abar1,
    # abar2} against -1 falls at second order (2.1e-2, 3.8e-3, 8.2e-4,
    # 1.9e-4)
    errors = []
    for k in (1, 2, 4, 8):
        d = build_rectangle(12 * k, 10 * k, 1.0 / k,
                            [(4 * k, 3 * k, 3 * k, 3 * k)])
        errors.append(abs(scaled_bracket(d) + 1.0))
    ratios = np.array(errors[:-1]) / errors[1:]
    assert np.all(ratios >= 3.5), (errors, ratios)


def test_zero_mode_bracket_on_corbino_annuli():
    # the Corbino's staircase boundary converges without a clean order;
    # measured -1.0054, -1.0039, -1.0022 at n = 32, 64, 128 (radii scaled
    # from 10..30 at 64)
    got = [scaled_bracket(build_corbino(n, 1.0, n * 10 / 64, n * 30 / 64))
           for n in (32, 64, 128)]
    print("corbino sigma_H area {abar1, abar2}:", got)
    assert got == pytest.approx([-1.0054, -1.0039, -1.0022], abs=1e-4)
