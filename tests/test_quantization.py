import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hallsim import (LinkField, WavefunctionSpec, commutator_check,
                     single_valuedness_scan, wavefunction_value, zero_mode)


def test_zero_mode_trivials(rect12):
    zm = zero_mode(LinkField.zeros(rect12), rect12)
    assert zm.R == 0.0 and zm.phi == 0.0

    a = LinkField.zeros(rect12)
    a.a1[:, :] = 1.0 * rect12.h_active
    zm = zero_mode(a, rect12)
    assert zm.abar1 == pytest.approx(1.0)
    assert zm.R == pytest.approx(1.0) and zm.phi == pytest.approx(0.0)

    a = LinkField.zeros(rect12)
    a.a2[:, :] = -1.0 * rect12.v_active
    zm = zero_mode(a, rect12)
    assert zm.R == pytest.approx(1.0)
    assert zm.phi == pytest.approx(-math.pi / 2)


def test_zero_mode_polar_roundtrip(rect12):
    a = LinkField.zeros(rect12)
    a.a1[:, :] = 0.6 * rect12.h_active
    a.a2[:, :] = -0.8 * rect12.v_active
    zm = zero_mode(a, rect12)
    assert zm.R * math.cos(zm.phi) == pytest.approx(zm.abar1, rel=1e-14)
    assert zm.R * math.sin(zm.phi) == pytest.approx(zm.abar2, rel=1e-14)


def test_wavefunction_values():
    w = WavefunctionSpec(sigma=0.0)
    assert wavefunction_value(w, 1.0, 2.3) == pytest.approx(1.0)

    w = WavefunctionSpec(sigma=1.0, l=1.0, hbar=1.0)
    assert wavefunction_value(w, 1.0, math.pi) == pytest.approx(-1.0)

    w = WavefunctionSpec(sigma=2.0)
    assert wavefunction_value(w, 1.0, math.pi / 2) == pytest.approx(-1.0)


def test_wavefunction_radial_profile():
    w = WavefunctionSpec(sigma=1.0, profile=lambda r: np.exp(-r))
    v = wavefunction_value(w, 2.0, 0.7)
    assert abs(v) == pytest.approx(math.exp(-2.0))


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


def test_scan_radial_profile_independence(rng):
    # the allowed set never depends on F(R): measured through the
    # wavefunction itself at phi and phi + 2 pi
    cands = [0.25 * i for i in range(21)]
    spec = single_valuedness_scan(cands, tol=1e-9)
    R = np.linspace(0.1, 2.0, 17)
    for _ in range(10):
        coeffs = rng.normal(size=3)
        profile = lambda r, c=coeffs: c[0] + c[1] * r + c[2] * r ** 2
        allowed = []
        for sigma in cands:
            w = WavefunctionSpec(sigma=sigma, profile=profile)
            mism = np.abs(wavefunction_value(w, R, 2 * math.pi)
                          - wavefunction_value(w, R, 0.0))
            scale = np.abs(w.F(R)).max()
            if mism.max() <= 1e-9 * scale:
                allowed.append(sigma)
        assert tuple(allowed) == spec.allowed


@given(st.integers(-6, 6))
@settings(max_examples=20, deadline=None)
def test_scan_integers_always_allowed(n):
    spec = single_valuedness_scan([float(n)], tol=1e-9)
    assert spec.allowed == (float(n),)


def test_commutator_linear_exact():
    grid = np.linspace(-2, 2, 41)
    dev = commutator_check(1.0, grid, [lambda x: 2.0 * x + 1.0], kappa=0.5)
    assert dev < 1e-12


def test_commutator_second_order():
    fs = [lambda x: np.exp(-x ** 2)]
    d1 = commutator_check(1.0, np.linspace(-2, 2, 81), fs)
    d2 = commutator_check(1.0, np.linspace(-2, 2, 161), fs)
    assert 3.5 <= d1 / d2 <= 4.5


def test_commutator_sigma_scaling():
    fs = [lambda x: np.exp(-x ** 2), lambda x: np.cos(1.3 * x)]
    grid = np.linspace(-2, 2, 101)
    d1 = commutator_check(1.0, grid, fs)
    d2 = commutator_check(2.0, grid, fs)
    assert d2 == pytest.approx(d1 / 2.0, rel=1e-10)


def test_commutator_rejects_sigma_zero():
    with pytest.raises(ValueError):
        commutator_check(0.0, np.linspace(-1, 1, 11), [lambda x: x])
