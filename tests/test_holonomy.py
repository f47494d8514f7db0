import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hallsim import (DomainError, LinkField, Params, SimState, apply_gauge,
                     build_rectangle, insert_flux, plaquette_curl,
                     site_gradient, wilson_loop, wrap_phase)
from hallsim.cli import records_to_rows, simulate_run
from hallsim.config import build_config
from hallsim.domain import _rect_ring
from test_dynamics import masked_domains


def test_wrap_phase_range_and_values():
    assert wrap_phase(0.0) == 0.0
    assert wrap_phase(math.pi) == pytest.approx(math.pi)
    assert wrap_phase(-math.pi) == pytest.approx(math.pi)   # (-pi, pi] convention
    assert wrap_phase(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_phase(2 * math.pi + 0.3) == pytest.approx(0.3)


@given(st.floats(-50.0, 50.0))
@settings(max_examples=200, deadline=None)
def test_wrap_phase_properties(x):
    w = wrap_phase(x)
    assert -math.pi < w <= math.pi
    assert abs(math.sin(w) - math.sin(x)) < 1e-9
    assert abs(math.cos(w) - math.cos(x)) < 1e-9


def test_wilson_zero_field(corbino32, params):
    lp = wilson_loop(LinkField.zeros(corbino32), corbino32.generator_loops[0],
                     corbino32, params)
    assert lp.raw == 0.0 and lp.phase == 0.0


def test_wilson_gradient_contractible_loop(params, rng):
    # any closed loop of a pure gradient telescopes to zero
    d = build_rectangle(12, 12, 1.0, [])
    lam = rng.integers(-6, 6, size=(12, 12)).astype(float)
    lam[d.boundary_mask] = 0.0
    g1, g2 = site_gradient(lam, d)
    loop = _rect_ring(2, 8, 3, 9)
    lp = wilson_loop(LinkField(g1, g2), loop, d, params)
    assert lp.raw == pytest.approx(0.0, abs=1e-14)


def test_wilson_rejects_inactive_links(corbino32, params):
    # a ring through the hole crosses inactive links
    loop = _rect_ring(14, 17, 14, 17)
    with pytest.raises(DomainError):
        wilson_loop(LinkField.zeros(corbino32), loop, corbino32, params)


def plain_loop_raw(a, loop, d):
    """Reference: the line integral as a plain loop over the steps, in order."""
    raw = 0.0
    n = len(loop)
    for i in range(n):
        x, y = int(loop[i][0]), int(loop[i][1])
        x2, y2 = int(loop[(i + 1) % n][0]), int(loop[(i + 1) % n][1])
        if x2 == x + 1 and y2 == y:
            comp, lx, ly, sign = 1, x, y, +1.0
        elif x2 == x - 1 and y2 == y:
            comp, lx, ly, sign = 1, x - 1, y, -1.0
        elif x2 == x and y2 == y + 1:
            comp, lx, ly, sign = 2, x, y, +1.0
        elif x2 == x and y2 == y - 1:
            comp, lx, ly, sign = 2, x, y - 1, -1.0
        else:
            raise DomainError(
                f"loop sites {(x, y)} and {(x2, y2)} are not 4-adjacent")
        if comp == 1:
            if not d.h_active[lx, ly]:
                raise DomainError(
                    f"loop crosses inactive link ({lx},{ly})->({lx + 1},{ly})")
            raw += sign * a.a1[lx, ly] * d.dx
        else:
            if not d.v_active[lx, ly]:
                raise DomainError(
                    f"loop crosses inactive link ({lx},{ly})->({lx},{ly + 1})")
            raw += sign * a.a2[lx, ly] * d.dx
    return raw


def bits(x):
    return np.float64(x).tobytes()


def negative_zero_terms(d, loop):
    """Signed zeros that make every term of the loop's sum -0.0."""
    a = LinkField(np.full((d.nx - 1, d.ny), -0.0), np.full((d.nx, d.ny - 1), -0.0))
    for (x, y), (sx, sy) in zip(loop, np.roll(loop, -1, axis=0) - loop):
        if sx == -1:
            a.a1[x - 1, y] = 0.0
        if sy == -1:
            a.a2[x, y - 1] = 0.0
    return a


@given(d=masked_domains(), seed=st.integers(0, 2 ** 31),
       zeros=st.sampled_from(["none", "some", "all"]))
@settings(max_examples=40, deadline=None)
def test_wilson_loop_bitwise_equals_plain_loop(d, seed, zeros):
    # "all": the plain loop's sum starts from +0.0, so it is +0.0, not -0.0
    rng = np.random.default_rng(seed)
    p = Params(e=1.3, hbar=0.7)
    a = LinkField(rng.normal(size=(d.nx - 1, d.ny)) * d.h_active,
                  rng.normal(size=(d.nx, d.ny - 1)) * d.v_active)
    if zeros == "some":
        for x in (a.a1, a.a2):
            pick = rng.random(x.shape) < 0.5
            x[pick] = rng.choice([0.0, -0.0], size=int(pick.sum()))
    for loop in d.generator_loops + tuple(lp[::-1] for lp in d.generator_loops):
        if zeros == "all":
            a = negative_zero_terms(d, loop)
        got = wilson_loop(a, loop, d, p)
        raw = plain_loop_raw(a, loop, d)
        assert bits(got.raw) == bits(raw)
        assert bits(got.phase) == bits(wrap_phase(p.e * raw / p.hbar))


@given(d=masked_domains(), seed=st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_generator_links_sum_like_site_loops(d, seed):
    # the per-domain link tables give the site loops' sums bit for bit
    rng = np.random.default_rng(seed)
    p = Params(e=1.3, hbar=0.7)
    a = LinkField(rng.normal(size=(d.nx - 1, d.ny)) * d.h_active,
                  rng.normal(size=(d.nx, d.ny - 1)) * d.v_active)
    assert d.generator_links is d.generator_links      # built once
    assert len(d.generator_links) == d.g
    for links, loop in zip(d.generator_links, d.generator_loops):
        got, want = wilson_loop(a, links, d, p), wilson_loop(a, loop, d, p)
        assert bits(got.raw) == bits(want.raw) == bits(plain_loop_raw(a, loop, d))
        assert bits(got.phase) == bits(want.phase)


@pytest.mark.parametrize("bad", ["skip_site", "through_hole", "reversed", "both"])
def test_wilson_loop_errors_match_plain_loop(corbino32, params, bad):
    # the first bad step along the loop is the one reported
    if bad == "skip_site":
        loop = np.delete(corbino32.generator_loops[0], 5, axis=0)
    elif bad == "through_hole":
        loop = _rect_ring(14, 17, 14, 17)
    elif bad == "reversed":
        loop = _rect_ring(14, 17, 14, 17)[::-1]
    else:
        loop = np.delete(_rect_ring(14, 17, 14, 17), 9, axis=0)
    a = LinkField.zeros(corbino32)
    with pytest.raises(DomainError) as want:
        plain_loop_raw(a, loop, corbino32)
    with pytest.raises(DomainError) as got:
        wilson_loop(a, loop, corbino32, params)
    assert str(got.value) == str(want.value)


def test_flux_insertion_aharonov_bohm(corbino32, params):
    for phi in (0.1, 1.0, math.pi):
        a = insert_flux(LinkField.zeros(corbino32), corbino32, 0, phi)
        assert np.abs(plaquette_curl(a, corbino32)).max() == 0.0
        lp = wilson_loop(a, corbino32.generator_loops[0], corbino32, params)
        expect = wrap_phase(params.e * phi / params.hbar)
        assert lp.phase == pytest.approx(expect, abs=1e-10)


def test_flux_phase_invariant_under_loop_deformation(corbino32, params):
    a = insert_flux(LinkField.zeros(corbino32), corbino32, 0, 1.7)
    base = wilson_loop(a, corbino32.generator_loops[0], corbino32, params).phase
    for lo, hi in ((9, 22), (8, 23), (10, 21)):
        ring = _rect_ring(lo, hi, lo, hi)
        ph = wilson_loop(a, ring, corbino32, params).phase
        assert ph == pytest.approx(base, abs=1e-10)


def test_flux_on_rectangle_hole(params):
    d = build_rectangle(20, 20, 1.0, [(8, 8, 4, 4)])
    a = insert_flux(LinkField.zeros(d), d, 0, 0.6)
    assert np.abs(plaquette_curl(a, d)).max() == 0.0
    lp = wilson_loop(a, d.generator_loops[0], d, params)
    assert lp.phase == pytest.approx(0.6, abs=1e-12)


def test_flux_requires_a_hole(params):
    d = build_rectangle(12, 12, 1.0, [])
    with pytest.raises(DomainError):
        insert_flux(LinkField.zeros(d), d, 0, 1.0)


# dx = 1/2, where insert_flux's 1/dx matters; 100 steps of dt = 0.0125
FLUX_RUNS = {
    "corbino-rim": {"shape": "corbino", "n": "40", "r_inner": "2.5",
                    "r_outer": "9.5", "psi0": "rim"},
    "two-hole-packet": {"nx": "40", "ny": "24", "holes": "6,8,6,6;24,8,6,6",
                        "psi0": "gaussian"},
}


@pytest.mark.parametrize("run", FLUX_RUNS)
def test_flux_quantum_leaves_a_run_unchanged(run):
    # threading one flux quantum 2 pi hbar/e through hole 0 changes no
    # gauge-invariant observable of the run (Byers and Yang), so every row
    # matches the zero-flux run but for gauss_rel (a roundoff value); half
    # a quantum changes the field strength the run develops
    def run_rows(flux):
        cfg = build_config({"dx": "0.5", "dt": "0.0125", "steps": "100",
                            "record_every": "20", "flux": repr(flux),
                            **FLUX_RUNS[run]})
        return records_to_rows(simulate_run(cfg)[2])

    def table(rows):
        # every column but gauss_rel and the holonomies, None as nan
        return np.array([[math.nan if v is None else float(v)
                          for k, v in vars(r).items()
                          if k not in ("gauss_rel", "holonomies")]
                         for r in rows])

    ref = run_rows(0.0)
    for quanta in (1, 2):
        got = run_rows(2 * math.pi * quanta)
        assert np.allclose(table(got), table(ref), rtol=1e-12, atol=0.0,
                           equal_nan=True)
        turn = (np.array([r.holonomies for r in got])
                - [r.holonomies for r in ref])
        assert np.abs(np.angle(np.exp(1j * turn))).max() <= 1e-13
    half = run_rows(math.pi)
    change = max(abs(h.B_mean / r.B_mean - 1.0) for h, r in zip(half, ref))
    print(f"{run}: flux pi changes B_mean by up to {change:.2e} relative")
    assert change > 1e-4


def test_wilson_phase_gauge_invariant(corbino32, params, rng):
    a = insert_flux(LinkField.zeros(corbino32), corbino32, 0, 1.2)
    psi = np.zeros((corbino32.nx, corbino32.ny), dtype=complex)
    base = wilson_loop(a, corbino32.generator_loops[0], corbino32, params).phase
    for _ in range(5):
        lam = rng.normal(size=(32, 32)) * 1.5
        lam[corbino32.boundary_mask] = 0.0
        lam[~corbino32.active] = 0.0
        a2, _ = apply_gauge(a, psi, lam, corbino32, params)
        ph = wilson_loop(a2, corbino32.generator_loops[0], corbino32, params).phase
        assert ph == pytest.approx(base, abs=5e-13)


def holonomy_drift(states, loop):
    """Largest wrapped excursion of the loop phase from the first state's."""
    base = wilson_loop(states[0].a, loop, states[0].domain, states[0].params).phase
    return max(abs(wrap_phase(wilson_loop(s.a, loop, s.domain, s.params).phase
                              - base)) for s in states[1:])


def test_holonomy_drift_static(corbino32, params):
    a = insert_flux(LinkField.zeros(corbino32), corbino32, 0, 0.9)
    psi = np.zeros((corbino32.nx, corbino32.ny), dtype=complex)
    states = [SimState(corbino32, params, psi, a, 0.1 * i) for i in range(5)]
    assert holonomy_drift(states, corbino32.generator_loops[0]) == 0.0


def test_holonomy_drift_edge_vs_bulk(corbino32):
    # low-density rim state: the loop holonomy barely moves; a dense bulk
    # packet drives the links hard and the drift is orders of magnitude larger
    from hallsim import (Workspace, advance, gaussian_packet,
                         initialize_consistent, rim_pair_state)
    p = Params(sigma_h=1.0, dt=0.05)
    loop = corbino32.generator_loops[0]

    def drift_of(psi0, steps=100):
        s = initialize_consistent(corbino32, psi0, p)
        states = [s]
        work = Workspace(corbino32)
        for _ in range(steps):
            states.append(advance(states[-1], work))
        return holonomy_drift(states, loop)

    d_edge = drift_of(rim_pair_state(corbino32, p, norm=1e-6))
    d_bulk = drift_of(gaussian_packet(corbino32, (25.0, 15.5), 1.5, (0.0, 0.4),
                                      norm=10.0))
    assert d_edge < 1e-5
    assert d_bulk > 100 * d_edge
