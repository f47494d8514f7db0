"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  The
shared 32x32 reference run uses a band-limited Gaussian packet (energy
cutoff 0.05) so the second-order time-discretization diagnostics sit well
inside their tolerances while remaining far above roundoff for the
dt-halving ratio checks.
"""

import filecmp
import math

import numpy as np
import pytest

from hallsim import (LinkField, Params, SimState, Workspace, advance,
                     apply_gauge, band_limited, build_corbino, build_rectangle,
                     gaussian_packet, initialize_consistent, insert_flux,
                     plaquette_curl, rim_pair_state, uniform_state,
                     wilson_loop, wrap_phase)
from hallsim.diagnostics import gauss_residual, ohm_residual, record_state
from hallsim.domain import EDGE_WIDTH, _rect_ring
from hallsim.quantization import single_valuedness_scan

from conftest import continuity_of_states
from test_quantization import scaled_bracket


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


def reference_psi0(d, p):
    psi = gaussian_packet(d, ((d.nx - 1) / 2.0, (d.ny - 1) / 2.0), 3.0,
                          (0.12, 0.0), norm=1.0)
    return band_limited(psi, d, p, ecut=0.05, norm=1.0)


def evolve(s, steps):
    states = [s]
    work = Workspace(s.domain)
    for _ in range(steps):
        states.append(advance(states[-1], work))
    return states


@pytest.fixture(scope="module")
def run_dt(request):
    d = build_rectangle(32, 32, 1.0, [])
    p = Params(sigma_h=1.0, dt=0.05)
    s = initialize_consistent(d, reference_psi0(d, p), p)
    return evolve(s, 500)


@pytest.fixture(scope="module")
def run_half_dt():
    d = build_rectangle(32, 32, 1.0, [])
    p = Params(sigma_h=1.0, dt=0.025)
    s = initialize_consistent(d, reference_psi0(d, p), p)
    return evolve(s, 1000)


@pytest.fixture(scope="module")
def run_long():
    d = build_rectangle(32, 32, 1.0, [])
    p = Params(sigma_h=1.0, dt=0.05)
    s = initialize_consistent(d, reference_psi0(d, p), p)
    return evolve(s, 1000)


@pytest.fixture(scope="module")
def edge_and_bulk_runs():
    d = build_corbino(32, 1.0, 5.0, 14.0)
    p = Params(sigma_h=1.0, dt=0.05)
    edge0 = initialize_consistent(d, rim_pair_state(d, p, norm=1e-7), p)
    bulk0 = initialize_consistent(
        d, gaussian_packet(d, (25.0, 15.5), 2.0, (0.0, 0.3), norm=10.0), p)
    return evolve(edge0, 500), evolve(bulk0, 500)


def test_criterion_01_quantization_spectrum():
    # the mismatch |exp(2 pi i sigma l / hbar) - 1| of F(R) exp(i sigma l phi
    # / hbar) between phi = 0 and 2 pi does not depend on the radial profile
    # F, so the allowed set is checked once
    cands = [0.25 * i for i in range(21)]
    spec = single_valuedness_scan(cands, l=1.0, hbar=1.0, tol=1e-9)
    ok = (spec.allowed == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
          and spec.allowed_nonnegative == spec.allowed)
    report(1, ok, f"allowed set = {sorted(spec.allowed)} of {len(cands)} "
                  "candidates 0, 0.25, ..., 5")


def test_criterion_02_global_hall_relation():
    # uniform states, and non-uniform ones whose charge the Gauss law
    # weighs differently from the site norm: a packet, a packet beside a
    # hole, and the rim state of a Corbino annulus
    square = build_rectangle(32, 32, 1.0, [])
    holed = build_rectangle(32, 32, 1.0, [(16, 12, 8, 8)])
    corbino = build_corbino(64, 1.0, 10.0, 30.0)
    cases = [(square, sh, lambda d, p: uniform_state(d, norm=1.0))
             for sh in (1.0, 2.0, 3.0)]
    cases += [(square, sh, lambda d, p: gaussian_packet(d, (15.5, 15.5), 4.0))
              for sh in (1.0, 3.0)]
    cases += [(holed, 1.0, lambda d, p: gaussian_packet(d, (10.0, 15.5), 3.0,
                                                        (0.3, 0.1))),
              (corbino, 1.0, lambda d, p: rim_pair_state(d, p, 1.0))]
    worst = 0.0
    for d, sh, psi0 in cases:
        p = Params(sigma_h=sh, dt=0.05)
        s = initialize_consistent(d, psi0(d, p), p)
        worst = max(worst, abs(record_state(s).sigma_est - sh))
    report(2, worst <= 1e-8, f"max |sigma_est - sigma_H| = {worst:.3e} over "
                             f"{len(cases)} states (tol 1e-8)")


def _worst_ohm(states):
    return max(ohm_residual(states[i - 1], states[i], states[i + 1])
               for i in range(1, len(states) - 1))


def test_criterion_03_ohm_law_consistency(run_dt, run_half_dt):
    e1 = _worst_ohm(run_dt)
    e2 = _worst_ohm(run_half_dt)
    ratio = e1 / e2
    ok = e1 <= 5e-3 and 3.5 <= ratio <= 4.5
    report(3, ok, f"rel Linf mismatch = {e1:.3e} (tol 5e-3), "
                  f"dt-halving ratio = {ratio:.2f} (expect ~4)")


def test_criterion_04_constraint_preservation(run_long):
    worst = max(gauss_residual(s)[1] for s in run_long)
    report(4, worst <= 1e-6,
           f"max relative Gauss residual over 1000 steps = {worst:.3e} (tol 1e-6)")


def test_criterion_05_continuity(run_dt, run_half_dt):
    r1 = max(continuity_of_states(run_dt[i - 1], run_dt[i + 1])
             for i in range(1, len(run_dt) - 1))
    r2 = max(continuity_of_states(run_half_dt[i - 1], run_half_dt[i + 1])
             for i in range(1, len(run_half_dt) - 1))
    ratio = r1 / r2
    ok = r1 <= 1e-6 and 3.6 <= ratio <= 4.4
    report(5, ok, f"max continuity residual = {r1:.3e} (tol 1e-6), "
                  f"dt-halving ratio = {ratio:.2f} (window [3.6, 4.4])")


def test_criterion_06_unitarity(run_long):
    norms = [record_state(s).norm for s in run_long]
    drift = max(abs(n - norms[0]) / norms[0] for n in norms)
    report(6, drift <= 1e-10,
           f"norm drift over 1000 steps = {drift:.3e} (tol 1e-10)")


def test_criterion_07_gauge_invariance_suite(run_dt, edge_and_bulk_runs):
    rng = np.random.default_rng(7)
    worst = 0.0

    def check(state, loops=()):
        # every gauge-invariant scalar of the state's diagnostics row
        nonlocal worst
        d, p = state.domain, state.params
        base = record_state(state)
        base_ph = [wilson_loop(state.a, lp, d, p).phase for lp in loops]
        for _ in range(10):
            lam = rng.normal(size=(d.nx, d.ny)) * 2.0
            lam[~d.active] = 0.0
            lam[d.boundary_mask] = 0.0
            a2, psi2 = apply_gauge(state.a, state.psi, lam, d, p)
            got = record_state(SimState(d, p, psi2, a2, state.t))
            for name in ("gauss_rel", "sigma_est", "B_mean", "edge_fraction",
                         "pure_gauge_max", "norm", "n_global"):
                ref = getattr(base, name) or 0.0
                delta = abs((getattr(got, name) or 0.0) - ref) / max(abs(ref), 1.0)
                worst = max(worst, delta)
            if got.breakdown != base.breakdown:
                worst = math.inf
            for lp, ref in zip(loops, base_ph):
                ph = wilson_loop(a2, lp, d, p).phase
                worst = max(worst, abs(wrap_phase(ph - ref)))

    check(run_dt[-1])                                # 10 transforms, rectangle
    _, bulk_states = edge_and_bulk_runs
    d = bulk_states[-1].domain
    check(bulk_states[-1],
          loops=[d.generator_loops[0], _rect_ring(9, 22, 9, 22)])  # 10 more
    report(7, worst <= 1e-12,
           f"max relative change over 20 boundary-vanishing transforms = "
           f"{worst:.3e} (tol 1e-12)")


def test_criterion_08_aharonov_bohm_holonomy():
    d = build_corbino(32, 1.0, 5.0, 14.0)
    p = Params(sigma_h=1.0, dt=0.05)
    worst_phase = 0.0
    worst_deform = 0.0
    for phi in (0.1, 1.0, math.pi):
        a = insert_flux(LinkField.zeros(d), d, 0, phi)
        assert np.abs(plaquette_curl(a, d)).max() == 0.0
        base = wilson_loop(a, d.generator_loops[0], d, p).phase
        worst_phase = max(worst_phase,
                          abs(wrap_phase(base - p.e * phi / p.hbar)))
        for lo, hi in ((8, 23), (9, 22), (10, 21)):
            ph = wilson_loop(a, _rect_ring(lo, hi, lo, hi), d, p).phase
            worst_deform = max(worst_deform, abs(wrap_phase(ph - base)))
    ok = worst_phase <= 1e-10 and worst_deform <= 1e-10
    report(8, ok, f"max |phase - e*flux/hbar mod 2pi| = {worst_phase:.3e}, "
                  f"max deformation change = {worst_deform:.3e} (tol 1e-10)")


def test_criterion_09_edge_regime(edge_and_bulk_runs):
    edge_states, bulk_states = edge_and_bulk_runs
    d = edge_states[0].domain

    rho0 = np.abs(edge_states[0].psi) ** 2
    interior = d.active & (d.boundary_distance > EDGE_WIDTH)
    interior_ratio = float(rho0[interior].max() / rho0.max())

    edge_rows = [record_state(s) for s in edge_states]
    bulk_rows = [record_state(s) for s in bulk_states]
    ef_min = min(r.edge_fraction for r in edge_rows)
    pg_edge = max(r.pure_gauge_max for r in edge_rows)
    pg_bulk = min(r.pure_gauge_max for r in bulk_rows)
    edge_flags = any(r.breakdown for r in edge_rows)
    bulk_flags = any(r.breakdown for r in bulk_rows)

    ok = (interior_ratio < 1e-8 and ef_min >= 0.9
          and pg_edge <= 1e-6 * pg_bulk
          and bulk_flags and not edge_flags)
    report(9, ok,
           f"initial interior density/peak = {interior_ratio:.1e} (<1e-8), "
           f"min edge_fraction(k=3) = {ef_min:.3f} (>=0.9), "
           f"curl sup edge/bulk = {pg_edge / pg_bulk:.2e} (<=1e-6), "
           f"breakdown: bulk={bulk_flags}, edge={edge_flags}")


def test_criterion_10_commutator_representation():
    # [abar1, abar2] = i hbar {abar1, abar2} with the lattice Poisson
    # bracket of the Hall dynamics: sigma_H area {abar1, abar2} -> -1 at
    # second order in dx on the square of side 16, for either sign of
    # sigma_H
    def error(k, sigma_h):
        d = build_rectangle(16 * k, 16 * k, 1.0 / k)
        return abs(scaled_bracket(d, sigma_h) + 1.0)

    errs = {s: [error(k, s) for k in (1, 2, 4)] for s in (1.0, -2.0)}
    ratios = [e[i] / e[i + 1] for e in errs.values() for i in range(2)]
    ok = (all(3.5 <= r <= 4.5 for r in ratios) and errs[1.0][-1] < 2e-4
          and np.allclose(errs[1.0], errs[-2.0], rtol=1e-12, atol=0.0))
    report(10, ok, f"|sigma_H area {{abar1, abar2}} + 1| = "
                   + ", ".join(f"{e:.2e}" for e in errs[1.0])
                   + " at dx = 1, 1/2, 1/4; dx-halving ratios = "
                   + ", ".join(f"{r:.2f}" for r in ratios[:2])
                   + " (expect ~4); sigma_H = -2 gives the same")


def test_criterion_11_determinism(tmp_path):
    from hallsim.cli import main
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("""
nx = 32
ny = 32
steps = 100
record_every = 1
psi0 = gaussian
psi0_width = 3.0
psi0_kx = 0.12
psi0_ecut = 0.05
""")
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    names = ["diagnostics.csv"] + [f"{t}_{k}.hsfield"
                                   for t in ("initial", "final")
                                   for k in ("psi", "a1", "a2")]
    match, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], names,
                                               shallow=False)
    ok = mismatch == [] and errors == [] and len(match) == len(names)
    report(11, ok, f"{len(match)}/{len(names)} artifacts byte-identical "
                   "across repeated runs")
