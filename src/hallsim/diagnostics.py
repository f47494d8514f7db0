"""Observables: Gauss residual, global Hall ratio, continuity, edge metrics,
matter energy.

Sign conventions (see fields module): the field strength reported as B is
the plaquette curl epsilon^{mn} d_m A_n itself, so consistent states carry
B = e <|psi|^2>_plaquette / sigma_H and the global estimator n e / B_mean
(record_state) returns +sigma_H.

Missing values (0/0 ratios, B below its floor, columns whose input field
was not supplied) are returned as None and serialized as the explicit
sentinel "NA"; zero is a meaningful value here and is never used as a
stand-in.

record_state is the one builder of diagnostics rows and the one place
that computes each of their single-state scalars.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .domain import Domain
from .dynamics import gauge_rate, make_hamiltonian
from .fields import (CurrentField, current_density, density_to_plaquettes,
                     link_divergence, link_phases, plaquette_curl,
                     site_density)

FLOOR = 1e-300
# Kept apart from FLOOR: merging the two would move which sigma_est cells
# read NA.
SIGMA_FLOOR = 1e-12     # |B_mean| below which sigma_est is missing
RHO_STAR = 1e-4         # breakdown: mean density outside the edge band
B_STAR = 1e-4           # breakdown: pure_gauge_max


def gauss_residual_of(src: np.ndarray, rho: np.ndarray, curl: np.ndarray,
                      p) -> tuple:
    """gauss_residual for a given plaquette charge src = <e rho>_plaquette,
    masked site density rho and plaquette curl."""
    r = p.sigma_h * curl - src
    scale = max(p.e * rho.max(initial=0.0),
                abs(p.sigma_h) * np.abs(curl).max(initial=0.0), FLOOR)
    return r, float(np.abs(r).max(initial=0.0) / scale)


def gauss_residual(s) -> tuple:
    """Residual of the Gauss constraint sigma_H curl A = e <|psi|^2>.

    Returns (field, scalar): the per-plaquette residual
    r = sigma_H curl(A) - e <|psi|^2>_plaquette and its sup norm relative to
    max(e ||rho||_inf, |sigma_H| ||curl||_inf).
    """
    d, p = s.domain, s.params
    rho = site_density(s.psi, d)
    return gauss_residual_of(density_to_plaquettes(p.e * rho, d), rho,
                             plaquette_curl(s.a, d), p)


def continuity_residual(prev, nxt, jp: CurrentField, jn: CurrentField,
                        rho_p: np.ndarray, rho_n: np.ndarray) -> float:
    """Centered continuity check between two recorded states.

    Computes || (j0(next) - j0(prev)) / (t_next - t_prev) + div j_bar ||_inf
    with j0 = e rho, rho_p and rho_n the site_density of the two states, and
    j_bar the mean of their link currents jp and jn (their current_density),
    normalized by the current scale max(|j_bar|)/dx.  Second order in the
    recording interval.
    """
    d, p, dt = prev.domain, prev.params, nxt.t - prev.t
    if dt <= 0:
        raise ValueError("continuity_residual needs next.t > prev.t")
    j1b = 0.5 * (jp.j1 + jn.j1)
    j2b = 0.5 * (jp.j2 + jn.j2)
    resid = ((p.e * rho_n - p.e * rho_p) / dt + link_divergence(j1b, j2b, d))
    scale = max(np.abs(j1b).max(initial=0.0), np.abs(j2b).max(initial=0.0)) / d.dx
    return float(np.abs(resid[d.active]).max(initial=0.0) / max(scale, FLOOR))


def edge_fraction_of(j: CurrentField, d: Domain):
    """Share of total |j| carried by links that touch the edge band.

    A link counts when either endpoint lies in d.edge_band, the sites whose
    lattice (BFS) distance from the boundary site set is at most EDGE_WIDTH;
    boundary sites themselves sit at distance 0.
    """
    h, v = d.edge_links
    total = np.abs(j.j1).sum() + np.abs(j.j2).sum()
    if total <= FLOOR:
        return None
    near = np.abs(j.j1[h]).sum() + np.abs(j.j2[v]).sum()
    return float(near / total)


def ohm_residual(prev, cur, nxt) -> float:
    """Hall-law consistency along a run: dA/dt = gauge_rate(j).

    Compares the Hall rate of the middle state's current with the centered
    time difference of the potential on every link, and returns the sup
    mismatch relative to the sup of the rate.  Second order in dt for the
    built-in integrator.
    """
    d, p = cur.domain, cur.params
    dt2 = nxt.t - prev.t
    rate = gauge_rate(current_density(cur.psi, link_phases(cur.a, d, p), d, p),
                      d, p)
    m1 = np.abs((nxt.a.a1 - prev.a.a1) / dt2 - rate.a1).max(initial=0.0)
    m2 = np.abs((nxt.a.a2 - prev.a.a2) / dt2 - rate.a2).max(initial=0.0)
    scale = max(np.abs(rate.a1).max(initial=0.0),
                np.abs(rate.a2).max(initial=0.0), FLOOR)
    return float(max(m1, m2) / scale)


def energy(psi: np.ndarray, a, d: Domain, p) -> float:
    """Matter energy Re<psi|H(A)|psi> dx^2, the only energy of the model.

    The gauge field has no kinetic term and the Hall law moves A transverse
    to j, so E is an invariant of the semi-discrete flow; the coupled
    integrator conserves it to O(dt^2).
    """
    h = make_hamiltonian(link_phases(a, d, p))(psi)
    return float(np.vdot(psi, h).real * d.dx ** 2)


def _cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    return "NA" if v is None else repr(float(v))


@dataclass
class DiagnosticsRecord:
    """Per-step scalar observables; None marks a missing value.

    The field order is the column order of diagnostics.csv; the holonomies
    field expands to one holonomy_<i> column per generator loop.
    """
    t: float
    norm: object = None             # needs psi
    gauss_rel: object = None        # needs psi and A
    continuity_rel: object = None   # needs neighboring records
    n_global: object = None         # needs psi
    B_mean: object = None           # needs A
    sigma_est: object = None        # needs psi and A; None when |B_mean| < floor
    edge_fraction: object = None    # needs psi and A; None when j == 0
    pure_gauge_max: object = None   # needs A
    holonomies: tuple = ()          # wrapped phase (or None) per generator loop
    breakdown: object = None        # bool; needs psi and A

    @staticmethod
    def header(g: int) -> str:
        cols = []
        for f in dataclasses.fields(DiagnosticsRecord):
            if f.name == "holonomies":
                cols += [f"holonomy_{i + 1}" for i in range(g)]
            else:
                cols.append(f.name)
        return ",".join(cols)

    def row(self) -> str:
        cells = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            cells += map(_cell, v) if f.name == "holonomies" else [_cell(v)]
        return ",".join(cells)


def record_state(s, continuity: object = None, current: object = None,
                 density: object = None) -> DiagnosticsRecord:
    """Assemble the scalar diagnostics of one state.

    norm is sum |psi|^2 dx^2 and n_global = norm / area; B_mean is the mean
    plaquette curl over counted plaquettes (0 if there are none) and
    sigma_est = n e / B_mean, with n the mean of the plaquette density
    <|psi|^2> over the same plaquettes: the charge as the Gauss law weighs
    it, so sigma_est = sigma_H on the Gauss surface for any psi, uniform or
    not.  sigma_est is None when |B_mean| < SIGMA_FLOOR.  pure_gauge_max is
    the sup norm of the curl, 0 exactly for pure gauge potentials.
    edge_fraction is edge_fraction_of the state's current.  breakdown flags
    a departure from the pure-gauge edge regime: the mean |psi|^2 over the
    active sites outside the edge band (Domain.edge_band) exceeds RHO_STAR
    AND pure_gauge_max exceeds B_STAR.

    Either s.psi or s.a may be None; every column that needs the missing
    field is then None.  The continuity column needs neighboring records
    and is passed in by the caller (None on the ends of a series); current
    and density, when given, are the state's current_density and
    site_density and are not recomputed.
    """
    from .holonomy import wilson_loop

    d, p = s.domain, s.params
    rec = DiagnosticsRecord(t=s.t, continuity_rel=continuity,
                            holonomies=(None,) * d.g)
    if s.psi is not None:
        rho = site_density(s.psi, d) if density is None else density
        rec.norm = float(rho.sum() * d.dx ** 2)
        rec.n_global = rec.norm / d.area
    if s.a is not None:
        curl = plaquette_curl(s.a, d)
        m = d.n_plaq
        rec.B_mean = float(curl.sum() / m) if m else 0.0
        rec.pure_gauge_max = float(np.abs(curl).max(initial=0.0))
        rec.holonomies = tuple(wilson_loop(s.a, links, d, p).phase
                               for links in d.generator_links)
    if s.psi is not None and s.a is not None:
        src = density_to_plaquettes(p.e * rho, d)
        _, rec.gauss_rel = gauss_residual_of(src, rho, curl, p)
        rec.sigma_est = (None if abs(rec.B_mean) < SIGMA_FLOOR
                         else float(src.sum() / m / rec.B_mean))
        if current is None:
            current = current_density(s.psi, link_phases(s.a, d, p), d, p)
        rec.edge_fraction = edge_fraction_of(current, d)
        rho_in = float(rho[d.interior].mean()) if d.interior.any() else 0.0
        rec.breakdown = rho_in > RHO_STAR and rec.pure_gauge_max > B_STAR
    return rec
