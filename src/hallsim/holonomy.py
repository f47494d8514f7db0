"""Wilson-loop phases of the gauge potential around homology generators.

On a pure-gauge background the loop integral depends only on the loop's
homology class (lattice Stokes), so these phases are the topological
observables of the edge regime; inserting a flux through a hole shifts the
phase by e*flux/hbar, the lattice Aharonov-Bohm effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Domain, DomainError, LoopLinks, loop_links
from .fields import LinkField


def wrap_phase(x: float) -> float:
    """Wrap a phase to the half-open interval (-pi, pi]."""
    w = math.remainder(float(x), math.tau)
    if w <= -math.pi:
        w += math.tau
    return w


@dataclass(frozen=True)
class LoopPhase:
    raw: float      # unwrapped line integral of A (times dx) along the loop
    phase: float    # (e/hbar) * raw, wrapped to (-pi, pi]


def wilson_loop(a: LinkField, loop, d: Domain, p) -> LoopPhase:
    """Signed line integral of A along a closed lattice loop, and its phase.

    loop is an (L, 2) site loop, checked and indexed by domain.loop_links
    (which raises DomainError naming the first bad step), or a LoopLinks
    table from it, such as Domain.generator_links.  The terms are summed
    one after another in loop order from +0.0, so the sum is that of a
    plain loop.
    """
    links = loop if isinstance(loop, LoopLinks) else loop_links(loop, d)
    vals = np.empty(len(links.sign))
    vals[links.horiz] = a.a1[links.h_links]
    vals[~links.horiz] = a.a2[links.v_links]
    terms = links.sign * vals * d.dx
    raw = np.cumsum(np.concatenate(([0.0], terms)))[-1]
    return LoopPhase(float(raw), wrap_phase(p.e * raw / p.hbar))


def insert_flux(a: LinkField, d: Domain, hole: int, flux: float) -> LinkField:
    """Thread a flux through hole `hole` without touching any counted curl.

    Adds flux/dx to the vertical links crossing a horizontal cut that runs
    from the hole to the right frame; every counted plaquette gains two
    cancelling contributions (or none), so the curl is unchanged while any
    loop winding once around the hole picks up exactly `flux` in its line
    integral.
    """
    if not 0 <= hole < d.g:
        raise DomainError(f"domain has {d.g} hole(s); no hole {hole}")
    cells = d.holes[hole]
    cy = int(round(cells[:, 1].mean()))
    cy = min(max(cy, 0), d.ny - 2)          # cut between rows cy and cy+1
    hole_xmax = int(cells[cells[:, 1] == cy][:, 0].max(initial=cells[:, 0].max()))

    new = a.copy()
    started = False
    for x in range(hole_xmax + 1, d.nx):
        if d.v_active[x, cy]:
            if not started:
                # the plaquette left of the first cut link must be uncounted,
                # so the net flux lands inside the hole
                if x >= 1 and d.plaq_active[x - 1, cy]:
                    raise DomainError(
                        "flux cut does not start at the hole rim; choose a "
                        "different hole row")
                started = True
            new.a2[x, cy] += flux / d.dx
        # inactive stretches are skipped: their neighboring plaquettes are
        # uncounted, so resuming the cut beyond them keeps every counted
        # curl unchanged
    if not started:
        raise DomainError("no active links found right of the hole for the flux cut")
    return new
