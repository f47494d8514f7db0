"""Link-field containers and discrete differential operators.

Conventions (fixed once, used everywhere):

* epsilon_{12} = +1 = -epsilon_{21}.
* The matter field psi is a plain complex array of shape (nx, ny), one
  value per site (dimension 1/length so that |psi|^2 is an areal density);
  site_density is the one owner of the masked |psi|^2.  The gauge potential
  components a1, a2 are real link values on horizontal/vertical links
  (LinkField); currents j1, j2 live on the same links (CurrentField), the
  charge density j0 = e |psi|^2 on sites (charge_density).
* Link (x, y) -> (x+1, y) carries a1[x, y]; link (x, y) -> (x, y+1) carries
  a2[x, y].  Values on links touching inactive sites are identically zero.
* The plaquette curl is the counterclockwise circulation divided by the cell
  area, i.e. the discrete epsilon^{mn} d_m A_n:

      curl(x, y) = (a1[x,y] + a2[x+1,y] - a1[x,y+1] - a2[x,y]) / dx

* Hopping across a link attaches the Peierls phase exp(i e dx a / hbar) in
  the + orientation; the link current uses the same phase, which makes the
  discrete continuity equation exact for the semi-discrete dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Domain


@dataclass
class LinkField:
    """Real value per link: a1 on horizontal links, a2 on vertical links."""
    a1: np.ndarray  # (nx-1, ny)
    a2: np.ndarray  # (nx, ny-1)

    @classmethod
    def zeros(cls, d: Domain) -> "LinkField":
        return cls(np.zeros((d.nx - 1, d.ny)), np.zeros((d.nx, d.ny - 1)))

    def copy(self) -> "LinkField":
        return LinkField(self.a1.copy(), self.a2.copy())


@dataclass
class CurrentField:
    """Charge current per link: j1 on horizontal, j2 on vertical links."""
    j1: np.ndarray
    j2: np.ndarray


def plaquette_curl(a: LinkField, d: Domain) -> np.ndarray:
    """Discrete epsilon^{mn} d_m A_n per plaquette; zero on uncounted ones.

    Only plaquettes whose four links are all active are counted.
    """
    curl = (a.a1[:, :-1] + a.a2[1:, :] - a.a1[:, 1:] - a.a2[:-1, :]) / d.dx
    return np.where(d.plaq_active, curl, 0.0)


def site_gradient(lam: np.ndarray, d: Domain):
    """Forward difference of a site function onto links ((head-tail)/dx)."""
    g1 = (lam[1:, :] - lam[:-1, :]) / d.dx * d.h_active
    g2 = (lam[:, 1:] - lam[:, :-1]) / d.dx * d.v_active
    return g1, g2


def link_divergence(j1: np.ndarray, j2: np.ndarray, d: Domain) -> np.ndarray:
    """Staggered divergence of a link field, per site (adjoint of site_gradient).

    div(x) = (j1[x] - j1[x-e1] + j2[x] - j2[x-e2]) / dx with zero for links
    off the grid; identically zero on inactive sites.
    """
    nx, ny = d.nx, d.ny
    div = np.zeros((nx, ny))
    div[:-1, :] += j1
    div[1:, :] -= j1
    div[:, :-1] += j2
    div[:, 1:] -= j2
    return np.where(d.active, div / d.dx, 0.0)


def apply_gauge(a: LinkField, psi: np.ndarray, lam: np.ndarray, d: Domain,
                p, boundary_constrained: bool = True) -> tuple:
    """Gauge transform: A -> A + grad(lambda), psi -> exp(i e lambda/hbar) psi.

    lam is the gauge function per site (units: phase times hbar/e).  When
    boundary_constrained is set, lambda must vanish on all boundary sites;
    this is the class of transformations the dynamics is insensitive to on a
    domain with boundary.
    """
    if boundary_constrained:
        worst = np.abs(lam[d.boundary_mask]).max(initial=0.0)
        if worst != 0.0:
            raise ValueError(
                f"boundary-constrained gauge function is nonzero on the "
                f"boundary (max |lambda| = {worst})")
    g1, g2 = site_gradient(lam, d)
    a_new = LinkField(a.a1 + g1, a.a2 + g2)
    phase = np.exp(1j * p.e * lam / p.hbar)
    return a_new, np.where(d.active, psi * phase, 0.0)


def kinetic_scale(d: Domain, p) -> float:
    """hbar^2 / 2 mu dx^2, the scale of the kinetic Hamiltonian's stencil."""
    return p.hbar ** 2 / (2.0 * p.mu * d.dx ** 2)


def _theta(x: np.ndarray, d: Domain, p, out: np.ndarray) -> np.ndarray:
    """The Peierls phase e dx x (1/hbar) + 0 of link values x, into out."""
    np.multiply(x, p.e * d.dx, out=out)
    out *= 1.0 / p.hbar
    out += 0.0
    return out


def _exp_i(u: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """exp(i theta) for the theta held in u.imag, in place; times zero
    where mask is False."""
    np.cos(u.imag, out=u.real)
    np.sin(u.imag, out=u.imag)
    np.multiply(u, 0.0, out=u, where=~mask)
    return u


def link_phases(a: LinkField, d: Domain, p, work=None) -> Stencil:
    """H(A), the stencil of the kinetic Hamiltonian with the Peierls phases
    u = exp(i e dx a / hbar) of the potential a: the one form of the phases.

    H is fields.stencil_matrix of the hops u (zero on inactive links), the
    diagonal d.degree and the scale kinetic_scale(d, p), bit for bit, so its
    stored hops are -kinetic_scale(d, p) u.  H and the link current read
    their phases from it, and nothing else exponentiates a link field.  The
    phase theta = e dx a (1/hbar) is formed once per component; its cosine
    is written into the real part of a hop and its sine over theta, held in
    the imaginary part, and the inactive links alone are then multiplied by
    zero in place.  theta is scaled by the reciprocal of hbar, which is how
    numpy divides a complex array by a real scalar, and exp(0 + i theta) is
    (cos theta, sin theta) bit for bit.  Adding +0 to theta turns -0 into
    +0, as the product with a True mask does to sin(-0), so the phases are
    those of np.exp(1j * e * dx * a / hbar) * mask, signed zeros included.

    Without a Workspace, a new stencil is filled whole.  With a
    dynamics.Workspace `work`, H is written into its stencil work.h, which
    is returned; its rows cache the phases of the potential they were last
    written for.  theta is then formed in the float view of work.hq,
    compared bitwise with the work.theta it was last written for, and
    cosine, sine and scale are formed only on the links where it moved.
    The whole stencil, diagonal included, is written as without a
    Workspace when work.phases_of, which only this function reads and
    writes, is not (d, kinetic_scale(d, p)).
    """
    scale = kinetic_scale(d, p)
    if work is None:
        h, fresh, thetas = Stencil((d.nx, d.ny), np.complex128), True, (None, None)
    else:
        h, fresh = work.h, work.phases_of != (d, scale)
        # None until h and theta agree
        thetas, work.phases_of = (work.theta.a1, work.theta.a2), None
    if fresh:
        h.fill(0.0, 0.0, d.degree, scale)
    for (x, mask), cached, row, hop in zip(
            ((a.a1, d.h_active), (a.a2, d.v_active)), thetas, h.coef[:2],
            h.hops()):
        if fresh:           # in place: no link-sized temporaries
            theta = _theta(x, d, p, hop.imag)
            if cached is not None:
                np.copyto(cached, theta)
            np.multiply(_exp_i(hop, mask), -scale, out=hop)
            continue
        free = work.hq.view(np.float64).reshape(-1)[:x.size]
        theta = _theta(x, d, p, free.reshape(x.shape)).reshape(-1)
        cached = cached.reshape(-1)
        moved = np.flatnonzero(theta.view(np.int64) != cached.view(np.int64))
        theta = cached[moved] = theta[moved]
        u = np.empty(theta.shape, dtype=np.complex128)
        u.imag = theta
        _exp_i(u, mask.reshape(-1)[moved])
        # link (i, j) leaves the cell i ny + j of its stencil row
        row[moved + moved // x.shape[1] * (d.ny - x.shape[1])] = np.multiply(
            u, -scale, out=u)
    if work is not None:
        work.phases_of = (d, scale)
    return h


def current_density(psi: np.ndarray, h: Stencil, d: Domain, p,
                    scratch: np.ndarray | None = None) -> CurrentField:
    """Gauge-invariant charge current on the links,

       j(link) = (e hbar / mu dx) Im[ psi*(tail) conj(u) psi(head) ]

    with u the Peierls phase of the link in H = link_phases(a, d, p).  In
    the continuum limit this is (e hbar/mu) Im(psi* d_m psi) - (e^2/mu) A_m
    |psi|^2.  Because u is the hopping phase of the Hamiltonian,
    d_t j0 + div j = 0 (j0 from charge_density) holds exactly for the
    semi-discrete evolution.

    The current reads H's hops, -kinetic_scale(d, p) u, and its one scale
    factor divides that scale back out.  This gives the bits of the current
    of u itself whenever the kinetic scale is a power of two, and that
    current to roundoff otherwise.

    The complex products of each orientation are formed in a new array, or
    in the leading entries of scratch, a C-contiguous complex array of at
    least psi's size that is overwritten.
    """
    scale = p.e * p.hbar / (p.mu * d.dx) / -kinetic_scale(d, p)
    u1, u2 = h.hops()
    j = []
    for tail, u, head, mask in ((psi[:-1, :], u1, psi[1:, :], d.h_active),
                                (psi[:, :-1], u2, psi[:, 1:], d.v_active)):
        out = (None if scratch is None
               else scratch.reshape(-1)[:tail.size].reshape(tail.shape))
        w = np.multiply(tail, u, out=out)   # conj(tail) conj(u) = conj(tail u)
        np.conjugate(w, out=w)
        w *= head
        jl = np.multiply(w.imag, scale)
        jl *= mask
        j.append(jl)
    return CurrentField(*j)


def site_density(psi: np.ndarray, d: Domain) -> np.ndarray:
    """|psi|^2 on active sites, zero elsewhere."""
    return np.where(d.active, np.abs(psi) ** 2, 0.0)


def charge_density(psi: np.ndarray, d: Domain, p) -> np.ndarray:
    """Site charge density j0 = e |psi|^2, zero on inactive sites."""
    return p.e * site_density(psi, d)


# Sites per block of Stencil.apply.  A block's slices of the argument, the
# result, the product and one coefficient row take 16 bytes each per site at
# complex128, 1 MB in all, so they stay in a 2 MB L2 cache while the block's
# five terms are summed (loop tiling: Wolf & Lam, PLDI 1991).
BLOCK_SITES = 16384


class Stencil:
    """A Hermitian five-point lattice operator M on the cells of a grid,
    row-major.

    coef keeps the lower triangle of M in diagonal storage, one row per
    diagonal: at column c, row 0 holds M[c + ny, c] (the hop along e1), row
    1 holds M[c + 1, c] (along e2) and row 2 the diagonal M[c, c].  The
    hops above the diagonal are not stored: M[c, c + ny] is the conjugate
    of M[c + ny, c], which apply forms block by block (a real stencil reads
    the lower row as it is), and likewise along e2.  The entries that would
    couple the end of one grid row to the start of the next are zero.
    stencil_matrix assembles one; fill rewrites its entries in place, so a
    caller that rebuilds the operator each step keeps one.
    """

    def __init__(self, shape, dtype):
        nx, ny = shape
        n = nx * ny
        self.shape = (nx, ny)
        self.coef = np.zeros((3, n), dtype=dtype)
        conj = np.iscomplexobj(self.coef)
        # apply's plan, one entry per block of rows [s, e): the diagonal's
        # coefficients and, per neighbour, the lower hops it reads (views
        # that fill keeps current), the rows [lo, hi) that have that
        # neighbour, its offset and whether the hops are conjugated (the
        # neighbours above of a complex stencil)
        self._blocks = []
        for s in range(0, n, BLOCK_SITES):
            e = min(s + BLOCK_SITES, n)
            terms = []
            for low, step in zip(self.coef[:2], (ny, 1)):
                for off in (step, -step):
                    lo, hi = max(s, -off), min(e, n - off)
                    at = min(off, 0)            # M[r, r + off] sits at r + at
                    if lo < hi:
                        terms.append((low[lo + at:hi + at], lo, hi, off,
                                      conj and off > 0))
            self._blocks.append((self.coef[2, s:e], s, e, terms))

    def fill(self, hop1, hop2, diag, scale) -> "Stencil":
        """Rewrite the entries to scale * (diag - hops); returns self.

        For c' = c + e1, M[c', c] = -scale hop1[c], and M[c, c'] is its
        conjugate, which is not stored; likewise hop2 along e2;
        M[c, c] = scale diag[c].  Scalars broadcast; every input is
        multiplied straight into coef, so no temporary is formed.  The
        inputs' result type must cast safely into coef's dtype (real hops
        into a complex stencil, say), and an array diag must have the
        stencil's shape; otherwise ValueError.
        """
        dtype = np.result_type(hop1, hop2, diag, scale)
        grid = np.shape(diag) or self.shape
        if grid != self.shape or not np.can_cast(dtype, self.coef.dtype):
            raise ValueError(f"Stencil.fill: filling a {self.coef.dtype} stencil "
                             f"over the cells of {self.shape}, but the entries "
                             f"need one over the cells of {grid} that holds "
                             f"{dtype} entries")
        low1, low2 = self.hops()                        # the zeros stay
        np.multiply(hop1, -scale, out=low1)
        np.multiply(hop2, -scale, out=low2)
        np.multiply(diag, scale, out=self.coef[2].reshape(self.shape))
        return self

    def hops(self) -> tuple:
        """Views of the stored hops M[x + e1, x] and M[x + e2, x], of shapes
        (nx - 1, ny) and (nx, ny - 1): one per link of the grid."""
        c = self.coef.reshape(3, *self.shape)
        return c[0, :-1, :], c[1, :, :-1]

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """M x for a C-contiguous array x of the grid's shape (nx, ny);
        ValueError for any other shape.

        The result has x's shape and goes to out (C-contiguous) when given.
        The sites go through in blocks of BLOCK_SITES: each block's row of
        M x is the diagonal term plus the four neighbour terms (along +e1,
        -e1, +e2, -e2), each product formed in one block-sized buffer, into
        which a complex stencil first conjugates the hops of the neighbours
        above.
        """
        if x.shape != self.shape:
            raise ValueError(f"Stencil.apply: a stencil over the cells of "
                             f"{self.shape} applied to an array of shape {x.shape}")
        xf = x.reshape(-1)
        if out is None:
            out = np.empty(x.shape, dtype=np.result_type(self.coef, x))
        y = out.reshape(-1)
        tmp = np.empty(min(BLOCK_SITES, y.size), dtype=y.dtype)
        for diag, s, e, terms in self._blocks:
            np.multiply(diag, xf[s:e], out=y[s:e])
            for coef, lo, hi, off, conj in terms:
                t = tmp[:hi - lo]
                if conj:
                    np.conjugate(coef, out=t)
                    t *= xf[lo + off:hi + off]
                else:
                    np.multiply(coef, xf[lo + off:hi + off], out=t)
                y[lo:hi] += t
        return out

    def entries(self) -> tuple:
        """(rows, cols, values) of the nonzero entries, flat cell indices:
        above and below the diagonal along e1, then along e2, then the
        diagonal, each in cell order; an entry above the diagonal is the
        conjugate of its mirror below."""
        n = self.coef.shape[1]
        parts = []
        for row, off in zip(self.coef, (self.shape[1], 1, 0)):
            cols = np.flatnonzero(row[:n - off])
            vals = row[cols]
            if off:
                parts.append((cols, cols + off, np.conjugate(vals)))
            parts.append((cols + off, cols, vals))
        return tuple(np.concatenate(p) for p in zip(*parts))


def stencil_matrix(shape, hop1, hop2, diag, scale) -> Stencil:
    """scale * (diag - hops): the one assembler of five-point lattice stencils.

    A Stencil over the cells of `shape` whose dtype is the inputs' result
    type; see Stencil.fill for the entries.
    """
    dtype = np.result_type(hop1, hop2, diag, scale)
    return Stencil(shape, dtype).fill(hop1, hop2, diag, scale)


def density_to_plaquettes(rho: np.ndarray, d: Domain) -> np.ndarray:
    """Four-corner mean of a site density, per counted plaquette."""
    avg = 0.25 * (rho[:-1, :-1] + rho[1:, :-1] + rho[:-1, 1:] + rho[1:, 1:])
    return np.where(d.plaq_active, avg, 0.0)

