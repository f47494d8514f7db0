# hallsim before numpy: it sets OPENBLAS_NUM_THREADS before numpy loads
# OpenBLAS, so the suite runs with the library's one-thread default
import hallsim  # noqa: F401
import numpy as np
import pytest
from hypothesis import assume, strategies as st

from hallsim import (DomainError, Params, build_corbino, build_rectangle,
                     current_density, link_phases, site_density)
from hallsim.diagnostics import continuity_residual
from hallsim.initial import _mirrors


@pytest.fixture
def rect12():
    return build_rectangle(12, 12, 1.0, [])


@pytest.fixture
def corbino32():
    return build_corbino(32, 1.0, 5.0, 14.0)


@pytest.fixture
def params():
    return Params(sigma_h=1.0, dt=0.05)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def continuity_of_states(prev, nxt):
    """continuity_residual of two states, each with its own link current
    and site density."""
    jp, jn = (current_density(s.psi, link_phases(s.a, s.domain, s.params),
                              s.domain, s.params) for s in (prev, nxt))
    return continuity_residual(prev, nxt, jp, jn,
                               *(site_density(s.psi, s.domain)
                                 for s in (prev, nxt)))


def write_v1(path, kind, array, d):
    """``array`` as an HSFIELD v1 text snapshot of domain ``d``: the header,
    then one ``ix iy re`` (``ix iy re im`` for psi) line per entry in
    row-major order, each float in its shortest round-trip repr."""
    with open(path, "w") as f:
        f.write(f"HSFIELD v1 {kind} {d.nx} {d.ny} {float(d.dx)!r}\n")
        for ix, row in enumerate(array.tolist()):
            if kind == "psi":
                f.write("".join(f"{ix} {iy} {v.real!r} {v.imag!r}\n"
                                for iy, v in enumerate(row)))
            else:
                f.write("".join(f"{ix} {iy} {v!r}\n"
                                for iy, v in enumerate(row)))


# Domains whose masks grid mirrors map onto themselves (initial._mirrors)

@st.composite
def c4_domains(draw):
    """Masks a 90 degree rotation maps onto themselves: squares of even or
    odd side, squares with a centred square hole, Corbino annuli."""
    kind = draw(st.sampled_from(["square", "holed", "corbino"]))
    try:
        if kind == "square":
            n = draw(st.integers(5, 15))
            return build_rectangle(n, n, 1.0, [])
        if kind == "holed":
            n = draw(st.integers(5, 16))
            a = draw(st.integers(1, (n - 1) // 2))
            return build_rectangle(n, n, 1.0, [(a, a, n - 2 * a, n - 2 * a)])
        n = draw(st.integers(12, 20))
        r_outer = draw(st.floats(n / 2 - 1.5, n / 2))
        r_inner = draw(st.floats(1.0, r_outer - 3.5))
        return build_corbino(n, 1.0, r_inner, r_outer)
    except DomainError:         # annulus too thin for its generator loop
        assume(False)


@st.composite
def chiral_c4_domains(draw):
    """Squares with four holes, each the 90 degree rotation of the last, the
    first in the lower-left quadrant and not on the diagonal: C4 masks
    without a mirror, split by the half-turn parity only."""
    n = draw(st.integers(10, 17))
    w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    x0 = draw(st.integers(1, n // 2 - 1 - w))
    y0 = draw(st.integers(1, n // 2 - 1 - h))
    assume((x0, w) != (y0, h))
    holes = [(x0, y0, w, h)]
    for _ in range(3):
        x, y, a, b = holes[-1]
        holes.append((y, n - x - a, b, a))
    try:
        d = build_rectangle(n, n, 1.0, holes)
    except DomainError:         # the rotated holes closer than two sites
        assume(False)
    assert np.array_equal(d.active, np.rot90(d.active))
    assert not np.array_equal(d.active, d.active.T)
    return d


@st.composite
def mirror_domains(draw):
    """Squares with a hole and its mirror image across the main diagonal
    (one hole when it lies on the diagonal), without C4 symmetry: split by
    the transpose parity (and the anti-transpose's, where it applies)."""
    n = draw(st.integers(6, 16))
    w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    x0, y0 = draw(st.integers(1, n - 1 - w)), draw(st.integers(1, n - 1 - h))
    try:
        d = build_rectangle(n, n, 1.0, sorted({(x0, y0, w, h), (y0, x0, h, w)}))
    except DomainError:         # the two holes closer than two sites
        assume(False)
    assume(not np.array_equal(d.active, np.rot90(d.active)))
    assert np.array_equal(d.active, d.active.T)
    return d


@st.composite
def xy_mirror_domains(draw):
    """Rectangles with nx != ny and a centred rectangular hole: the x and y
    mirrors without the diagonal ones, four sectors."""
    nx, ny = draw(st.integers(6, 17)), draw(st.integers(6, 17))
    assume(nx != ny)
    a, b = draw(st.integers(2, (nx - 1) // 2)), draw(st.integers(2, (ny - 1) // 2))
    try:
        d = build_rectangle(nx, ny, 1.0, [(a, b, nx - 2 * a, ny - 2 * b)])
    except DomainError:         # hole too close to the frame or empty
        assume(False)
    assert list(_mirrors(d)) == ["X", "Y", "XY"]
    return d


@st.composite
def axis_mirror_domains(draw):
    """Rectangles with a hole centred along one axis only: the x mirror or
    the y mirror alone, two sectors."""
    axis = draw(st.sampled_from(["X", "Y"]))
    nx, ny = draw(st.integers(6, 17)), draw(st.integers(6, 17))
    a = draw(st.integers(2, (nx - 1) // 2))
    y0, h = draw(st.integers(2, ny - 3)), draw(st.integers(1, 3))
    try:
        if axis == "X":
            d = build_rectangle(nx, ny, 1.0, [(a, y0, nx - 2 * a, h)])
        else:
            d = build_rectangle(ny, nx, 1.0, [(y0, a, h, nx - 2 * a)])
    except DomainError:         # hole too close to the frame or empty
        assume(False)
    assume(list(_mirrors(d)) == [axis])
    return d


@st.composite
def diagonal_mirror_domains(draw):
    """Squares with two square holes on the main diagonal, each the half-turn
    image of the other: the two diagonal mirrors without the axis ones,
    four sectors."""
    w = draw(st.integers(1, 3))
    n = draw(st.integers(2 * w + 6, 17))
    x0 = draw(st.integers(2, (n - 2 * w - 2) // 2))
    d = build_rectangle(n, n, 1.0, [(x0, x0, w, w), (n - x0 - w, n - x0 - w, w, w)])
    assert list(_mirrors(d)) == ["T", "A", "XY"]
    return d
