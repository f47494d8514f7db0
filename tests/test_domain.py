import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hallsim import Domain, DomainError, build_corbino, build_rectangle
from test_dynamics import masked_domains


def winding_number(loop, cx, cy, dx=1.0):
    """Brute-force winding: accumulate the angle swept around (cx, cy)."""
    total = 0.0
    n = len(loop)
    for i in range(n):
        x1, y1 = loop[i][0] * dx - cx, loop[i][1] * dx - cy
        x2, y2 = loop[(i + 1) % n][0] * dx - cx, loop[(i + 1) % n][1] * dx - cy
        a1 = np.arctan2(y1, x1)
        a2 = np.arctan2(y2, x2)
        d = a2 - a1
        while d > np.pi:
            d -= 2 * np.pi
        while d <= -np.pi:
            d += 2 * np.pi
        total += d
    return int(round(total / (2 * np.pi)))


def brute_force_boundary(active):
    nx, ny = active.shape
    out = np.zeros_like(active)
    for ix in range(nx):
        for iy in range(ny):
            if not active[ix, iy]:
                continue
            for dx_, dy_ in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                jx, jy = ix + dx_, iy + dy_
                if not (0 <= jx < nx and 0 <= jy < ny) or not active[jx, jy]:
                    out[ix, iy] = True
                    break
    return out


def test_plain_rectangle_simply_connected():
    d = build_rectangle(8, 8, 1.0, [])
    assert d.g == 0
    assert len(d.generator_loops) == 0
    assert d.active.all()


def test_single_hole():
    d = build_rectangle(16, 16, 1.0, [(6, 6, 4, 4)])
    assert d.g == 1
    assert len(d.generator_loops) == 1
    assert not d.active[6:10, 6:10].any()


def test_broken_generator_loop_rejected_naming_the_step():
    from hallsim.domain import _validate
    d = build_rectangle(16, 16, 1.0, [(6, 6, 4, 4)])
    loop = np.delete(d.generator_loops[0], 3, axis=0)
    broken = Domain(d.nx, d.ny, d.dx, d.active, d.holes, (loop,))
    with pytest.raises(DomainError, match=r"loop sites \(7, 5\) and \(9, 5\)"):
        _validate(broken)


def test_two_hole_winding_matrix():
    d = build_rectangle(32, 32, 1.0, [(5, 5, 4, 4), (18, 20, 6, 5)])
    assert d.g == 2
    for i, loop in enumerate(d.generator_loops):
        for j in range(d.g):
            cx, cy = d.holes[j].mean(axis=0) * d.dx
            expected = 1 if i == j else 0
            assert winding_number(loop, cx, cy) == expected


def test_hole_touching_frame_rejected():
    with pytest.raises(DomainError, match="frame"):
        build_rectangle(16, 16, 1.0, [(0, 5, 3, 3)])
    with pytest.raises(DomainError, match="frame"):
        build_rectangle(16, 16, 1.0, [(13, 5, 3, 3)])
    # adjacent to the frame is still interior: the rim ring uses the frame row
    d = build_rectangle(16, 16, 1.0, [(12, 5, 3, 3)])
    assert d.g == 1


def test_overlapping_holes_rejected():
    with pytest.raises(DomainError, match="overlap"):
        build_rectangle(24, 24, 1.0, [(5, 5, 5, 5), (8, 8, 5, 5)])


def test_too_small_grid_rejected():
    with pytest.raises(DomainError):
        build_rectangle(3, 8, 1.0, [])


def test_boundary_closure(rect12):
    d = build_rectangle(20, 20, 1.0, [(8, 8, 4, 3)])
    assert np.array_equal(d.boundary_mask, brute_force_boundary(d.active))


def test_corbino_basic(corbino32):
    assert corbino32.g == 1
    loops = corbino32.generator_loops
    assert len(loops) == 1
    cx, cy = corbino32.holes[0].mean(axis=0) * corbino32.dx
    assert winding_number(loops[0], cx, cy) == 1


def test_corbino_empty_inner_hole_rejected():
    with pytest.raises(DomainError, match="hole"):
        build_corbino(32, 1.0, 0.5, 14.0)


def test_corbino_bad_radii_rejected():
    with pytest.raises(DomainError):
        build_corbino(32, 1.0, 10.0, 5.0)
    with pytest.raises(DomainError):
        build_corbino(32, 1.0, 5.0, 40.0)


def test_corbino_two_disjoint_rims():
    d = build_corbino(64, 0.5, 4.0, 15.0)
    assert np.array_equal(d.boundary_mask, brute_force_boundary(d.active))
    c = (64 - 1) / 2 * 0.5
    bs = np.argwhere(d.boundary_mask)
    r = np.hypot(bs[:, 0] * 0.5 - c, bs[:, 1] * 0.5 - c)
    mid = (4.0 + 15.0) / 2
    inner, outer = r[r < mid], r[r >= mid]
    assert len(inner) > 0 and len(outer) > 0
    assert inner.max() < outer.min()  # the two rims are separated


def test_no_isolated_sites(corbino32):
    act = corbino32.active
    nbr = np.zeros(act.shape, dtype=int)
    nbr[:-1, :] += act[1:, :]
    nbr[1:, :] += act[:-1, :]
    nbr[:, :-1] += act[:, 1:]
    nbr[:, 1:] += act[:, :-1]
    assert not (act & (nbr == 0)).any()
    assert np.array_equal(corbino32.degree, np.where(act, nbr, 0))


def test_generator_loops_on_active_links(corbino32):
    for d in (corbino32, build_rectangle(20, 20, 1.0, [(4, 4, 3, 3), (12, 12, 4, 4)])):
        for loop in d.generator_loops:
            n = len(loop)
            for i in range(n):
                x1, y1 = loop[i]
                x2, y2 = loop[(i + 1) % n]
                assert abs(x2 - x1) + abs(y2 - y1) == 1
                assert d.active[x1, y1] and d.active[x2, y2]


@given(x0=st.integers(2, 8), y0=st.integers(2, 8),
       w=st.integers(1, 3), h=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_genus_stability_adding_a_hole(x0, y0, w, h):
    base = build_rectangle(24, 24, 1.0, [(16, 16, 3, 3)])
    assert base.g == 1
    # second hole placed in the opposite corner region, always >= 2 sites away
    d = build_rectangle(24, 24, 1.0, [(16, 16, 3, 3), (x0, y0, w, h)])
    assert d.g == base.g + 1


def bfs_distance(active, seeds):
    """Oracle: multi-source 4-neighbor BFS distance over active sites, one
    whole-grid pass per distance level; -1 off-domain."""
    dist = np.full(active.shape, -1, dtype=np.int64)
    frontier = seeds.copy()
    k = 0
    while frontier.any():
        dist[frontier] = k
        grown = np.zeros_like(frontier)
        grown[:-1, :] |= frontier[1:, :]
        grown[1:, :] |= frontier[:-1, :]
        grown[:, :-1] |= frontier[:, 1:]
        grown[:, 1:] |= frontier[:, :-1]
        frontier = grown & active & (dist < 0)
        k += 1
    return dist


@st.composite
def corbino_annuli(draw):
    """Annuli up to 48 x 48 sites, thin ones (split into several rims) too."""
    n = draw(st.integers(6, 48))
    dx = draw(st.sampled_from([1.0, 0.5, 1.7]))
    r_outer = draw(st.floats(1.0, n / 2)) * dx
    r_inner = draw(st.floats(0.2, r_outer / dx - 0.1)) * dx
    try:
        return build_corbino(n, dx, r_inner, r_outer)
    except DomainError:         # no hole, or no room for the generator loop
        assume(False)


@st.composite
def random_masks(draw):
    """Unvalidated domains on arbitrary masks: many components and holes."""
    nx, ny = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    active = rng.random((nx, ny)) < draw(st.floats(0.3, 1.0))
    return Domain(nx, ny, 1.0, active, (), ())


@given(d=masked_domains() | corbino_annuli() | random_masks())
@settings(max_examples=150, deadline=None)
def test_boundary_distance_equals_bfs(d):
    want = bfs_distance(d.active, d.boundary_mask)
    assert d.boundary_distance.dtype == want.dtype
    assert np.array_equal(d.boundary_distance, want)
