"""Rim states and band limits from the grid-mirror sectors of the free H."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hallsim import (Domain, DomainError, Params, band_limited, build_corbino,
                     build_rectangle, dense_hamiltonian, gaussian_packet,
                     normalize, rim_pair_state)
from hallsim.initial import (DEGENERACY_TOL, MAX_BLOCK_SITES, MIN_RIM_WEIGHT,
                             _free_modes, _mirrors, circulation)

from test_dynamics import masked_domains

P = Params(dt=0.05)


def padded_corbino():
    """The acceptance annulus on a 33 x 34 grid: symmetric about a point that
    is not the grid centre, so no grid mirror maps the mask onto itself."""
    d = build_corbino(32, 1.0, 5.0, 14.0)
    return Domain(33, 34, 1.0, np.pad(d.active, ((0, 1), (0, 2))), d.holes,
                  d.generator_loops)


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


def unit(v):
    return v / np.linalg.norm(v)


def sign_matched_overlap(ref, got):
    """|<ref|got>| for unit vectors, ref or its conjugate, whichever is larger."""
    ref, got = unit(ref.ravel()), unit(got.ravel())
    return max(abs(np.vdot(ref, got)), abs(np.vdot(ref.conj(), got)))


def dense_rim_oracle(d, w, V, sites, band=3):
    """(state, clear) of the whole-domain dense path: the first adjacent pair
    of highest least band weight, (u + i v)/sqrt(2) truncated to the band;
    state is None when no pair reaches MIN_RIM_WEIGHT.

    clear is False when roundoff or the basis inside an eigenspace could
    change the pairing or the choice.  For any orthonormal pair of vectors
    in a cluster of degenerate eigenvalues, the lesser band weight is at most
    the mean of the two largest eigenvalues of the cluster's band-weight
    matrix; in a cluster of two it is at least the smallest one."""
    in_band = d.boundary_distance[sites[:, 0], sites[:, 1]] <= band
    tol = DEGENERACY_TOL * max(abs(w[0]), abs(w[-1]), 1.0)
    gaps = np.abs(np.diff(w))
    clear = not np.any((gaps > 0.1 * tol) & (gaps < 10 * tol))
    pairs = np.flatnonzero(gaps <= tol)
    if not pairs.size:
        return None, clear
    score = [min((V[in_band, i] ** 2).sum(), (V[in_band, i + 1] ** 2).sum())
             for i in pairs]
    i = pairs[int(np.argmax(score))]
    starts = np.flatnonzero(np.r_[True, gaps > tol])
    hi, lo = {}, None
    for a, b in zip(starts, np.r_[starts[1:], len(w)]):
        if b - a >= 2:
            lam = np.linalg.eigvalsh(V[in_band, a:b].T @ V[in_band, a:b])
            hi[a] = lam[-2:].mean()
            if a == i and b - a == 2:
                lo = lam[0]
    if max(score) < MIN_RIM_WEIGHT:
        return None, clear and max(hi.values()) < MIN_RIM_WEIGHT - 1e-9
    others = [h for a, h in hi.items() if a != i]
    clear &= lo is not None and lo > max([MIN_RIM_WEIGHT] + others) + 1e-9
    vec = np.where(in_band, (V[:, i] + 1j * V[:, i + 1]) / np.sqrt(2.0), 0.0)
    psi = np.zeros((d.nx, d.ny), dtype=complex)
    psi[sites[:, 0], sites[:, 1]] = vec
    return psi, clear


@pytest.mark.parametrize("n, r_inner, r_outer", [(64, 10.0, 30.0), (32, 5.0, 14.0)])
def test_rim_state_circulates_counter_clockwise(n, r_inner, r_outer):
    d = build_corbino(n, 1.0, r_inner, r_outer)
    psi = rim_pair_state(d, P, norm=1.0)
    assert circulation(psi, d, P) > 0.0
    assert circulation(psi.conj(), d, P) == -circulation(psi, d, P)


def test_padded_annulus_uses_trivial_group_and_same_state():
    d = padded_corbino()
    assert not _mirrors(d) and len(_free_modes(d, P, "test")) == 1
    corbino = build_corbino(32, 1.0, 5.0, 14.0)
    assert np.array_equal(corbino.active, np.rot90(corbino.active))
    assert np.array_equal(corbino.active, corbino.active.T)
    psi = rim_pair_state(d, P, norm=1.0)
    ref = rim_pair_state(corbino, P, norm=1.0)
    assert circulation(psi, d, P) > 0.0
    assert np.abs(psi[:32, :32] - ref).max() <= 1e-12
    assert np.all(psi[32] == 0.0) and np.all(psi[:, 32:] == 0.0)


@pytest.mark.parametrize("domain", [lambda: build_corbino(32, 1.0, 5.0, 14.0),
                                    padded_corbino],
                         ids=["c4", "trivial"])
def test_rim_state_independent_of_eigensolver_basis(domain, monkeypatch):
    # eigenvectors come back with arbitrary signs (every block is real) and,
    # inside each degenerate pair, an arbitrary rotation
    d = domain()
    ref = rim_pair_state(d, P, norm=1.0)
    rng = np.random.default_rng(7)
    eigh = np.linalg.eigh

    def scrambled_eigh(a):
        w, V = eigh(a)
        assert not np.iscomplexobj(V)           # every sector block is real
        V = V * rng.choice([-1.0, 1.0], V.shape[1])
        tol = DEGENERACY_TOL * max(abs(w[0]), abs(w[-1]), 1.0)
        for i in np.flatnonzero(np.abs(np.diff(w)) <= tol):
            theta = 2 * np.pi * rng.random()
            c, s = np.cos(theta), np.sin(theta)
            V[:, i:i + 2] = V[:, i:i + 2] @ np.array([[c, s], [-s, c]])
        return w, V

    monkeypatch.setattr(np.linalg, "eigh", scrambled_eigh)
    for _ in range(3):
        assert np.abs(rim_pair_state(d, P, norm=1.0) - ref).max() <= 1e-12


def test_rim_pair_needs_eigenvalues_within_degeneracy_tol(monkeypatch):
    # the trivial group solves one block, so each degenerate pair comes back
    # from one eigh; splitting every pair by delta times the spectrum scale
    # keeps the state for delta below DEGENERACY_TOL = 1e-9 and leaves no
    # pair above it
    d = padded_corbino()
    ref = rim_pair_state(d, P, norm=1.0)
    eigh = np.linalg.eigh

    def split(delta):
        def split_eigh(a):
            w, V = eigh(a)
            w[1::2] += delta * max(abs(w[0]), abs(w[-1]), 1.0)
            return w, V
        monkeypatch.setattr(np.linalg, "eigh", split_eigh)

    split(1e-10)
    assert np.abs(rim_pair_state(d, P, norm=1.0) - ref).max() <= 1e-15
    split(1e-7)
    with pytest.raises(DomainError, match="no degenerate rim-localized"):
        rim_pair_state(d, P, norm=1.0)


@pytest.mark.parametrize("domain, band", [
    (lambda: build_rectangle(12, 12, 1.0, []), 2),
    (lambda: build_rectangle(15, 15, 1.0, []), 3),
    (lambda: build_corbino(64, 1.0, 10.0, 30.0), 3),
], ids=["square12-band2", "square15-band3", "corbino64"])
def test_rim_state_independent_of_eigenvalue_roundoff(domain, band, monkeypatch):
    # exactly degenerate eigenvalues of different sectors, and pairs of equal
    # band weight, come back in an order roundoff decides: moving every
    # eigenvalue by one ulp, up or down, leaves the state (or the error) as is
    d = domain()

    def rim():
        try:
            return rim_pair_state(d, P, norm=1.0)
        except DomainError as err:
            return str(err)

    monkeypatch.setattr("hallsim.domain.EDGE_WIDTH", band)

    ref = rim()
    rng = np.random.default_rng(3)
    signs = {"up": lambda n: np.ones(n), "down": lambda n: -np.ones(n),
             "alternate": lambda n: (-1.0) ** np.arange(n),
             "random": lambda n: rng.choice([-1.0, 1.0], n)}
    eigh = np.linalg.eigh
    for pattern in ("up", "down", "alternate", "random", "random"):
        def nudged_eigh(a, sign=signs[pattern]):
            w, V = eigh(a)
            return np.nextafter(w, sign(len(w)) * np.inf), V

        monkeypatch.setattr(np.linalg, "eigh", nudged_eigh)
        got = rim()
        if isinstance(ref, str):
            assert got == ref
        else:
            assert not isinstance(got, str) and np.array_equal(got, ref)


def check_against_dense_oracle(d, seed, band):
    """The sector spectrum, the band_limited projector and, where the choice
    is clear-cut, the rim state against the eigensolve of the whole dense H."""
    H, sites = dense_hamiltonian((d.h_active, d.v_active), d, P)
    w, V = np.linalg.eigh(H)
    scale = max(abs(w[0]), abs(w[-1]), 1.0)
    sectors = _free_modes(d, P, "test")
    merged = np.sort(np.concatenate([s.w for s in sectors]))
    assert np.abs(merged - np.linalg.eigvalsh(H)).max() <= 1e-12 * scale

    # band limit with the cut inside a gap of the spectrum
    rng = np.random.default_rng(seed)
    gaps = np.flatnonzero(np.diff(w) > 1e-3 * scale)
    k = rng.choice(gaps)
    ecut = 0.5 * (w[k] + w[k + 1])
    psi = np.where(d.active, rng.normal(size=(d.nx, d.ny))
                   + 1j * rng.normal(size=(d.nx, d.ny)), 0.0)
    keep = V[:, w <= ecut]
    ref = np.zeros_like(psi)
    ref[sites[:, 0], sites[:, 1]] = keep @ (keep.T @ psi[sites[:, 0], sites[:, 1]])
    ref = normalize(ref, d, 1.0)
    assert np.abs(band_limited(psi, d, P, ecut, norm=1.0) - ref).max() <= 1e-12

    rim, clear = dense_rim_oracle(d, w, V, sites, band)
    if not clear:
        return
    with mock.patch("hallsim.domain.EDGE_WIDTH", band):
        if rim is None:
            with pytest.raises(DomainError, match="rim"):
                rim_pair_state(d, P, norm=1.0)
        else:
            got = rim_pair_state(d, P, norm=1.0)
            assert sign_matched_overlap(rim, got) >= 1 - 1e-12


@given(d=st.one_of(c4_domains(), masked_domains()), seed=st.integers(0, 2 ** 31),
       band=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_sector_modes_match_dense_oracle(d, seed, band):
    check_against_dense_oracle(d, seed, band)


@given(d=chiral_c4_domains(), seed=st.integers(0, 2 ** 31), band=st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_chiral_c4_modes_match_dense_oracle(d, seed, band):
    check_against_dense_oracle(d, seed, band)


@given(d=mirror_domains(), seed=st.integers(0, 2 ** 31), band=st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_mirror_parity_modes_match_dense_oracle(d, seed, band):
    check_against_dense_oracle(d, seed, band)


@given(d=st.one_of(xy_mirror_domains(), axis_mirror_domains(),
                   diagonal_mirror_domains()),
       seed=st.integers(0, 2 ** 31), band=st.integers(1, 3))
@settings(max_examples=45, deadline=None)
def test_abelian_mirror_modes_match_dense_oracle(d, seed, band):
    check_against_dense_oracle(d, seed, band)


def chiral_square():
    """A 12 x 12 square with four holes, each the 90 degree rotation of the
    last: C4 without a mirror, two half-turn blocks of 68 rows."""
    return build_rectangle(12, 12, 1.0, [(2, 3, 2, 1), (3, 8, 1, 2),
                                         (8, 8, 2, 1), (8, 2, 1, 2)])


@pytest.mark.parametrize("domain, blocks", [
    # D4: the four characters of X and T, then (X: +1, Y: -1), whose
    # transpose is the sixth sector
    (lambda: build_corbino(64, 1.0, 10.0, 30.0),
     [(321, "f8"), (307, "f8"), (321, "f8"), (307, "f8"), (628, "f8")]),
    # the x and y mirrors of a 14 x 19 grid with a centred hole
    (lambda: build_rectangle(14, 19, 1.0, [(5, 7, 4, 5)]),
     [(64, "f8"), (59, "f8"), (64, "f8"), (59, "f8")]),
    # C4 without a mirror: the half-turn parities
    (chiral_square, [(68, "f8"), (68, "f8")]),
], ids=["mirror-annulus", "xy-rectangle", "chiral"])
def test_eigensolved_blocks(domain, blocks, monkeypatch):
    d = domain()
    calls = []
    eigh = np.linalg.eigh

    def recording_eigh(a):
        calls.append((a.shape[0], a.dtype.str[1:]))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    sectors = _free_modes(d, P, "test")
    assert calls == blocks
    assert all(s.V.dtype == np.float64 for s in sectors)


def test_dense_block_cap_applies_per_sector():
    # 4,096 active sites: the largest mirror block has 1,024 rows
    d = build_corbino(74, 1.0, 8.0, 37.0)
    assert MAX_BLOCK_SITES < d.n_active < 4 * MAX_BLOCK_SITES
    psi = rim_pair_state(d, P, norm=1.0)
    assert np.isfinite(psi).all() and circulation(psi, d, P) > 0.0


def test_dense_block_cap_without_symmetry():
    d = build_rectangle(64, 65, 1.0, [(10, 12, 3, 3)])
    assert not _mirrors(d)
    packet = gaussian_packet(d, (32.0, 32.0), 4.0)
    with pytest.raises(DomainError, match="band limiting .* 4151 sites"):
        band_limited(packet, d, P, 0.1)


def test_dense_block_cap_applies_per_mirror_sector():
    # 4,160 active sites: the x and y mirrors split them into 1,040-row blocks
    d = build_rectangle(64, 65, 1.0, [])
    assert d.n_active > MAX_BLOCK_SITES
    packet = gaussian_packet(d, (32.0, 32.0), 4.0)
    psi = band_limited(packet, d, P, 0.1)
    assert np.isfinite(psi).all() and np.abs(psi).max() > 0.0


def test_dense_block_cap_chiral_pinwheel():
    # C4 without a mirror splits by the half-turn parity only: 9,616 active
    # sites give a 4,808-row block, refused before any eigensolve
    holes = [(16, 20, 12, 8)]
    for _ in range(3):
        x, y, a, b = holes[-1]
        holes.append((y, 100 - x - a, b, a))
    d = build_rectangle(100, 100, 1.0, holes)
    assert list(_mirrors(d)) == ["XY"] and d.n_active == 9616
    packet = gaussian_packet(d, (50.0, 50.0), 4.0)
    with pytest.raises(DomainError, match="band limiting .* 4808 sites"):
        band_limited(packet, d, P, 0.1)


@pytest.mark.parametrize("d", [build_corbino(24, 1.0, 4.0, 11.0),
                               build_rectangle(16, 16, 1.0, [(6, 6, 4, 4)])],
                         ids=["corbino", "holed-rectangle"])
def test_sector_projection_sums_like_add_at(d, rng):
    # each orbit coefficient adds its sites' terms in site order, bit for
    # bit as np.add.at does, for complex and real vectors
    x, y = rng.normal(size=(2, d.nx * d.ny))
    sectors = _free_modes(d, P, "test")
    assert any(np.bincount(s.col[s.col >= 0]).max() > 1 for s in sectors)
    for psi in (x + 1j * y, x):
        for s in sectors:
            on = s.col >= 0
            ref = np.zeros(len(s.w), dtype=np.result_type(s.amp, psi))
            np.add.at(ref, s.col[on], s.amp[on] * psi[on])
            got = s.project(psi)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
