import re
from pathlib import Path

import numpy as np
import pytest
from conftest import write_v1
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hallsim import LinkField, build_rectangle
import hallsim.config
from hallsim.config import (DEFAULTS, ConfigError, build_config,
                            parse_config_text, parse_overrides)
from hallsim.snapshots import SnapshotError, read_field, write_field, write_state


def test_site_field_roundtrip(tmp_path, rect12, rng):
    psi = np.where(rect12.active,
                   rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)),
                   0.0)
    path = tmp_path / "psi.hsfield"
    write_field(path, "psi", psi, rect12)
    kind, nx, ny, dx, arr = read_field(path)
    assert (kind, nx, ny, dx) == ("psi", 12, 12, 1.0)
    assert np.array_equal(arr, psi)  # lossless, bit for bit


def test_link_field_roundtrip(tmp_path, rect12, rng):
    a = LinkField(rng.normal(size=(11, 12)) * rect12.h_active,
                  rng.normal(size=(12, 11)) * rect12.v_active)
    paths = write_state(tmp_path, "x", np.zeros((12, 12), dtype=complex), a,
                        rect12)
    _, _, _, _, a1 = read_field(paths[1])
    _, _, _, _, a2 = read_field(paths[2])
    assert np.array_equal(a1, a.a1)
    assert np.array_equal(a2, a.a2)


def test_read_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.hsfield"
    path.write_text("NOTAFIELD v1 psi 4 4 1.0\n")
    with pytest.raises(SnapshotError):
        read_field(path)


@pytest.mark.parametrize("text, match", [
    ("HSFIELD v1 psi 4.5 4 1.0\n0 0 0.0 0.0\n", "malformed header"),
    # checked before the nan-filled result (144 MB here) is allocated
    ("HSFIELD v1 psi 3000 3000 1.0\n0 0 0.0 0.0\n", "more lines than the file"),
], ids=["non-integer-size", "grid-larger-than-file"])
def test_read_rejects_bad_header_grid(tmp_path, text, match):
    path = tmp_path / "psi.hsfield"
    path.write_text(text)
    with pytest.raises(SnapshotError, match=match):
        read_field(path)


def test_read_rejects_truncated_file(tmp_path, rect12):
    psi = np.zeros((12, 12), dtype=complex)
    path = tmp_path / "psi.hsfield"
    write_v1(path, "psi", psi, rect12)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(SnapshotError, match="value lines"):
        read_field(path)


def test_read_rejects_non_finite_value(tmp_path, rect12):
    path = tmp_path / "psi.hsfield"
    write_v1(path, "psi", np.zeros((12, 12), dtype=complex), rect12)
    lines = path.read_text().splitlines()
    lines[20] = "1 7 nan 0.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SnapshotError, match=r"entry \(1, 7\) is non-finite"):
        read_field(path)


def test_read_rejects_repeated_entry(tmp_path, rect12):
    # one entry given twice and another missing keeps the line count right
    path = tmp_path / "a1.hsfield"
    write_v1(path, "a1", np.ones((11, 12)), rect12)
    lines = path.read_text().splitlines()
    lines[5] = "0 3 1.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SnapshotError, match=r"entry \(0, 4\) .* missing"):
        read_field(path)


@pytest.mark.parametrize("line, match", [
    ("1 7 abc 0.0", "abc"),
    ("1 7 0.0", "numbers per line|columns"),
    ("1 7 0.0 0.0 0.0", "numbers per line|columns"),
    ("4.5 7 0.0 0.0", r"index \(4.5, 7.0\)"),
    ("12 7 0.0 0.0", r"index \(12.0, 7.0\)"),
    ("1 -1 0.0 0.0", r"index \(1.0, -1.0\)"),
], ids=["not-a-number", "short-line", "long-line", "non-integer-index",
        "index-past-end", "negative-index"])
def test_read_rejects_malformed_line(tmp_path, rect12, line, match):
    path = tmp_path / "psi.hsfield"
    write_v1(path, "psi", np.zeros((12, 12), dtype=complex), rect12)
    lines = path.read_text().splitlines()
    lines[20] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SnapshotError, match=match):
        read_field(path)


def test_write_field_v2_golden_bytes(tmp_path):
    # the text header, then the raw little-endian body in row-major order
    d = build_rectangle(4, 4, 0.5, [])
    psi = np.arange(16.0).reshape(4, 4) + 1j * np.arange(16.0, 32.0).reshape(4, 4)
    a1 = -np.arange(12.0).reshape(3, 4) / 8
    write_field(tmp_path / "psi.hsfield", "psi", psi, d)
    write_field(tmp_path / "a1.hsfield", "a1", a1, d)
    psi_body = b"".join(np.array([psi[ix, iy].real, psi[ix, iy].imag],
                                 dtype="<f8").tobytes()
                        for ix in range(4) for iy in range(4))
    a1_body = b"".join(np.array([a1[ix, iy]], dtype="<f8").tobytes()
                       for ix in range(3) for iy in range(4))
    assert (tmp_path / "psi.hsfield").read_bytes() == (
        b"HSFIELD v2 psi 4 4 0.5\n" + psi_body)
    assert (tmp_path / "a1.hsfield").read_bytes() == (
        b"HSFIELD v2 a1 4 4 0.5\n" + a1_body)
    # 1.0 as a little-endian double, spelled out once
    assert psi_body[16:24] == bytes.fromhex("000000000000f03f")


def v2_file(tmp_path, kind="psi", n=6, body=None, header=None):
    """A v2 file written by write_field, then its body or header replaced."""
    d = build_rectangle(n, n, 1.0, [])
    shape = {"psi": (n, n), "a1": (n - 1, n), "a2": (n, n - 1)}[kind]
    path = tmp_path / f"{kind}.hsfield"
    write_field(path, kind, np.full(shape, 0.5), d)
    head, old = path.read_bytes().split(b"\n", 1)
    path.write_bytes((head if header is None else header) + b"\n"
                     + (old if body is None else body(old)))
    return path


@pytest.mark.parametrize("kind, body, match", [
    ("psi", lambda b: b[:-16], "body holds 560 bytes, header grid 6x6 needs 576"),
    ("a1", lambda b: b[:-8], "body holds 232 bytes, header grid 6x6 needs 240"),
    ("psi", lambda b: b + b"\0", "body holds 577 bytes"),
    ("a2", lambda b: b + b"\n", "body holds 241 bytes"),
    ("psi", lambda b: b"", "body holds 0 bytes"),
], ids=["psi-one-value-short", "a1-one-value-short", "psi-trailing-byte",
        "a2-trailing-newline", "psi-no-body"])
def test_read_v2_rejects_wrong_body_length(tmp_path, kind, body, match):
    with pytest.raises(SnapshotError, match=match):
        read_field(v2_file(tmp_path, kind, body=body))


def test_read_v2_rejects_grid_larger_than_file_before_allocating(tmp_path):
    # 10^5 x 10^5 complex entries would take 160 GB
    path = v2_file(tmp_path, header=b"HSFIELD v2 psi 100000 100000 1.0")
    with pytest.raises(SnapshotError, match="needs 160000000000"):
        read_field(path)


@pytest.mark.parametrize("kind, value", [
    ("psi", complex(np.nan, 0.0)), ("psi", complex(0.0, -np.inf)),
    ("a1", np.inf), ("a2", np.nan)])
def test_read_v2_rejects_non_finite_entry(tmp_path, kind, value):
    d = build_rectangle(6, 6, 1.0, [])
    shape = {"psi": (6, 6), "a1": (5, 6), "a2": (6, 5)}[kind]
    arr = np.full(shape, 0.5, dtype=complex if kind == "psi" else float)
    arr[3, 2] = value
    path = tmp_path / f"{kind}.hsfield"
    write_field(path, kind, arr, d)
    with pytest.raises(SnapshotError, match=r"entry \(3, 2\) is non-finite$"):
        read_field(path)


@pytest.mark.parametrize("header, match", [
    (b"HSFIELD v3 psi 6 6 1.0", "not an HSFIELD v1 or v2 file"),
    (b"HSFIELD v2 phi 6 6 1.0", "unknown field kind 'phi'"),
    (b"HSFIELD v2 psi 6 6", "malformed header"),
    (b"HSFIELD v2 psi 0 6 1.0", "empty 0x6 grid"),
], ids=["version-v3", "unknown-kind", "short-header", "empty-grid"])
def test_read_v2_rejects_bad_header(tmp_path, header, match):
    with pytest.raises(SnapshotError, match=match):
        read_field(v2_file(tmp_path, header=header))


def test_read_rejects_binary_without_newline(tmp_path):
    # the header read stops after 256 bytes; the rest is never decoded
    path = tmp_path / "x.hsfield"
    path.write_bytes(bytes(b for b in range(256) if b != ord("\n")) * 64)
    with pytest.raises(SnapshotError, match="malformed header"):
        read_field(path)


# every finite double class: signed zeros, subnormals, the largest values
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7e308,
               -1.7e308, np.finfo(float).max, 1 / 3]
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    EDGE_VALUES)


@st.composite
def snapshot_states(draw):
    nx, ny = draw(st.integers(4, 9)), draw(st.integers(4, 9))
    dx = draw(st.floats(1e-3, 1e3) | st.sampled_from([1.0, 0.1, 1 / 3]))
    # set part by part: re + 1j * im would not keep the sign of every zero
    psi = np.empty((nx, ny), dtype=np.complex128)
    psi.real = draw(arrays(np.float64, (nx, ny), elements=finite_floats))
    psi.imag = draw(arrays(np.float64, (nx, ny), elements=finite_floats))
    a1 = draw(arrays(np.float64, (nx - 1, ny), elements=finite_floats))
    a2 = draw(arrays(np.float64, (nx, ny - 1), elements=finite_floats))
    return build_rectangle(nx, ny, dx, []), psi, LinkField(a1, a2)


def bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


@given(state=snapshot_states())
@settings(max_examples=40, deadline=None)
def test_v2_roundtrip_bit_identical(tmp_path_factory, state):
    d, psi, a = state
    out = tmp_path_factory.mktemp("v2")
    paths = write_state(out, "s", psi, a, d)
    for path, kind, want in zip(paths, ("psi", "a1", "a2"), (psi, a.a1, a.a2)):
        *header, got = read_field(path)
        assert header == [kind, d.nx, d.ny, d.dx]
        assert got.dtype == want.dtype and got.flags.writeable
        assert np.array_equal(bits(got), bits(want))


@given(state=snapshot_states())
@settings(max_examples=25, deadline=None)
def test_v1_to_v2_rewrite_bit_identical(tmp_path_factory, state):
    # v1 -> read -> v2 -> read gives the arrays the v1 file holds
    d, psi, a = state
    out = tmp_path_factory.mktemp("v1v2")
    for kind, want in (("psi", psi), ("a1", a.a1), ("a2", a.a2)):
        write_v1(out / f"{kind}.v1", kind, want, d)
        kind1, nx, ny, dx, from_v1 = read_field(out / f"{kind}.v1")
        write_field(out / f"{kind}.v2", kind1, from_v1,
                    build_rectangle(nx, ny, dx, []))
        *header, from_v2 = read_field(out / f"{kind}.v2")
        assert header == [kind, d.nx, d.ny, d.dx]
        assert np.array_equal(bits(from_v1), bits(want))
        assert np.array_equal(bits(from_v2), bits(from_v1))


def test_write_rejects_wrong_shape(tmp_path, rect12):
    with pytest.raises(SnapshotError):
        write_field(tmp_path / "a1.hsfield", "a1", np.zeros((12, 12)), rect12)


def test_config_parse_and_defaults():
    cfg = build_config(parse_config_text("""
    # comment
    nx = 16
    ny = 16
    steps = 10
    psi0 = gaussian
    """))
    assert cfg.nx == 16 and cfg.steps == 10
    assert cfg.sigma_h == 1.0
    assert cfg.record_every == 1


def test_config_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("nonsense = 1\n")
    with pytest.raises(ConfigError, match="unknown key 'seed'"):
        parse_config_text("seed = 0\n")


def test_config_reports_all_problems():
    # a non-finite float is rejected like any other bad value, never
    # replaced by the key's default
    bad = {"sigma_h": "0", "dx": "-1", "steps": "abc", "dt": "nan",
           "psi0_width": "nan", "hbar": "inf", "flux": "-inf"}
    with pytest.raises(ConfigError) as err:
        build_config(bad)
    assert len(err.value.problems) >= 3
    for key in bad:
        assert any(p.startswith(f"{key}:") for p in err.value.problems), key


@pytest.mark.parametrize("given", ["psi0_center_x", "psi0_center_y"])
def test_config_half_given_center_rejected(given):
    with pytest.raises(ConfigError, match="psi0_center_x and psi0_center_y"):
        build_config({"psi0": "gaussian", given: "2.0"})
    cfg = build_config({"psi0_center_x": "2.0", "psi0_center_y": "3.0"})
    assert cfg.psi0_center == (2.0, 3.0)


def test_config_sigma_zero_rejected():
    with pytest.raises(ConfigError, match="sigma_h"):
        build_config({"sigma_h": "0.0"})


def test_config_record_every_must_divide_steps():
    with pytest.raises(ConfigError, match="record_every"):
        build_config({"steps": "10", "record_every": "3"})


def test_config_echo_roundtrip():
    values = {"nx": "24", "psi0": "gaussian", "psi0_kx": "0.25"}
    cfg = build_config(values)
    cfg2 = build_config(parse_config_text(cfg.echo()))
    assert cfg2.nx == 24 and cfg2.psi0 == "gaussian"
    assert cfg2.psi0_k == cfg.psi0_k
    assert cfg2.echo() == cfg.echo()


# a valid non-default value per key, with the keys it needs to stay valid
NON_DEFAULT = {
    "shape": {"shape": "corbino", "r_inner": "3.5", "r_outer": "12.0"},
    "nx": {"nx": "24"}, "ny": {"ny": "20"}, "n": {"n": "40"},
    "dx": {"dx": "0.5"}, "holes": {"holes": "3,3,2,2; 10,10,3,2"},
    "r_inner": {"r_inner": "3.5"}, "r_outer": {"r_outer": "12.0"},
    "sigma_h": {"sigma_h": "-2.0"}, "hbar": {"hbar": "0.7"},
    "e": {"e": "1.3"}, "mu": {"mu": "2.0"}, "dt": {"dt": "0.01"},
    "steps": {"steps": "7"}, "record_every": {"record_every": "5"},
    "psi0": {"psi0": "File", "psi0_file": "psi.hsfield"},
    "psi0_center_x": {"psi0_center_x": "2.0", "psi0_center_y": "3.0"},
    "psi0_center_y": {"psi0_center_x": "-1", "psi0_center_y": "1e1"},
    "psi0_width": {"psi0_width": "2.5"}, "psi0_kx": {"psi0_kx": "0.25"},
    "psi0_ky": {"psi0_ky": "-0.5"}, "psi0_norm": {"psi0_norm": "2.0"},
    "psi0_ecut": {"psi0_ecut": "3.0"}, "psi0_file": {"psi0_file": "a b.txt"},
    "flux": {"flux": "0.5"},
}


def test_non_default_table_covers_every_key():
    assert set(NON_DEFAULT) == set(DEFAULTS)


@pytest.mark.parametrize("key", sorted(NON_DEFAULT))
def test_config_echo_roundtrip_every_key(key):
    values = NON_DEFAULT[key]
    cfg = build_config(values)
    assert getattr(cfg, key) != getattr(build_config({}), key)
    assert parse_overrides([f"{k}={v}" for k, v in values.items()]) == values
    echo = cfg.echo()
    cfg2 = build_config(parse_config_text(echo))
    assert {k: getattr(cfg2, k) for k in DEFAULTS} == {k: getattr(cfg, k)
                                                        for k in DEFAULTS}
    assert (cfg2.psi0_center, cfg2.psi0_k) == (cfg.psi0_center, cfg.psi0_k)
    assert cfg2.echo() == echo


def test_module_docstring_names_every_key():
    doc = hallsim.config.__doc__
    missing = [k for k in DEFAULTS if not re.search(rf"\b{k}\b", doc)]
    assert missing == []


def key_names(cell):
    """Key names in a key column: comma or slash separated, without the
    parenthesised defaults."""
    return set(re.split(r"[\s,/]+", re.sub(r"\([^)]*\)", "", cell))) - {""}


def test_readme_table_and_docstring_list_exactly_the_keys():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("### Config keys")[1].split("\n## ")[0]
    rows = [line.split("|")[1] for line in table.splitlines()
            if line.startswith("| ")][2:]          # header and rule go
    assert set().union(*map(key_names, rows)) == set(DEFAULTS)
    keys = hallsim.config.__doc__.split("Keys (defaults in parentheses):")[1]
    entries = [re.split(r"\s{2,}", line.strip())[0]
               for line in keys.strip("\n").split("\n\n")[0].splitlines()
               if re.match(r" {4}\S", line)]
    assert set().union(*map(key_names, entries)) == set(DEFAULTS)
