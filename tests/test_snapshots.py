import re

import numpy as np
import pytest

from hallsim import LinkField
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
    write_field(path, "psi", psi, rect12)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(SnapshotError, match="value lines"):
        read_field(path)


def test_read_rejects_non_finite_value(tmp_path, rect12):
    path = tmp_path / "psi.hsfield"
    write_field(path, "psi", np.zeros((12, 12), dtype=complex), rect12)
    lines = path.read_text().splitlines()
    lines[20] = "1 7 nan 0.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SnapshotError, match=r"entry \(1, 7\) is non-finite"):
        read_field(path)


def test_read_rejects_repeated_entry(tmp_path, rect12):
    # one entry given twice and another missing keeps the line count right
    path = tmp_path / "a1.hsfield"
    write_field(path, "a1", np.ones((11, 12)), rect12)
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
    write_field(path, "psi", np.zeros((12, 12), dtype=complex), rect12)
    lines = path.read_text().splitlines()
    lines[20] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SnapshotError, match=match):
        read_field(path)


def test_write_field_shortest_repr_per_entry(tmp_path, rect12):
    # one line per entry, row-major, each float in its shortest repr
    vals = np.array([0.1, -0.0, 1e-300, -2.5e17, 1 / 3, 0.0])
    psi = np.resize(vals, 144).reshape(12, 12) + 1j * np.resize(vals[::-1], 144).reshape(12, 12)
    path = tmp_path / "psi.hsfield"
    write_field(path, "psi", psi, rect12)
    want = ["HSFIELD v1 psi 12 12 1.0"] + [
        f"{ix} {iy} {repr(float(psi[ix, iy].real))} {repr(float(psi[ix, iy].imag))}"
        for ix in range(12) for iy in range(12)]
    assert path.read_text() == "\n".join(want) + "\n"


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
    assert cfg.sigma_h == 1.0 and cfg.consistent_init is True
    assert cfg.edge_k == 3


def test_config_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("nonsense = 1\n")
    with pytest.raises(ConfigError, match="unknown key 'seed'"):
        parse_config_text("seed = 0\n")


def test_config_reports_all_problems():
    # a non-finite float is rejected like any other bad value, never
    # replaced by the key's default
    bad = {"sigma_h": "0", "dx": "-1", "steps": "abc", "dt": "nan",
           "psi0_width": "nan", "rho_star": "inf", "flux": "-inf"}
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
    "solver_tol": {"solver_tol": "1e-12"},
    "solver_maxiter": {"solver_maxiter": "50"},
    "psi0": {"psi0": "File", "psi0_file": "psi.hsfield"},
    "psi0_center_x": {"psi0_center_x": "2.0", "psi0_center_y": "3.0"},
    "psi0_center_y": {"psi0_center_x": "-1", "psi0_center_y": "1e1"},
    "psi0_width": {"psi0_width": "2.5"}, "psi0_kx": {"psi0_kx": "0.25"},
    "psi0_ky": {"psi0_ky": "-0.5"}, "psi0_norm": {"psi0_norm": "2.0"},
    "psi0_ecut": {"psi0_ecut": "3.0"}, "psi0_file": {"psi0_file": "a b.txt"},
    "rim_band": {"rim_band": "2"}, "consistent_init": {"consistent_init": "no"},
    "flux": {"flux": "0.5"}, "edge_k": {"edge_k": "2"},
    "rho_star": {"rho_star": "1e-3"}, "b_star": {"b_star": "2e-3"},
    "sigma_floor": {"sigma_floor": "1e-10"},
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
