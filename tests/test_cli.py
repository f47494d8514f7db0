import filecmp
import math
import os
import sys

import numpy as np
import pytest
from conftest import continuity_of_states, write_v1

import hallsim.cli
import hallsim.diagnostics
import hallsim.fields
from hallsim import build_rectangle, dynamics
from hallsim.cli import main
from hallsim.snapshots import read_field, write_field


def run_cli(args):
    return main(list(args))


def write_cfg(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASE_CFG = """
nx = 16
ny = 16
steps = 60
record_every = 6
psi0 = gaussian
psi0_width = 2.0
psi0_kx = 0.2
psi0_norm = 1.0
"""


def test_simulate_row_count_and_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "run"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "diagnostics.csv").read_text().splitlines()
    assert len(rows) == 1 + 1 + 60 // 6   # header + initial + records
    for tag in ("initial", "final"):
        for kind in ("psi", "a1", "a2"):
            assert (out / f"{tag}_{kind}.hsfield").exists()
    assert (out / "manifest.txt").exists()


def test_simulate_zero_psi_keeps_potential_bit_exact(tmp_path):
    cfg = write_cfg(tmp_path, """
nx = 12
ny = 12
steps = 20
psi0 = zero
""")
    out = tmp_path / "run"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
    for kind in ("a1", "a2"):
        assert ((out / f"initial_{kind}.hsfield").read_bytes()
                == (out / f"final_{kind}.hsfield").read_bytes())


def test_simulate_deterministic_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert run_cli(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    names = ["diagnostics.csv"] + [f"{t}_{k}.hsfield" for t in ("initial", "final")
                                   for k in ("psi", "a1", "a2")]
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
    assert mismatch == [] and errors == []


def test_simulate_set_overrides(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "run"
    code = run_cli(["simulate", "--config", cfg, "--out", str(out),
                    "--set", "steps=6", "--set", "record_every=1"])
    assert code == 0
    rows = (out / "diagnostics.csv").read_text().splitlines()
    assert len(rows) == 8


def test_invalid_config_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sigma_h = 0\nsteps = -4\n")
    assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "sigma_h" in err and "steps" in err


def test_zero_means_default_keys_reject_negatives_as_below_zero():
    # 0 is the stability default of dt, 4 dx for psi0_width and "off" for
    # psi0_ecut, so a negative value breaks ">= 0", not positivity
    from hallsim.config import ConfigError, build_config
    keys = ("dt", "psi0_width", "psi0_ecut")
    assert build_config({k: "0" for k in keys}).dt == 0.0
    with pytest.raises(ConfigError) as err:
        build_config({k: "-1" for k in keys})
    assert err.value.problems == [f"{k}: must be >= 0, got -1.0" for k in keys]


def test_flux_without_hole_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, "nx = 12\nny = 12\nsteps = 2\nflux = 1.0\n")
    assert run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_solver_failure_exit_3_names_step(tmp_path, capsys, monkeypatch):
    # the init's CG converges in 10 iterations here, and a step of dt = 2
    # needs more than 12 Cayley iterations, so the first step is the one
    # that fails
    monkeypatch.setattr(dynamics, "MAX_ITERATIONS", 12)
    cfg = write_cfg(tmp_path, BASE_CFG + "dt = 2.0\n")
    code = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 3
    assert "step 1" in capsys.readouterr().err


def test_quantize_scan_output(tmp_path, capsys):
    assert run_cli(["quantize", "--sigma-min", "0", "--sigma-max", "5",
                    "--sigma-step", "0.25", "--tol", "1e-9"]) == 0
    out = capsys.readouterr().out
    assert "allowed_set = {0.0, 1.0, 2.0, 3.0, 4.0, 5.0}" in out
    assert out.count("rejected") == 15


def test_quantize_single_step_all_allowed(capsys):
    assert run_cli(["quantize", "--sigma-min", "1", "--sigma-max", "3",
                    "--sigma-step", "1", "--tol", "1e-9"]) == 0
    out = capsys.readouterr().out
    assert "rejected" not in out
    assert "allowed_set = {1.0, 2.0, 3.0}" in out


def test_quantize_huge_tol_warns(capsys):
    assert run_cli(["quantize", "--sigma-min", "0", "--sigma-max", "2",
                    "--sigma-step", "0.5", "--tol", "3"]) == 0
    out = capsys.readouterr().out
    assert "warning" in out
    assert "rejected" not in out


@pytest.mark.parametrize("flag, value", [("--sigma-min", "nan"),
                                         ("--sigma-max", "nan"),
                                         ("--sigma-step", "inf")])
def test_quantize_non_finite_range_exit_2(capsys, flag, value):
    # nan bounds gave a traceback (exit 1), an infinite step a nan candidate
    assert run_cli(["quantize", flag, value]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_diagnose_roundtrip_matches_last_row(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "run"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
    last = (out / "diagnostics.csv").read_text().splitlines()[-1].split(",")
    capsys.readouterr()
    assert run_cli(["diagnose", "--config", cfg,
                    "--psi", str(out / "final_psi.hsfield"),
                    "--a1", str(out / "final_a1.hsfield"),
                    "--a2", str(out / "final_a2.hsfield")]) == 0
    got = capsys.readouterr().out.splitlines()[1].split(",")
    header = (out / "diagnostics.csv").read_text().splitlines()[0].split(",")
    for name, a, b in zip(header, got, last):
        if name in ("t", "continuity_rel"):   # not carried by snapshots
            continue
        if a == "NA" or b == "NA":
            assert a == b
            continue
        assert float(a) == pytest.approx(float(b), rel=1e-12, abs=1e-300)


def test_diagnose_wrong_grid_size_names_both(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "run"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
    cfg2 = write_cfg(tmp_path, BASE_CFG.replace("nx = 16", "nx = 12"), "cfg2.txt")
    capsys.readouterr()
    code = run_cli(["diagnose", "--config", cfg2,
                    "--psi", str(out / "final_psi.hsfield"),
                    "--a1", str(out / "final_a1.hsfield"),
                    "--a2", str(out / "final_a2.hsfield")])
    assert code == 3
    err = capsys.readouterr().err
    assert "16" in err and "12" in err


def test_diagnose_potential_only_reports_missing_matter_columns(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "run"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert run_cli(["diagnose", "--config", cfg,
                    "--a1", str(out / "final_a1.hsfield"),
                    "--a2", str(out / "final_a2.hsfield")]) == 0
    header, row = capsys.readouterr().out.splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["norm"] == "NA" and cells["sigma_est"] == "NA"
    assert cells["edge_fraction"] == "NA"
    assert cells["B_mean"] != "NA" and cells["pure_gauge_max"] != "NA"


def test_diagnose_psi_only_reports_missing_gauge_columns(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "run"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert run_cli(["diagnose", "--config", cfg,
                    "--psi", str(out / "final_psi.hsfield")]) == 0
    header, row = capsys.readouterr().out.splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["norm"] != "NA" and cells["n_global"] != "NA"
    assert cells["B_mean"] == "NA" and cells["pure_gauge_max"] == "NA"


TWO_HOLE_CFG = """
nx = 24
ny = 24
holes = 5,5,4,4;14,14,4,4
steps = 20
record_every = 5
psi0 = gaussian
psi0_width = 2.0
psi0_center_x = 11.0
psi0_center_y = 3.0
psi0_kx = 0.2
flux = 0.3
"""

# columns left NA when only the potential / only psi is given; continuity
# needs neighbouring records and is NA for every diagnose row
NEEDS_BOTH = {"gauss_rel", "continuity_rel", "sigma_est", "edge_fraction",
              "breakdown"}
NEEDS_PSI = {"norm", "n_global"}
NEEDS_A = {"B_mean", "pure_gauge_max", "holonomy_1", "holonomy_2"}


@pytest.mark.parametrize("inputs, missing", [
    (("a1", "a2"), NEEDS_BOTH | NEEDS_PSI),
    (("psi",), NEEDS_BOTH | NEEDS_A),
], ids=["potential-only", "psi-only"])
def test_diagnose_partial_inputs_na_columns_two_holes(tmp_path, capsys, inputs,
                                                      missing):
    cfg = write_cfg(tmp_path, TWO_HOLE_CFG)
    out = tmp_path / "run"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    args = []
    for kind in inputs:
        args += [f"--{kind}", str(out / f"final_{kind}.hsfield")]
    assert run_cli(["diagnose", "--config", cfg] + args) == 0
    header, row = capsys.readouterr().out.splitlines()
    names, cells = header.split(","), row.split(",")
    assert len(cells) == len(names) == 12
    assert {n for n, c in zip(names, cells) if c == "NA"} == missing


def test_simulate_run_records_drop_the_predictor(monkeypatch):
    # every record, the flux-threaded start included, has rate None; the
    # stepping still predicts from the stored rate after the first step
    from hallsim.config import build_config, parse_config_text
    cfg = build_config(parse_config_text(TWO_HOLE_CFG))
    has_rate = []
    real = hallsim.cli.advance

    def spied(s, *args):
        has_rate.append(s.rate is not None)
        return real(s, *args)

    monkeypatch.setattr(hallsim.cli, "advance", spied)
    _, _, records = hallsim.cli.simulate_run(cfg)
    assert len(records) == 5 and all(s.rate is None for s in records)
    assert has_rate == [False] + [True] * 19


def test_records_to_rows_one_current_per_record(monkeypatch):
    from hallsim.config import build_config, parse_config_text
    from hallsim.diagnostics import record_state
    cfg = build_config(parse_config_text(TWO_HOLE_CFG))
    _, _, records = hallsim.cli.simulate_run(cfg)
    calls = []

    def counted(name, module=hallsim.cli):
        real = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted("current_density")
    counted("continuity_residual")
    for module in (hallsim.cli, hallsim.diagnostics, hallsim.fields):
        counted("site_density", module)
    rows = hallsim.cli.records_to_rows(records)
    # one current and one density per record; one continuity check per inner
    # record, made by diagnostics.continuity_residual itself (perfbench
    # times it per layer)
    assert len(records) == 5
    assert calls.count("current_density") == len(records)
    assert calls.count("site_density") == len(records)
    assert calls.count("continuity_residual") == len(records) - 2
    # the shared currents give the rows of the state-level functions
    for i, s in enumerate(records):
        cont = None
        if 0 < i < len(records) - 1:
            cont = continuity_of_states(records[i - 1], records[i + 1])
        want = record_state(s, continuity=cont)
        assert rows[i].row() == want.row()


CORBINO_CFG = """
shape = corbino
n = 24
r_inner = 4
r_outer = 11
steps = 12
record_every = 3
psi0 = rim
flux = 0.4
"""


def corbino_config(**keys):
    from hallsim.config import build_config, parse_config_text
    values = parse_config_text(CORBINO_CFG)
    values.update({k: str(v) for k, v in keys.items()})
    return build_config(values)


@pytest.mark.parametrize("two_holes", [True, False], ids=["two-hole-flux",
                                                          "corbino"])
def test_records_rebuild_the_live_states_bit_for_bit(monkeypatch, two_holes):
    from hallsim.config import build_config, parse_config_text
    cfg = (build_config(parse_config_text(TWO_HOLE_CFG)) if two_holes
           else corbino_config())
    live = []
    real = hallsim.cli.advance

    def spied(s, *args):
        if not live:
            live.append(s)
        live.append(real(s, *args))
        return live[-1]

    monkeypatch.setattr(hallsim.cli, "advance", spied)
    # blocks of two or three rows, so the rows span blocks and the last
    # block is cut to the records left
    monkeypatch.setattr(hallsim.cli, "RECORD_BLOCK_BYTES", 40_000)
    _, _, records = hallsim.cli.simulate_run(cfg)
    assert len(records._blocks) > 1
    want = live[::cfg.record_every]
    assert len(records) == len(want) == 5
    for got, s in zip(records, want):
        assert got.t == s.t and got.rate is None
        for x, y in ((got.psi, s.psi), (got.a.a1, s.a.a1), (got.a.a2, s.a.a2)):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()
    # negative indices and slices read the same states
    assert records[-1].psi.tobytes() == want[-1].psi.tobytes()
    assert [s.t for s in records[1:4]] == [s.t for s in want[1:4]]
    with pytest.raises(IndexError):
        records[5]


def test_records_hold_the_active_values_only():
    # each record holds 16 bytes per active site and 8 per active link; the
    # full grids of the Corbino would take about 1.8 times as much
    import tracemalloc
    cfg = corbino_config(steps=120, record_every=1)
    tracemalloc.start()
    try:
        d, _, records = hallsim.cli.simulate_run(cfg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    links = int(d.h_active.sum() + d.v_active.sum())
    packed = len(records) * (16 * d.n_active + 8 * links)
    assert len(records) == 121
    assert packed <= held <= 1.1 * packed


def test_simulate_nan_snapshot_exit_3_without_csv(tmp_path, capsys):
    psi = np.full((12, 12), 0.1 + 0j)
    psi[4, 5] = np.nan
    write_field(tmp_path / "psi0.hsfield", "psi", psi,
                build_rectangle(12, 12, 1.0, []))
    cfg = write_cfg(tmp_path, f"""
nx = 12
ny = 12
steps = 4
psi0 = file
psi0_file = {tmp_path / "psi0.hsfield"}
""")
    out = tmp_path / "run"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "diagnostics.csv").exists()


@pytest.mark.parametrize("kind, n", [("a1", 12), ("psi", 16)],
                         ids=["a1-snapshot", "16x16-on-12x12"])
def test_simulate_psi0_file_wrong_snapshot_exit_3(tmp_path, capsys, kind, n):
    # psi0_file is read through the same kind-and-grid check as diagnose
    shape = (n - 1, n) if kind == "a1" else (n, n)
    write_field(tmp_path / "psi0.hsfield", kind, np.full(shape, 0.1),
                build_rectangle(n, n, 1.0, []))
    cfg = write_cfg(tmp_path, f"""
nx = 12
ny = 12
steps = 4
psi0 = file
psi0_file = {tmp_path / "psi0.hsfield"}
""")
    assert run_cli(["simulate", "--config", cfg, "--out",
                    str(tmp_path / "run")]) == 3
    assert "psi0.hsfield" in capsys.readouterr().err


@pytest.mark.parametrize("override, warnings", [("dt=5.0", 1), (None, 0)],
                         ids=["dt-5", "default-dt"])
def test_simulate_warns_on_inaccurate_dt(tmp_path, capsys, override, warnings):
    cfg = write_cfg(tmp_path, """
nx = 8
ny = 8
steps = 2
psi0 = gaussian
psi0_width = 1.5
""")
    args = ["simulate", "--config", cfg, "--out", str(tmp_path / "run")]
    if override:
        args += ["--set", override]
    assert run_cli(args) == 0
    err = capsys.readouterr().err
    assert err.count("warning: dt") == warnings
    assert err.count("\n") == warnings


def test_simulate_underflowing_packet_exit_2(tmp_path, capsys):
    # a packet with no weight on the domain is a configuration error, not
    # a ValueError traceback (exit 1)
    args = ["simulate", "--out", str(tmp_path / "run"), "--set", "psi0=gaussian",
            "--set", "psi0_center_x=1e6", "--set", "psi0_center_y=5"]
    assert run_cli(args) == 2
    assert ("config error: psi0: cannot normalize"
            in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("override, key", [
    ("dx=1e-200", "dt")])               # 0.05 mu dx^2 / hbar underflows to 0
def test_simulate_params_rejected_exit_2(tmp_path, capsys, override, key):
    # values that pass the config checks but not Params are configuration
    # errors too, not a traceback (exit 1)
    args = ["simulate", "--out", str(tmp_path / "run"), "--set", "steps=2",
            "--set", "psi0=gaussian", "--set", override]
    assert run_cli(args) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")
    assert not (tmp_path / "run").exists()


def test_simulate_rim_without_pair_keeps_exit_3(tmp_path, capsys):
    # DomainError is a ValueError too; it stays a numerical failure
    args = ["simulate", "--out", str(tmp_path / "run"), "--set", "psi0=rim",
            "--set", "nx=24", "--set", "ny=24", "--set", "steps=2"]
    assert run_cli(args) == 3
    assert "numerical failure: no degenerate rim-localized" in capsys.readouterr().err


def test_rim_state_requires_localized_pair():
    # a plain rectangle has no boundary-localized degenerate pair: its
    # sinusoidal modes spread over the bulk
    from hallsim import DomainError, Params, build_rectangle, rim_pair_state
    d = build_rectangle(24, 24, 1.0, [])
    with pytest.raises(DomainError, match="rim"):
        rim_pair_state(d, Params(dt=0.05), norm=1.0)


def test_manifest_echo_reproduces_run(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out1 = tmp_path / "r1"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    manifest = (out1 / "manifest.txt").read_text()
    echo = manifest.split("[config]\n", 1)[1]
    cfg2 = write_cfg(tmp_path, echo, "echo.txt")
    out2 = tmp_path / "r2"
    assert run_cli(["simulate", "--config", cfg2, "--out", str(out2)]) == 0
    assert ((out1 / "diagnostics.csv").read_text()
            == (out2 / "diagnostics.csv").read_text())


def manifest_environment(tmp_path, name="run") -> dict:
    out = tmp_path / name
    assert run_cli(["simulate", "--config", write_cfg(tmp_path, BASE_CFG),
                    "--out", str(out)]) == 0
    head = (out / "manifest.txt").read_text().split("\n\n[config]\n", 1)[0]
    lines = head.splitlines()
    assert lines[0] == f"hallsim {hallsim.__version__}"
    return dict(line.split(" = ", 1) for line in lines[1:])


def test_manifest_records_its_environment(tmp_path, monkeypatch):
    # the manifest names what byte identity depends on: the Python and numpy
    # versions, numpy's BLAS library and the BLAS thread settings as the run
    # saw them
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    keys = manifest_environment(tmp_path)
    assert list(keys) == ["wall_time_s", "python", "numpy", "blas",
                          "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"]
    assert keys["python"] == sys.version.replace("\n", " ")
    assert keys["numpy"] == np.__version__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert keys["blas"] == f"{blas['name']} {blas['version']}"
    except TypeError:                   # numpy before 1.25
        assert keys["blas"] == "unknown"
    assert keys["OPENBLAS_NUM_THREADS"] == "unset"
    assert keys["OMP_NUM_THREADS"] == "3"
    # a numpy whose show_config takes no mode records the library as unknown
    monkeypatch.setattr(np, "show_config", lambda: None)
    assert manifest_environment(tmp_path, "old-numpy")["blas"] == "unknown"


def test_simulate_malformed_snapshot_value_exit_3(tmp_path, capsys):
    # a v1 value that is no number is a snapshot error, not a traceback
    path = tmp_path / "psi0.hsfield"
    write_v1(path, "psi", np.full((12, 12), 0.1 + 0j),
             build_rectangle(12, 12, 1.0, []))
    lines = path.read_text().splitlines()
    lines[30] = lines[30].rsplit(" ", 1)[0] + " abc"
    path.write_text("\n".join(lines) + "\n")
    cfg = write_cfg(tmp_path, f"""
nx = 12
ny = 12
steps = 4
psi0 = file
psi0_file = {path}
""")
    assert run_cli(["simulate", "--config", cfg, "--out",
                    str(tmp_path / "run")]) == 3
    assert "psi0.hsfield" in capsys.readouterr().err


def rewrite_as_v1(out, tag="final"):
    """Rewrite a run's tag_{psi,a1,a2}.hsfield into v1 text copies tag_*.v1."""
    paths = {}
    for kind in ("psi", "a1", "a2"):
        _, nx, ny, dx, arr = read_field(out / f"{tag}_{kind}.hsfield")
        paths[kind] = out / f"{tag}_{kind}.v1"
        write_v1(paths[kind], kind, arr, build_rectangle(nx, ny, dx, []))
    return paths


def diagnose_args(cfg, paths):
    return ["diagnose", "--config", cfg] + [
        arg for kind in ("psi", "a1", "a2") for arg in (f"--{kind}", str(paths[kind]))]


def test_diagnose_non_integer_snapshot_index_exit_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "run"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
    paths = rewrite_as_v1(out)
    lines = paths["psi"].read_text().splitlines()
    lines[70] = "4.5 " + lines[70].split(" ", 1)[1]
    paths["psi"].write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli(diagnose_args(cfg, paths)) == 3
    assert "final_psi.v1" in capsys.readouterr().err


@pytest.mark.parametrize("kind, cut, fragment", [
    ("psi", slice(None, -16), "body holds 4080 bytes"),
    ("a1", slice(None, -1), "body holds 1919 bytes"),
    ("a2", slice(None), "entry (7, 2) is non-finite"),
], ids=["psi-one-value-short", "a1-one-byte-short", "a2-nan"])
def test_diagnose_corrupt_v2_body_exit_3(tmp_path, capsys, kind, cut, fragment):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "run"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
    path = out / f"final_{kind}.hsfield"
    head, body = path.read_bytes().split(b"\n", 1)
    body = bytearray(body[cut])
    if kind == "a2":            # entry (7, 2) of the 16 x 15 a2 grid
        body[8 * (7 * 15 + 2):8 * (7 * 15 + 3)] = np.array([np.nan]).tobytes()
    path.write_bytes(head + b"\n" + body)
    capsys.readouterr()
    paths = {k: out / f"final_{k}.hsfield" for k in ("psi", "a1", "a2")}
    assert run_cli(diagnose_args(cfg, paths)) == 3
    err = capsys.readouterr().err
    assert f"final_{kind}.hsfield" in err and fragment in err


@pytest.mark.parametrize("flag, given", [("psi", "a1"), ("a1", "a2"),
                                         ("a2", "psi")])
def test_diagnose_wrong_snapshot_kind_exit_3(tmp_path, capsys, flag, given):
    cfg = write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "run"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
    paths = {k: out / f"final_{k}.hsfield" for k in ("psi", "a1", "a2")}
    paths[flag] = paths[given]
    capsys.readouterr()
    assert run_cli(diagnose_args(cfg, paths)) == 3
    assert f"holds {given!r}, expected {flag}" in capsys.readouterr().err


def test_diagnose_same_row_from_v1_and_v2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TWO_HOLE_CFG)
    out = tmp_path / "run"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rows = []
    for paths in ({k: out / f"final_{k}.hsfield" for k in ("psi", "a1", "a2")},
                  rewrite_as_v1(out)):
        capsys.readouterr()
        assert run_cli(diagnose_args(cfg, paths)) == 0
        rows.append(capsys.readouterr().out)
    assert rows[0] == rows[1]


def test_psi0_file_v1_and_v2_same_diagnostics(tmp_path):
    # one packet as a v1 and a v2 psi0_file: byte-identical runs
    d = build_rectangle(24, 24, 1.0, [(5, 5, 4, 4), (14, 14, 4, 4)])
    x, y = np.meshgrid(np.arange(24.0), np.arange(24.0), indexing="ij")
    psi = np.exp(-((x - 11) ** 2 + (y - 3) ** 2) / 8 + 0.2j * x) * d.active
    write_v1(tmp_path / "psi0.v1", "psi", psi, d)
    write_field(tmp_path / "psi0.v2", "psi", psi, d)
    csv = []
    for name in ("psi0.v1", "psi0.v2"):
        cfg = write_cfg(tmp_path, TWO_HOLE_CFG.replace(
            "psi0 = gaussian", f"psi0 = file\npsi0_file = {tmp_path / name}"),
            f"{name}.txt")
        out = tmp_path / f"run_{name}"
        assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
        csv.append((out / "diagnostics.csv").read_bytes())
    assert csv[0] == csv[1]


# Keys that fixed constants replaced: the Cayley tolerance and the
# Gauss-consistent start, so no config can start or take a run off the Gauss
# surface; the edge band width and the regime thresholds of the diagnostics;
# the solvers' iteration cap.
REMOVED_KEYS = {"solver_tol": "1e-8", "consistent_init": "false",
                "rim_band": "3", "edge_k": "3", "rho_star": "1e-4",
                "b_star": "1e-4", "sigma_floor": "1e-12",
                "solver_maxiter": "500"}


@pytest.mark.parametrize("args, fragment", [
    (["simulate", "OUT", "--set", "shape=corbino", "--set", "n=16"],
     "corbino shape needs r_inner and r_outer"),
    (["simulate", "OUT", "--set", "psi0=file"], "psi0 = file needs psi0_file"),
    (["simulate", "OUT", "--set", "shape=corbino", "--set", "n=16",
      "--set", "r_inner=2", "--set", "r_outer=20"],
     "config error: domain: r_outer=20.0 exceeds half the grid extent"),
    (["simulate", "OUT", "--set", "shape=disc"],
     "shape: must be rectangle or corbino, got 'disc'"),
    (["simulate", "OUT", "--set", "holes=1,2,3"],
     "holes: expected 'x0,y0,w,h', got '1,2,3'"),
    (["simulate", "OUT", "--set", "holes=1,2,3,x"],
     "holes: non-integer entry in '1,2,3,x'"),
    (["simulate", "OUT", "--config", "CFG"],
     "line 2: expected 'key = value', got 'steps 4'"),
    (["simulate", "OUT", "--config", "MISSING"], "missing.txt: "),
    (["simulate"], "simulate needs --out DIR"),
    (["quantize", "--sigma-step", "0"], "--sigma-step must be positive"),
    (["quantize", "--sigma-min", "2", "--sigma-max", "1"],
     "--sigma-max 1.0 below --sigma-min 2.0"),
    (["quantize", "--tol", "0"], "--tol must be positive"),
    # an infinite candidate count was an OverflowError traceback (exit 1);
    # a finite count of about 2e23 started building every candidate
    (["quantize", "--sigma-min=-1e308", "--sigma-max=1e308", "--sigma-step",
      "1"], "more than 1000000 candidates from --sigma-min to --sigma-max"),
    (["quantize", "--sigma-max", "1e-300", "--sigma-step", "5e-324"],
     "more than 1000000 candidates from --sigma-min to --sigma-max"),
    (["diagnose", "--a1", "a1.hsfield"], "--a1 and --a2 must be given together"),
    (["diagnose"], "need --psi and/or --a1/--a2"),
] + [(["simulate", "OUT", "--set", f"{key}={value}"],
      f"--set: unknown key '{key}'") for key, value in REMOVED_KEYS.items()
] + [(["simulate", "OUT", "--config", "REMOVED"],
      f"line {n}: unknown key '{key}'") for n, key in enumerate(REMOVED_KEYS, 1)
], ids=["corbino-no-radii", "psi0-file-no-path", "domain-error", "bad-choice",
        "holes-three-entries", "holes-non-integer",
        "line-without-equals", "unreadable-config", "simulate-no-out",
        "quantize-step-zero", "quantize-max-below-min", "quantize-tol-zero",
        "quantize-count-overflows", "quantize-count-too-large",
        "diagnose-a1-alone", "diagnose-no-fields"
] + [f"removed-key-set-{key}" for key in REMOVED_KEYS]
  + [f"removed-key-config-{key}" for key in REMOVED_KEYS])
def test_config_and_argument_errors_exit_2(tmp_path, capsys, args, fragment):
    write_cfg(tmp_path, "nx = 12\nsteps 4\n")
    write_cfg(tmp_path, "".join(f"{key} = {value}\n"
                                for key, value in REMOVED_KEYS.items()),
              "removed.txt")
    where = {"OUT": ["--out", str(tmp_path / "run")],
             "CFG": [str(tmp_path / "cfg.txt")],
             "REMOVED": [str(tmp_path / "removed.txt")],
             "MISSING": [str(tmp_path / "missing.txt")]}
    argv = [x for arg in args for x in where.get(arg, [arg])]
    assert run_cli(argv) == 2
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_quantize_loose_tol_warns_and_writes_spectrum(tmp_path, capsys):
    out = tmp_path / "q"
    assert run_cli(["quantize", "--sigma-min", "0", "--sigma-max", "1",
                    "--sigma-step", "0.5", "--tol", "1.5", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("warning: tol = 1.5 is too loose to separate")
    assert (out / "spectrum.txt").read_text() == text


def test_simulate_uniform_psi0(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["simulate", "--out", str(out), "--set", "nx=8",
                    "--set", "ny=8", "--set", "steps=2",
                    "--set", "psi0=uniform"]) == 0
    header, *rows = (out / "diagnostics.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), rows[0].split(",")))
    assert len(rows) == 3 and float(cells["norm"]) == pytest.approx(1.0)


def test_simulate_corbino_records_holonomy(tmp_path):
    out = tmp_path / "run"
    sets = ["shape=corbino", "n=24", "r_inner=4", "r_outer=10", "psi0=gaussian",
            "psi0_center_x=18.5", "psi0_center_y=11.5", "psi0_width=1.5",
            "steps=10", "record_every=5", "flux=0.3"]
    argv = ["simulate", "--out", str(out)]
    for s in sets:
        argv += ["--set", s]
    assert run_cli(argv) == 0
    header, *rows = (out / "diagnostics.csv").read_text().splitlines()
    names = header.split(",")
    assert [n for n in names if n.startswith("holonomy_")] == ["holonomy_1"]
    col = names.index("holonomy_1")
    assert len(rows) == 3
    assert all(math.isfinite(float(r.split(",")[col])) for r in rows)


WATCH_IMPORTS = """
import json, sys
import hallsim.cli
real = hallsim.cli.advance
steps, imported = [], []

def watched(*args):
    before = set(sys.modules)
    out = real(*args)
    steps.append(1)
    imported.extend(sorted(set(sys.modules) - before))
    return out

hallsim.cli.advance = watched
rc = hallsim.cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "steps": len(steps), "in_steps": imported,
                  "scipy_modules": sorted(
                      m for m in sys.modules if m.startswith("scipy"))}))
"""


@pytest.mark.parametrize("config", [
    TWO_HOLE_CFG,
    "shape = corbino\nn = 32\nr_inner = 5\nr_outer = 14\nsteps = 6\n"
    "record_every = 2\npsi0 = rim\nflux = 0.3\n",
    "nx = 24\nny = 20\nholes = 8,6,4,4\nsteps = 4\nrecord_every = 2\n"
    "psi0 = gaussian\npsi0_width = 2.5\npsi0_kx = 0.2\npsi0_ecut = 0.5\n"])
def test_simulate_imports_nothing_while_stepping(tmp_path, config):
    # in a fresh interpreter: every module a run needs is loaded in set-up,
    # and no scipy module is loaded at all, on the rectangle, the rim state
    # and the band limit (psi0_ecut)
    import json
    import os
    import subprocess
    import sys
    src = os.path.dirname(os.path.dirname(hallsim.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", WATCH_IMPORTS, "simulate",
         "--config", write_cfg(tmp_path, config), "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["rc"] == 0 and got["steps"] > 0
    assert got["in_steps"] == []
    assert got["scipy_modules"] == []


BLAS_THREADS = """
import ctypes, json
import hallsim.cli
from hallsim import Workspace, build_rectangle
Workspace(build_rectangle(4, 4, 1.0, []))     # numpy's OpenBLAS is loaded
with open("/proc/self/maps") as f:
    paths = sorted({line.split()[-1] for line in f if "openblas" in line})
threads = {}
for path in paths:
    lib = ctypes.CDLL(path)                     # already loaded: same handle
    for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads",
                 "scipy_openblas_get_num_threads64_"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            threads[path] = fn()
            break
print(json.dumps(threads))
"""


@pytest.mark.parametrize("value, want", [(None, 1), ("2", 2)])
def test_import_defaults_to_one_blas_thread(value, want):
    # threaded np.vdot doubles the CPU time of the Cayley solve, and
    # OpenBLAS reads its thread count when it loads: importing hallsim, before
    # numpy, sets one thread for numpy's OpenBLAS (and any other loaded) in
    # a fresh process; a value the user set is kept
    import json
    import subprocess
    import sys
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps to list the loaded libraries")
    if want > len(os.sched_getaffinity(0)):
        pytest.skip("OpenBLAS caps its threads at the number of CPUs")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                        "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(hallsim.cli.__file__))
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    proc = subprocess.run([sys.executable, "-c", BLAS_THREADS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    threads = json.loads(proc.stdout.splitlines()[-1])
    if not threads:
        pytest.skip("no OpenBLAS thread-count symbol found")
    assert set(threads.values()) == {want}, threads


def test_edge_vs_bulk_script_writes_two_runs(tmp_path, capsys):
    import importlib.util
    from hallsim.diagnostics import DiagnosticsRecord
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "edge_vs_bulk", os.path.join(root, "scripts", "edge_vs_bulk.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main(["--out", str(tmp_path), "--steps", "2"])
    for label in ("edge", "bulk"):
        lines = (tmp_path / label / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == DiagnosticsRecord.header(1)
        assert len(lines) == 1 + 3
    out = capsys.readouterr().out
    assert "edge run, last row: t = " in out and "bulk run, last row" in out
