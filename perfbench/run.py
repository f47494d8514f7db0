"""hallsim benchmark: the real `hallsim simulate` / `hallsim diagnose` CLI on
seeded inputs, one fresh child process per command, one command at a time.

    python3 perfbench/run.py --workload bulk-256 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 200

One iteration runs a workload's whole command sequence (simulate, then
diagnose on the final snapshots) and checks its outputs.  Iterations repeat
until the next one would end after --seconds; every metric is the median
over the iterations of the run.  The table printed before the last line also
gives the highest percentile with at least ten samples beyond it, when the
run has enough samples for one.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics (the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1).

With --trace 1 the iterations alternate between untraced and traced; the
per-layer metrics come from the traced ones, and trace.overhead_s is the
median traced wall time minus the median untraced one.

Inputs, outputs, spans and a result.json per run go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, array_bytes, make_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

NPROC = len(os.sched_getaffinity(0))
# The simulator's own loops are single-threaded numpy; with two OpenBLAS
# threads a 256^2 run used 1.6x the CPU time for the same wall time.
BLAS_THREADS = 1
# A child still running this long after the measured window is killed and
# its iteration counted as failed, so a 40 s run ends well within 180 s.
OVERRUN_LIMIT_S = 120.0
# Two repeats at least, so the output digests can be compared; more only as
# --seconds allows, which keeps a 40 s run of restart-512 under a minute when
# the machine is slow.
MIN_ITERATIONS = 2

HEADER = ("t,norm,gauss_rel,continuity_rel,n_global,B_mean,sigma_est,"
          "edge_fraction,pure_gauge_max,holonomy_1,breakdown")
GAUSS_TOL = 1e-10
NORM_DRIFT_TOL = 1e-10

# name -> (unit, better); the table prints all of them
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "output_s": ("s", "lower"),
    "diagnose_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Short, interpreter-bound phases: over ten runs on a shared 2-core machine
# their spread (quartile distance over median) reached 0.27 to 0.40, above
# the largest regression bound a metric may have.  They go out with the
# unbounded per-layer metrics instead of the bounded end-to-end ones.
PER_LAYER_PHASES = ("output_s", "diagnose_s")


def cache_sizes() -> dict:
    """Per-core L2 and last-level data cache sizes as the kernel reports them."""
    sizes = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            sizes[int((index / "level").read_text())] = (
                index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
    return {"l2": sizes.get(2), "llc": sizes[max(sizes)] if sizes else None}


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "numpy_madvise_hugepage": 0,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "openblas": blas.get("version"),
        "cache": cache_sizes(),
    }


def child_env() -> dict:
    """Environment of every hallsim process the benchmark starts.

    numpy's transparent-huge-page advice is switched off: whether the kernel
    can hand out huge pages at the moment varies from process to process, and
    with it on, 512^2 runs of identical input varied by 12% (CV) against 1%
    with it off.
    """
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(OUT / "pycache"),
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, NUMPY_MADVISE_HUGEPAGE="0")
    return env


def run_child(workdir: Path, result_name: str, mode: str, argv: list,
              budget_end: float) -> dict:
    """One hallsim command in a fresh process; wall time is spawn to exit."""
    cmd = [sys.executable, str(BENCH / "child.py"), result_name, mode] + argv
    timeout = max(1.0, budget_end - time.monotonic())
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"rc": "timeout", "wall": time.perf_counter() - start,
                "stdout": "", "stderr": f"killed after {timeout:.0f} s",
                "result": None}
    wall = time.perf_counter() - start
    result = None
    if proc.returncode == 0:
        with open(workdir / result_name) as f:
            result = json.load(f)
    return {"rc": proc.returncode, "wall": wall, "stdout": proc.stdout,
            "stderr": proc.stderr, "result": result}


def check_outputs(w, sim: dict, diag: dict, csv_text) -> list:
    """Every reason this iteration's outputs are wrong (empty when correct)."""
    problems = [f"{label} exited {c['rc']}: {c['stderr'].strip()[-300:]}"
                for label, c in (("simulate", sim), ("diagnose", diag))
                if c["rc"] != 0]
    if csv_text is None:
        return problems + ["diagnostics.csv missing"]
    lines = csv_text.splitlines()
    if not lines or lines[0] != HEADER:
        problems.append(f"diagnostics.csv header {lines[:1]}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != w.rows:
        problems.append(f"diagnostics.csv has {len(rows)} rows, want {w.rows}")
    ncols = HEADER.count(",") + 1
    for i, row in enumerate(rows):
        if len(row) != ncols:
            problems.append(f"row {i}: {len(row)} cells, want {ncols}")
            continue
        try:
            cells = [None if c == "NA" else float(c) for c in row]
        except ValueError as err:
            problems.append(f"row {i}: {err}")
            continue
        if not all(c is None or math.isfinite(c) for c in cells):
            problems.append(f"row {i}: non-finite cell")
        elif cells[2] is None or cells[2] > GAUSS_TOL:
            problems.append(f"row {i}: gauss_rel {row[2]} > {GAUSS_TOL}")
    norms = [float(r[1]) for r in rows if len(r) == ncols and r[1] != "NA"]
    if norms and norms[0] > 0:
        drift = max(abs(v - norms[0]) for v in norms) / norms[0]
        if not drift <= NORM_DRIFT_TOL:
            problems.append(f"relative norm drift {drift:.3e} > {NORM_DRIFT_TOL}")
    if diag["rc"] == 0 and rows:
        out = diag["stdout"].splitlines()
        if out[:1] != [HEADER] or len(out) != 2:
            problems.append(f"diagnose printed {len(out)} lines")
        elif out[1].split(",")[1:] != rows[-1][1:]:
            problems.append("diagnose row differs from the last CSV row: "
                            f"{out[1]!r} vs {','.join(rows[-1])!r}")
    return problems


def run_iteration(w, workdir: Path, cfg: str, index: int, traced: bool,
                  budget_end: float) -> dict:
    outdir = workdir / "run_out"
    shutil.rmtree(outdir, ignore_errors=True)
    mode = "trace" if traced else "hook"
    sim = run_child(workdir, f"iter{index}-simulate.json", mode,
                    ["simulate", "--config", cfg, "--out", "run_out"], budget_end)
    diag = {"rc": "skipped", "wall": 0.0, "stdout": "", "stderr": "",
            "result": None}
    if sim["rc"] == 0:
        diag = run_child(workdir, f"iter{index}-diagnose.json", mode,
                         ["diagnose", "--config", cfg,
                          "--psi", "run_out/final_psi.hsfield",
                          "--a1", "run_out/final_a1.hsfield",
                          "--a2", "run_out/final_a2.hsfield"], budget_end)
    csv_path = outdir / "diagnostics.csv"
    csv_text = csv_path.read_text() if csv_path.is_file() else None
    it = {"traced": traced, "wall_s": sim["wall"] + diag["wall"],
          "problems": check_outputs(w, sim, diag, csv_text),
          "sha256": (hashlib.sha256(csv_text.encode()).hexdigest()
                     if csv_text is not None else None),
          "timeout": "timeout" in (sim["rc"], diag["rc"])}
    if it["problems"]:
        return it
    s, d = sim["result"], diag["result"]
    main0, main1 = s["main"]
    adv0, adv1 = s["advance"]
    it.update(setup_s=adv0 - main0, steps_per_s=w.steps / (adv1 - adv0),
              output_s=main1 - adv1, diagnose_s=diag["wall"],
              peak_rss_mb=max(s["maxrss_kb"], d["maxrss_kb"]) / 1024.0)
    if traced:
        it["layers"], it["spans"] = layer_metrics(w, s, d)
    return it


def computed_bytes(w) -> dict:
    """Bytes one H apply and one current evaluation read and write, counting
    each operand array of the seed implementation once (a model, not a
    measurement)."""
    sites = w.n * w.n
    links = 2 * (w.n - 1) * w.n
    # apply_h: v, out, result (complex), deg (real), active (bool) per site;
    # u, conj(u) (complex) per link
    h = sites * (16 + 16 + 16 + 8 + 1) + links * 32
    # current_density: psi (complex), j0 (real), active (bool) per site;
    # a, j (real), link mask (bool) per link
    j = sites * (16 + 8 + 1) + links * (8 + 8 + 1)
    return {"dynamics.apply_h.computed_bytes": h, "fields.current_density.computed_bytes": j}


def span_table(span_lists) -> dict:
    """Total time, self time and calls per span name over the given children.

    A span's self time is its duration minus the durations of its direct
    children; spans of one process nest strictly.
    """
    table = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0})
    for spans in span_lists:
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            row = table[name]
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
            row["calls"] += 1
    return table


def applies_in_advance(spans) -> int:
    """H applies made inside dynamics.advance (not in set-up eigensolves)."""
    inside = [False] * len(spans)
    count = 0
    for i, (name, _, _, parent) in enumerate(spans):
        if parent >= 0:
            inside[i] = inside[parent] or spans[parent][0] == "dynamics.advance"
        count += name == "dynamics.apply_h" and inside[i]
    return count


def layer_metrics(w, sim: dict, diag: dict) -> tuple:
    """Per-layer metrics and the full span table of one traced iteration
    (simulate plus diagnose)."""
    table = span_table([sim["spans"], diag["spans"]])
    sim_calls = Counter(span[0] for span in sim["spans"])
    steps = sim_calls["dynamics.advance"]

    def total(*names):
        return sum(table[n]["total_s"] for n in names if n in table)

    def calls(name):
        return table[name]["calls"] if name in table else 0

    m = {
        "cli.simulate_run.s": total("cli.simulate_run"),
        "cli.initial_psi.s": total("cli.initial_psi"),
        "cli.records_to_rows.s": total("cli.records_to_rows"),
        "cli.records_to_rows.calls": calls("cli.records_to_rows"),
        "config.build_config.s": total("config.build_config"),
        "domain.build.s": total("domain.build_rectangle", "domain.build_corbino"),
        "snapshots.read_field.s": total("snapshots.read_field"),
        "snapshots.read_bytes": sim["bytes"]["read"] + diag["bytes"]["read"],
        "snapshots.write_state.s": total("snapshots.write_state"),
        "snapshots.write_bytes": sim["bytes"]["write"] + diag["bytes"]["write"],
        "dynamics.initialize_consistent.s": total("dynamics.initialize_consistent"),
        "holonomy.insert_flux.s": total("holonomy.insert_flux"),
        "dynamics.advance.s": total("dynamics.advance"),
        "dynamics.advance.self_s": table["dynamics.advance"]["self_s"],
        "dynamics.cayley_step.s": total("dynamics.cayley_step"),
        "dynamics.apply_h.s": total("dynamics.apply_h"),
        "dynamics.h_applies_per_step": applies_in_advance(sim["spans"]) / steps,
        "fields.current_density.s": total("fields.current_density"),
        "fields.current_density.calls_per_step":
            sim_calls["fields.current_density"] / steps,
        "diagnostics.record_state.s": total("diagnostics.record_state"),
        "diagnostics.record_state.calls": calls("diagnostics.record_state"),
        "diagnostics.continuity_residual.s": total("diagnostics.continuity_residual"),
        "diagnostics.continuity_residual.calls": calls("diagnostics.continuity_residual"),
        "holonomy.wilson_loop.s": total("holonomy.wilson_loop"),
        "holonomy.wilson_loop.calls": calls("holonomy.wilson_loop"),
        "trace.spans": len(sim["spans"]) + len(diag["spans"]),
    }
    m.update(computed_bytes(w))
    return m, dict(table)


def per_layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "B" if name.endswith("bytes") else "count"


def high_percentile(values, better: str):
    """(percentile, value) with exactly ten samples beyond it on the worse
    side, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values, reverse=(better == "higher"))
    k = n - 10
    return 100.0 * k / n, ordered[k - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    budget_end = time.monotonic() + seconds + OVERRUN_LIMIT_S
    workdir = OUT / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cfg = make_inputs(w, seed, str(workdir))
    # compiles bytecode and fills the page cache once, outside the timed loop
    subprocess.run([sys.executable, "-c", "import hallsim.cli, scipy.sparse.linalg"],
                   cwd=workdir, env=child_env(), check=True)

    iterations = []
    start = time.monotonic()
    while True:
        traced = trace and len(iterations) % 2 == 1
        it_start = time.monotonic()
        it = run_iteration(w, workdir, cfg, len(iterations), traced, budget_end)
        it["duration"] = time.monotonic() - it_start
        iterations.append(it)
        if it["timeout"]:
            break
        elapsed = time.monotonic() - start
        typical = statistics.median(i["duration"] for i in iterations)
        if len(iterations) >= MIN_ITERATIONS and elapsed + typical > seconds:
            break

    digests = [it["sha256"] for it in iterations]
    for it in iterations:
        if it["sha256"] != digests[0]:
            it["problems"].append(f"diagnostics.csv sha256 {it['sha256']} "
                                  f"differs from the first repeat {digests[0]}")
    ok = [it for it in iterations if not it["problems"]]
    untraced = [it for it in ok if not it["traced"]]
    traced_ok = [it for it in ok if it["traced"]]

    samples = {m: [it[m] for it in untraced] for m in END_TO_END}
    layers, spans = {}, {}
    if traced_ok and untraced:
        for key in traced_ok[0]["layers"]:
            layers[key] = statistics.median(it["layers"][key] for it in traced_ok)
        layers["trace.overhead_s"] = (
            statistics.median(it["wall_s"] for it in traced_ok)
            - statistics.median(it["wall_s"] for it in untraced))
        for m in PER_LAYER_PHASES:
            layers[m] = statistics.median(samples[m])
        for span in traced_ok[0]["spans"]:
            spans[span] = {
                field: statistics.median(it["spans"].get(span, {}).get(field, 0)
                                         for it in traced_ok)
                for field in ("total_s", "self_s", "calls")}

    summary = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "arrays": array_bytes(w),
        "config": (workdir / cfg).read_text(),
        "attempted": len(iterations),
        "failed": len(iterations) - len(ok),
        "sha256": sorted(set(d for d in digests if d)),
        "samples": samples, "layers": layers, "spans": spans,
        "iterations": [{k: v for k, v in it.items() if k not in ("layers", "spans")}
                       for it in iterations],
    }
    with open(workdir / "result.json", "w") as f:
        json.dump(summary, f, indent=1)
    return summary


def print_table(s: dict):
    ratio = s["failed"] / s["attempted"]
    print(f"== {s['workload']} seed {s['seed']}: {s['attempted']} attempted, "
          f"{s['failed']} failed, failed_ratio {ratio:g}; "
          f"diagnostics.csv sha256 {', '.join(s['sha256']) or '-'}")
    for it in s["iterations"]:
        for problem in it["problems"]:
            print(f"   FAIL {problem}")
    print(f"   {'metric':<14}{'unit':<7}{'median':>12}  {'high pct':<20}{'n':>4}")
    for m, (unit, better) in END_TO_END.items():
        vals = s["samples"][m]
        med = f"{statistics.median(vals):.6g}" if vals else "-"
        hp = high_percentile(vals, better)
        high = f"p{hp[0]:.0f} {hp[1]:.6g}" if hp else "n/a (n < 11)"
        print(f"   {m:<14}{unit:<7}{med:>12}  {high:<20}{len(vals):>4}")
    for m, v in s["layers"].items():
        if m not in PER_LAYER_PHASES:
            print(f"   {m:<44}{v:>14.6g} {per_layer_unit(m)}")
    if s["spans"]:
        print(f"   {'span':<40}{'total_s':>10}{'self_s':>10}{'calls':>9}")
        for name, row in sorted(s["spans"].items(), key=lambda kv: -kv[1]["total_s"]):
            print(f"   {name:<40}{row['total_s']:>10.4f}{row['self_s']:>10.4f}"
                  f"{row['calls']:>9g}")


def metrics_of(s: dict, trace: bool) -> dict:
    if trace:
        return {m: {"value": v, "unit": per_layer_unit(m)}
                for m, v in s["layers"].items()}
    return {m: {"value": statistics.median(s["samples"][m]), "unit": unit}
            for m, (unit, _) in END_TO_END.items()
            if s["samples"][m] and m not in PER_LAYER_PHASES}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hallsim" / "cli.py").is_file():
        print(f"error: no hallsim sources under {SRC}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                 for n in names]
    for s in summaries:
        print_table(s)

    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else f"{s['workload']}:"
        for m, v in metrics_of(s, bool(args.trace)).items():
            metrics[prefix + m] = v
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
