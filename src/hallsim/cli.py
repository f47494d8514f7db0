"""Command line interface: simulate / quantize / diagnose.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
Diagnostics print floats in shortest round-trip decimal form and snapshots
hold the raw doubles, so identical configurations produce byte-identical
diagnostics and snapshots.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Sequence

import numpy as np

from . import __version__
from .config import (ConfigError, RunConfig, build_config, make_domain,
                     parse_config_text, parse_overrides)
from .diagnostics import DiagnosticsRecord, continuity_residual, record_state
from .domain import Domain, DomainError
from .dynamics import (Params, SimState, SolverError, Workspace, advance,
                       default_dt, initialize_consistent)
from .fields import LinkField, current_density, link_phases, site_density
from .holonomy import insert_flux
from .initial import band_limited, gaussian_packet, rim_pair_state, uniform_state
from .quantization import single_valuedness_scan
from .snapshots import SnapshotError, check_grid, read_field, write_state

MAX_CANDIDATES = 1_000_000      # sigma_H candidates one quantize scan may build
RECORD_BLOCK_BYTES = 1 << 20    # bytes of record rows per allocation (Records)


def _params(cfg: RunConfig, d: Domain) -> Params:
    dt = cfg.dt if cfg.dt > 0 else default_dt(d, cfg.mu, cfg.hbar)
    try:
        return Params(sigma_h=cfg.sigma_h, hbar=cfg.hbar, e=cfg.e, mu=cfg.mu,
                      dt=dt)
    except ValueError as err:   # e.g. a default dt that underflows to 0
        raise ConfigError([str(err)]) from err


def _read_snapshot(path, want: str, d: Domain) -> np.ndarray:
    kind, nx, ny, dx, arr = read_field(path)
    if kind != want:
        raise SnapshotError(f"{path}: holds {kind!r}, expected {want}")
    check_grid(path, nx, ny, dx, d)
    return arr


def _initial_psi(cfg: RunConfig, d: Domain, p: Params) -> np.ndarray:
    if cfg.psi0 == "zero":
        return np.zeros((d.nx, d.ny), dtype=np.complex128)
    try:
        if cfg.psi0 == "uniform":
            psi = uniform_state(d, cfg.psi0_norm)
        elif cfg.psi0 == "gaussian":
            center = cfg.psi0_center
            if center is None:
                center = ((d.nx - 1) * d.dx / 2.0, (d.ny - 1) * d.dx / 2.0)
            width = cfg.psi0_width if cfg.psi0_width > 0 else 4.0 * d.dx
            psi = gaussian_packet(d, center, width, cfg.psi0_k, cfg.psi0_norm)
        elif cfg.psi0 == "rim":
            psi = rim_pair_state(d, p, cfg.psi0_norm)
        else:
            psi = np.where(d.active, _read_snapshot(cfg.psi0_file, "psi", d), 0.0)
        if cfg.psi0_ecut > 0:
            psi = band_limited(psi, d, p, cfg.psi0_ecut, cfg.psi0_norm)
    except (DomainError, SnapshotError):    # ValueErrors that keep exit 3
        raise
    except ValueError as err:   # e.g. a packet that underflows on the domain
        raise ConfigError([f"psi0: {err}"]) from err
    return psi


class Records(Sequence):
    """The recorded states of a run, held on the active sites and links.

    A record keeps its t and one row of the values of psi, a1 and a2 on
    d.active, d.h_active and d.v_active.  The states of a run are +0.0 off
    the domain, so reading an item rebuilds its SimState bit for bit, with
    rate None (the rows never read the predictor).  A slice gives a list of
    states.

    The rows of the `count` records of a run are allocated in blocks of
    about RECORD_BLOCK_BYTES, the last one cut to the records left.  With
    one array per row, the peak RSS of 1,001 records on a 64^2 Corbino
    swung between 112 and 137 MB with unrelated allocations; one table for
    all rows read 119 MB there and raised a 256^2 run's peak by 3 MB.
    Blocks of 1 MiB read 114 MB, and a 256^2 row (2 MB) is a block of its
    own.
    """

    def __init__(self, d: Domain, p: Params, count: int):
        self.domain, self.params = d, p
        n_h = int(d.h_active.sum())
        self._cuts = (2 * d.n_active, 2 * d.n_active + n_h)
        self._size = self._cuts[1] + int(d.v_active.sum())
        self._per_block = max(1, RECORD_BLOCK_BYTES // (8 * self._size))
        self._count = count
        self._t, self._blocks = [], []

    def _row(self, i: int) -> np.ndarray:
        return self._blocks[i // self._per_block][i % self._per_block]

    def append(self, s: SimState):
        d, i = self.domain, len(self._t)
        if i % self._per_block == 0:
            rows = min(self._per_block, self._count - i)
            self._blocks.append(np.empty((rows, self._size)))
        psi, a1, a2 = np.split(self._row(i), self._cuts)
        psi.view(np.complex128)[:] = s.psi[d.active]
        a1[:] = s.a.a1[d.h_active]
        a2[:] = s.a.a2[d.v_active]
        self._t.append(s.t)

    def __len__(self) -> int:
        return len(self._t)

    def __getitem__(self, i):
        i = range(len(self))[i]
        if isinstance(i, range):
            return [self[k] for k in i]
        d = self.domain
        psi_on, a1_on, a2_on = np.split(self._row(i), self._cuts)
        psi = np.zeros((d.nx, d.ny), dtype=np.complex128)
        psi[d.active] = psi_on.view(np.complex128)
        a = LinkField.zeros(d)
        a.a1[d.h_active] = a1_on
        a.a2[d.v_active] = a2_on
        return SimState(d, self.params, psi, a, self._t[i])


def simulate_run(cfg: RunConfig):
    """Run one simulation; returns (domain, params, recorded states).

    The initial potential solves the Gauss constraint for the initial psi
    (dynamics.initialize_consistent), and the steps keep it.  The recorded
    states are a Records sequence: the initial state and every
    record_every-th step.  All steps share one Workspace, built with the
    rest of the set-up.
    """
    d = make_domain(cfg)
    p = _params(cfg, d)
    # Gershgorin bound ||H|| <= hbar^2 max(degree) / (mu dx^2); the ratio is
    # 0.1 at the default dt.  Past 1 the Cayley step stays stable and unitary
    # but the phase per step of the fastest modes is no longer resolved.
    ratio = p.dt * p.hbar * d.degree.max() / (2.0 * p.mu * d.dx ** 2)
    if ratio > 1.0:
        print(f"warning: dt = {p.dt!r} gives dt*||H||/(2 hbar) = {ratio:.3g} > 1; "
              "the step is stable but inaccurate", file=sys.stderr)
    state = initialize_consistent(d, _initial_psi(cfg, d, p), p)
    if cfg.flux != 0.0:
        if d.g == 0:
            raise ConfigError(["flux: domain has no hole to thread flux through"])
        state = SimState(d, p, state.psi, insert_flux(state.a, d, 0, cfg.flux), 0.0)

    records = Records(d, p, 1 + cfg.steps // cfg.record_every)
    records.append(state)
    work = Workspace(d)
    for step in range(1, cfg.steps + 1):
        try:
            state = advance(state, work)
        except SolverError as err:
            raise SolverError(f"step {step}: {err}") from err
        if step % cfg.record_every == 0:
            records.append(state)
    return d, p, records


def records_to_rows(records) -> list:
    """DiagnosticsRecord per recorded state.

    Reads each record once, by index, and builds its row at once: its site
    density and current are computed once and serve its own row and its
    neighbors' continuity check.  A row's continuity cell is filled when
    the record after it is read, from the density, current and t kept of
    the record before and the one after, so only one record's psi and a
    are alive at a time.
    """
    rows, kept = [], []             # (t-only state, rho, j) of the last two
    for i in range(len(records)):
        s = records[i]
        d, p = s.domain, s.params
        rho = site_density(s.psi, d)
        j = current_density(s.psi, link_phases(s.a, d, p), d, p)
        rows.append(record_state(s, current=j, density=rho))
        kept.append((SimState(d, p, None, None, s.t), rho, j))
        del s
        if len(kept) == 3:
            (prev, rho_p, jp), _, (nxt, rho_n, jn) = kept
            rows[-2].continuity_rel = continuity_residual(prev, nxt, jp, jn,
                                                          rho_p, rho_n)
            del kept[0]
    return rows


def _blas() -> str:
    """'name version' of the BLAS numpy was built with, or 'unknown' where
    numpy cannot say (show_config has no mode before numpy 1.25)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"


def _write_manifest(path, cfg: RunConfig, wall: float):
    """The version, wall time, the environment that byte identity of the
    outputs depends on (Python, numpy, its BLAS library and the BLAS thread
    settings as the run saw them) and the config echo."""
    python = sys.version.replace("\n", " ")
    with open(path, "w") as f:
        f.write(f"hallsim {__version__}\n")
        f.write(f"wall_time_s = {wall:.3f}\n")
        f.write(f"python = {python}\n")
        f.write(f"numpy = {np.__version__}\n")
        f.write(f"blas = {_blas()}\n")
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            f.write(f"{name} = {os.environ.get(name, 'unset')}\n")
        f.write("\n[config]\n")
        f.write(cfg.echo())


def cmd_simulate(cfg: RunConfig, outdir: str) -> int:
    t0 = time.monotonic()
    d, p, records = simulate_run(cfg)
    rows = records_to_rows(records)
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, "diagnostics.csv")
    with open(csv_path, "w") as f:
        f.write(DiagnosticsRecord.header(d.g) + "\n")
        for row in rows:
            f.write(row.row() + "\n")
    for name, i in (("initial", 0), ("final", -1)):
        s = records[i]
        write_state(outdir, name, s.psi, s.a, d)
    _write_manifest(os.path.join(outdir, "manifest.txt"), cfg,
                    time.monotonic() - t0)
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return 0


def cmd_quantize(cfg: RunConfig, outdir: str, smin: float, smax: float,
                 sstep: float, tol: float) -> int:
    problems = []
    if not np.isfinite([smin, smax, sstep]).all():
        problems.append("--sigma-min, --sigma-max and --sigma-step must be finite")
    if sstep <= 0:
        problems.append(f"--sigma-step must be positive, got {sstep}")
    if smax < smin:
        problems.append(f"--sigma-max {smax} below --sigma-min {smin}")
    count = 0 if problems else np.floor((smax - smin) / sstep + 1e-9) + 1
    if not count <= MAX_CANDIDATES:     # also an infinite count
        problems.append(f"--sigma-step {sstep} gives more than "
                        f"{MAX_CANDIDATES} candidates from --sigma-min to "
                        "--sigma-max")
    if not tol > 0:
        problems.append(f"--tol must be positive, got {tol}")
    if problems:
        raise ConfigError(problems)

    candidates = [smin + i * sstep for i in range(int(count))]
    spec = single_valuedness_scan(candidates, l=1.0, hbar=cfg.hbar, tol=tol)
    allowed = set(spec.allowed)

    lines = []
    if tol >= 2.0:
        lines.append(f"warning: tol = {repr(float(tol))} admits every "
                     "candidate (mismatches never exceed 2)")
    elif tol >= 1.0:
        lines.append(f"warning: tol = {repr(float(tol))} is too loose to "
                     "separate integer from non-integer candidates")
    for s, m in zip(spec.candidates, spec.mismatches):
        lines.append(f"{repr(float(s))}, {repr(float(m))}, "
                     f"{'allowed' if s in allowed else 'rejected'}")
    nonneg = sorted(spec.allowed_nonnegative)
    lines.append("allowed_set = {" + ", ".join(repr(float(s)) for s in nonneg) + "}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "spectrum.txt"), "w") as f:
            f.write(text)
    return 0


def cmd_diagnose(cfg: RunConfig, psi_path, a1_path, a2_path) -> int:
    d = make_domain(cfg)
    p = _params(cfg, d)
    if (a1_path is None) != (a2_path is None):
        raise ConfigError(["diagnose: --a1 and --a2 must be given together"])
    if not psi_path and not a1_path:
        raise ConfigError(["diagnose: need --psi and/or --a1/--a2"])

    psi = a = None
    if psi_path:
        psi = np.where(d.active, _read_snapshot(psi_path, "psi", d), 0.0)
    if a1_path:
        a = LinkField(_read_snapshot(a1_path, "a1", d),
                      _read_snapshot(a2_path, "a2", d))
    rec = record_state(SimState(d, p, psi, a, 0.0))
    print(DiagnosticsRecord.header(d.g))
    print(rec.row())
    return 0


def _load_config(args) -> RunConfig:
    values = {}
    if args.config:
        try:
            with open(args.config) as f:
                text = f.read()
        except OSError as err:
            raise ConfigError([f"--config {args.config}: {err}"]) from err
        values.update(parse_config_text(text))
    values.update(parse_overrides(args.set or []))
    return build_config(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hallsim",
        description="Lattice simulator for a 2D electron field coupled to a "
                    "Chern-Simons gauge potential.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="key = value config file")
        sp.add_argument("--out", default="", help="output directory")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (repeatable)")

    sp_sim = sub.add_parser("simulate", help="run the coupled evolution")
    common(sp_sim)

    sp_q = sub.add_parser("quantize", help="single-valuedness scan of sigma_H")
    common(sp_q)
    sp_q.add_argument("--sigma-min", type=float, default=0.0)
    sp_q.add_argument("--sigma-max", type=float, default=5.0)
    sp_q.add_argument("--sigma-step", type=float, default=0.25)
    sp_q.add_argument("--tol", type=float, default=1e-9)

    sp_d = sub.add_parser("diagnose", help="one diagnostics row for saved snapshots")
    common(sp_d)
    sp_d.add_argument("--psi", help="HSFIELD psi snapshot")
    sp_d.add_argument("--a1", help="HSFIELD a1 snapshot")
    sp_d.add_argument("--a2", help="HSFIELD a2 snapshot")

    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args)
        if args.command == "simulate":
            if not args.out:
                raise ConfigError(["simulate needs --out DIR"])
            return cmd_simulate(cfg, args.out)
        if args.command == "quantize":
            return cmd_quantize(cfg, args.out, args.sigma_min, args.sigma_max,
                                args.sigma_step, args.tol)
        return cmd_diagnose(cfg, args.psi, args.a1, args.a2)
    except ConfigError as err:
        for problem in err.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except (SolverError, SnapshotError, DomainError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
