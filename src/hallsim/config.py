"""Flat key = value run configuration with line-itemized validation.

Keys (defaults in parentheses):

  domain
    shape (rectangle)        rectangle | corbino
    nx, ny (32, 32)          site counts for rectangle
    n (32)                   site count for corbino (square grid)
    dx (1.0)                 lattice spacing
    holes ()                 rectangle holes "x0,y0,w,h;x0,y0,w,h" (site indices)
    r_inner, r_outer         corbino radii
  physics
    sigma_h (1.0)            Hall conductivity / Chern-Simons level (nonzero)
    hbar, e, mu (1.0)        natural units by default
  integrator
    dt (0.05 mu dx^2/hbar)   time step
    steps (100)              step count
    record_every (1)         recording cadence; must divide steps
    solver_tol (1e-14)       matter step: residual of the Cayley system
                             relative to its right-hand side
    solver_maxiter (500)     iteration cap of both solves: the matter step's
                             Krylov iterations (one H apply each) and the
                             initial Poisson solve's CG iterations
  initial state
    psi0 (zero)              zero | gaussian | uniform | rim | file
    psi0_center_x/_y         packet center, both or neither (physical units;
                             default domain center)
    psi0_width (4*dx)        packet density sigma
    psi0_kx, psi0_ky (0)     packet momentum
    psi0_norm (1.0)          total integrated density
    psi0_ecut (off)          band-limit: project onto free modes with E <= ecut
    psi0_file                HSFIELD psi snapshot path (psi0 = file)
    rim_band (3)             boundary band (cells) for psi0 = rim
  run
    consistent_init (true)   solve the Gauss constraint for the initial A
    flux (0.0)               flux threaded through hole 0 after initialization
    edge_k (3)               edge shell width (cells) for diagnostics
    rho_star (1e-4)          breakdown density threshold
    b_star (1e-4)            breakdown curl threshold
    sigma_floor (1e-12)      |B_mean| floor below which sigma_est is missing
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .domain import Domain, DomainError, build_corbino, build_rectangle


class ConfigError(ValueError):
    """Invalid configuration; .problems lists every issue found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


_BOOL = {"true": True, "1": True, "yes": True,
         "false": False, "0": False, "no": False}

DEFAULTS = {
    "shape": "rectangle",
    "nx": "32", "ny": "32", "n": "32", "dx": "1.0",
    "holes": "",
    "r_inner": "", "r_outer": "",
    "sigma_h": "1.0", "hbar": "1.0", "e": "1.0", "mu": "1.0",
    "dt": "", "steps": "100", "record_every": "1",
    "solver_tol": "1e-14", "solver_maxiter": "500",
    "psi0": "zero",
    "psi0_center_x": "", "psi0_center_y": "",
    "psi0_width": "", "psi0_kx": "0.0", "psi0_ky": "0.0",
    "psi0_norm": "1.0", "psi0_ecut": "", "psi0_file": "", "rim_band": "3",
    "consistent_init": "true",
    "flux": "0.0",
    "edge_k": "3", "rho_star": "1e-4", "b_star": "1e-4",
    "sigma_floor": "1e-12",
}


def parse_config_text(text: str) -> dict:
    """Parse 'key = value' lines; '#' starts a comment; later keys win."""
    out = {}
    problems = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, val = line.split("=", 1)
        key = key.strip()
        if key not in DEFAULTS:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        out[key] = val.strip()
    if problems:
        raise ConfigError(problems)
    return out


def parse_overrides(pairs) -> dict:
    out = {}
    problems = []
    for item in pairs:
        if "=" not in item:
            problems.append(f"--set {item!r}: expected key=value")
            continue
        key, val = item.split("=", 1)
        key = key.strip()
        if key not in DEFAULTS:
            problems.append(f"--set: unknown key {key!r}")
            continue
        out[key] = val.strip()
    if problems:
        raise ConfigError(problems)
    return out


@dataclass
class RunConfig:
    shape: str
    nx: int
    ny: int
    n: int
    dx: float
    holes: list
    r_inner: float
    r_outer: float
    sigma_h: float
    hbar: float
    e: float
    mu: float
    dt: float                  # 0 means "use the stability default"
    steps: int
    record_every: int
    solver_tol: float
    solver_maxiter: int
    psi0: str
    psi0_center: tuple         # (x, y) or None for domain center
    psi0_width: float          # 0 means 4*dx
    psi0_k: tuple
    psi0_norm: float
    psi0_ecut: float           # 0 means no band limiting
    psi0_file: str
    rim_band: int
    consistent_init: bool
    flux: float
    edge_k: int
    rho_star: float
    b_star: float
    sigma_floor: float
    raw: dict = field(default_factory=dict)

    def echo(self) -> str:
        """Canonical key = value listing that reproduces this config."""
        lines = []
        for key in DEFAULTS:
            lines.append(f"{key} = {self.raw.get(key, DEFAULTS[key])}")
        return "\n".join(lines) + "\n"


def _parse_holes(text: str, problems):
    holes = []
    if not text:
        return holes
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split(",")
        if len(bits) != 4:
            problems.append(f"holes: expected 'x0,y0,w,h', got {part!r}")
            continue
        try:
            holes.append(tuple(int(b) for b in bits))
        except ValueError:
            problems.append(f"holes: non-integer entry in {part!r}")
    return holes


def build_config(values: dict) -> RunConfig:
    """Merge with defaults and validate; raises ConfigError listing problems."""
    merged = dict(DEFAULTS)
    merged.update(values)
    problems = []

    def get_float(key, positive=False, nonzero=False, default=None):
        raw = merged[key]
        if raw == "":
            return default
        try:
            v = float(raw)
        except ValueError:
            problems.append(f"{key}: not a number: {raw!r}")
            return default
        if not math.isfinite(v):
            problems.append(f"{key}: must be finite, got {raw!r}")
            return default
        if positive and not v > 0:
            problems.append(f"{key}: must be positive, got {v}")
        if nonzero and v == 0:
            problems.append(f"{key}: must be nonzero")
        return v

    def get_int(key, minimum=None):
        raw = merged[key]
        try:
            v = int(raw)
        except ValueError:
            problems.append(f"{key}: not an integer: {raw!r}")
            return 0
        if minimum is not None and v < minimum:
            problems.append(f"{key}: must be >= {minimum}, got {v}")
        return v

    def get_bool(key):
        raw = merged[key].lower()
        if raw not in _BOOL:
            problems.append(f"{key}: expected a boolean, got {merged[key]!r}")
            return True
        return _BOOL[raw]

    shape = merged["shape"].lower()
    if shape not in ("rectangle", "corbino"):
        problems.append(f"shape: must be rectangle or corbino, got {merged['shape']!r}")

    nx = get_int("nx", 4)
    ny = get_int("ny", 4)
    n = get_int("n", 4)
    dx = get_float("dx", positive=True, default=1.0)
    holes = _parse_holes(merged["holes"], problems)
    r_inner = get_float("r_inner")
    r_outer = get_float("r_outer")
    if shape == "corbino":
        if r_inner is None or r_outer is None:
            problems.append("corbino shape needs r_inner and r_outer")

    sigma_h = get_float("sigma_h", nonzero=True, default=1.0)
    hbar = get_float("hbar", positive=True, default=1.0)
    e = get_float("e", positive=True, default=1.0)
    mu = get_float("mu", positive=True, default=1.0)

    dt = get_float("dt", default=0.0)
    if dt is not None and dt < 0:
        problems.append(f"dt: must be positive, got {dt}")
    steps = get_int("steps", 0)
    record_every = get_int("record_every", 1)
    if record_every >= 1 and steps % max(record_every, 1) != 0:
        problems.append(
            f"record_every: must divide steps ({steps} % {record_every} != 0)")
    solver_tol = get_float("solver_tol", positive=True, default=1e-14)
    solver_maxiter = get_int("solver_maxiter", 1)

    psi0 = merged["psi0"].lower()
    if psi0 not in ("zero", "gaussian", "uniform", "rim", "file"):
        problems.append(
            f"psi0: must be zero|gaussian|uniform|rim|file, got {merged['psi0']!r}")
    cx = get_float("psi0_center_x")
    cy = get_float("psi0_center_y")
    if (cx is None) != (cy is None):
        problems.append("psi0_center_x and psi0_center_y must be given together")
    center = None if cx is None or cy is None else (cx, cy)
    width = get_float("psi0_width", default=0.0)
    if width is not None and width < 0:
        problems.append(f"psi0_width: must be positive, got {width}")
    kx = get_float("psi0_kx", default=0.0)
    ky = get_float("psi0_ky", default=0.0)
    norm = get_float("psi0_norm", default=1.0)
    if norm is not None and norm < 0:
        problems.append(f"psi0_norm: must be >= 0, got {norm}")
    ecut = get_float("psi0_ecut", default=0.0)
    if ecut is not None and ecut < 0:
        problems.append(f"psi0_ecut: must be positive, got {ecut}")
    psi0_file = merged["psi0_file"]
    if psi0 == "file" and not psi0_file:
        problems.append("psi0 = file needs psi0_file")
    rim_band = get_int("rim_band", 1)

    consistent_init = get_bool("consistent_init")
    flux = get_float("flux", default=0.0)
    edge_k = get_int("edge_k", 1)
    rho_star = get_float("rho_star", positive=True, default=1e-4)
    b_star = get_float("b_star", positive=True, default=1e-4)
    sigma_floor = get_float("sigma_floor", positive=True, default=1e-12)

    if problems:
        raise ConfigError(problems)

    return RunConfig(
        shape=shape, nx=nx, ny=ny, n=n, dx=dx, holes=holes,
        r_inner=r_inner if r_inner is not None else 0.0,
        r_outer=r_outer if r_outer is not None else 0.0,
        sigma_h=sigma_h, hbar=hbar, e=e, mu=mu,
        dt=dt or 0.0, steps=steps, record_every=record_every,
        solver_tol=solver_tol, solver_maxiter=solver_maxiter,
        psi0=psi0, psi0_center=center, psi0_width=width or 0.0,
        psi0_k=(kx, ky), psi0_norm=norm, psi0_ecut=ecut or 0.0,
        psi0_file=psi0_file, rim_band=rim_band,
        consistent_init=consistent_init, flux=flux,
        edge_k=edge_k, rho_star=rho_star, b_star=b_star,
        sigma_floor=sigma_floor,
        raw=dict(values),
    )


def make_domain(cfg: RunConfig) -> Domain:
    try:
        if cfg.shape == "corbino":
            return build_corbino(cfg.n, cfg.dx, cfg.r_inner, cfg.r_outer)
        return build_rectangle(cfg.nx, cfg.ny, cfg.dx, cfg.holes)
    except DomainError as err:
        raise ConfigError([f"domain: {err}"]) from err
