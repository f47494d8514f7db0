"""Flat key = value run configuration with line-itemized validation.

Each key is declared once, as a RunConfig field that carries its default
text and its parser; DEFAULTS and RunConfig.echo are derived from those
declarations.  Every problem found is reported at once (ConfigError.problems).
The time step is checked again when the run's Params are built: a dt that
underflows to 0 (dx = 1e-200 with the default dt) is a configuration error
too.

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
  initial state
    psi0 (zero)              zero | gaussian | uniform | rim | file; the rim
                             state sits on the edge band and its
                             zero-potential current circulates
                             counter-clockwise about the grid centre
    psi0_center_x,           packet center, both or neither (physical units;
    psi0_center_y            default domain center)
    psi0_width (4*dx)        packet density sigma
    psi0_kx, psi0_ky (0)     packet momentum
    psi0_norm (1.0)          total integrated density
    psi0_ecut (off)          band-limit: project onto free modes with E <= ecut
    psi0_file                HSFIELD psi snapshot path (psi0 = file)
  run
    flux (0.0)               flux threaded through hole 0 after initialization

The edge band width, the breakdown and sigma_est thresholds and the solvers'
iteration cap are fixed constants (domain.EDGE_WIDTH; diagnostics.RHO_STAR,
B_STAR, SIGMA_FLOOR; dynamics.MAX_ITERATIONS), not keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .domain import Domain, DomainError, build_corbino, build_rectangle


class ConfigError(ValueError):
    """Invalid configuration; .problems lists every issue found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# A parser maps the raw text of one key to its value and reports each problem
# through bad(message); the value it returns on a problem feeds the cross-key
# checks of build_config only.

def _number(kind=float, empty=None, minimum=None, positive=False,
            nonzero=False):
    """Parser of an int or a finite float; a float key given as '' is `empty`."""
    def parse(raw, bad):
        if raw == "" and kind is float:
            return empty
        try:
            v = kind(raw)
        except ValueError:
            bad(f"not {'a number' if kind is float else 'an integer'}: {raw!r}")
            return empty
        if kind is float and not math.isfinite(v):
            bad(f"must be finite, got {raw!r}")
            return empty
        if positive and not v > 0:
            bad(f"must be positive, got {v}")
        if nonzero and v == 0:
            bad("must be nonzero")
        if minimum is not None and v < minimum:
            bad(f"must be >= {minimum}, got {v}")
        return v
    return parse


def _count(minimum):
    return _number(int, 0, minimum)


def _choice(sep, *options):
    def parse(raw, bad):
        if raw.lower() not in options:
            bad(f"must be {sep.join(options)}, got {raw!r}")
        return raw.lower()
    return parse


def _holes(raw, bad):
    holes = []
    for part in filter(None, (p.strip() for p in raw.split(";"))):
        bits = part.split(",")
        if len(bits) != 4:
            bad(f"expected 'x0,y0,w,h', got {part!r}")
            continue
        try:
            holes.append(tuple(int(b) for b in bits))
        except ValueError:
            bad(f"non-integer entry in {part!r}")
    return holes


def _key(default: str, parse):
    """A config key: its default text and its parser."""
    return field(metadata={"default": default, "parse": parse})


@dataclass
class RunConfig:
    """One field per config key (see the module docstring), plus raw: the
    key = value pairs given, which echo() lists over the defaults."""
    shape: str = _key("rectangle", _choice(" or ", "rectangle", "corbino"))
    nx: int = _key("32", _count(4))
    ny: int = _key("32", _count(4))
    n: int = _key("32", _count(4))
    dx: float = _key("1.0", _number(empty=1.0, positive=True))
    holes: list = _key("", _holes)
    r_inner: float = _key("", _number())        # None when not given
    r_outer: float = _key("", _number())
    sigma_h: float = _key("1.0", _number(empty=1.0, nonzero=True))
    hbar: float = _key("1.0", _number(empty=1.0, positive=True))
    e: float = _key("1.0", _number(empty=1.0, positive=True))
    mu: float = _key("1.0", _number(empty=1.0, positive=True))
    dt: float = _key("", _number(empty=0.0, minimum=0))  # 0: stability default
    steps: int = _key("100", _count(0))
    record_every: int = _key("1", _count(1))
    psi0: str = _key("zero", _choice("|", "zero", "gaussian", "uniform", "rim",
                                     "file"))
    psi0_center_x: float = _key("", _number())  # None: domain center
    psi0_center_y: float = _key("", _number())
    psi0_width: float = _key("", _number(empty=0.0, minimum=0))  # 0: 4*dx
    psi0_kx: float = _key("0.0", _number(empty=0.0))
    psi0_ky: float = _key("0.0", _number(empty=0.0))
    psi0_norm: float = _key("1.0", _number(empty=1.0, minimum=0))
    psi0_ecut: float = _key("", _number(empty=0.0, minimum=0))  # 0: off
    psi0_file: str = _key("", lambda raw, bad: raw)
    flux: float = _key("0.0", _number(empty=0.0))
    raw: dict = field(default_factory=dict)

    @property
    def psi0_center(self):
        """Packet center (x, y), or None for the domain center."""
        if self.psi0_center_x is None or self.psi0_center_y is None:
            return None
        return (self.psi0_center_x, self.psi0_center_y)

    @property
    def psi0_k(self) -> tuple:
        return (self.psi0_kx, self.psi0_ky)

    def echo(self) -> str:
        """Canonical key = value listing that reproduces this config."""
        return "".join(f"{key} = {self.raw.get(key, default)}\n"
                       for key, default in DEFAULTS.items())


_KEYS = [f for f in fields(RunConfig) if "parse" in f.metadata]
DEFAULTS = {f.name: f.metadata["default"] for f in _KEYS}


def _assignments(items) -> dict:
    """{key: value} from (where, 'key = value' text, message if malformed)."""
    out, problems = {}, []
    for where, text, malformed in items:
        key, eq, val = text.partition("=")
        key = key.strip()
        if not eq:
            problems.append(malformed)
        elif key not in DEFAULTS:
            problems.append(f"{where}: unknown key {key!r}")
        else:
            out[key] = val.strip()
    if problems:
        raise ConfigError(problems)
    return out


def parse_config_text(text: str) -> dict:
    """Parse 'key = value' lines; '#' starts a comment; later keys win."""
    items = []
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            items.append((f"line {n}", line,
                          f"line {n}: expected 'key = value', got {raw!r}"))
    return _assignments(items)


def parse_overrides(pairs) -> dict:
    """Parse --set key=value items; later keys win."""
    return _assignments(("--set", item, f"--set {item!r}: expected key=value")
                        for item in pairs)


def build_config(values: dict) -> RunConfig:
    """Merge with defaults and validate; raises ConfigError listing problems."""
    merged = {**DEFAULTS, **values}
    problems = []
    parsed = {}
    for f in _KEYS:
        parsed[f.name] = f.metadata["parse"](
            merged[f.name], lambda msg: problems.append(f"{f.name}: {msg}"))
    cfg = RunConfig(**parsed, raw=dict(values))

    if cfg.shape == "corbino" and (cfg.r_inner is None or cfg.r_outer is None):
        problems.append("corbino shape needs r_inner and r_outer")
    if cfg.record_every >= 1 and cfg.steps % cfg.record_every != 0:
        problems.append(f"record_every: must divide steps "
                        f"({cfg.steps} % {cfg.record_every} != 0)")
    if (cfg.psi0_center_x is None) != (cfg.psi0_center_y is None):
        problems.append("psi0_center_x and psi0_center_y must be given together")
    if cfg.psi0 == "file" and not cfg.psi0_file:
        problems.append("psi0 = file needs psi0_file")
    if problems:
        raise ConfigError(problems)
    return cfg


def make_domain(cfg: RunConfig) -> Domain:
    try:
        if cfg.shape == "corbino":
            return build_corbino(cfg.n, cfg.dx, cfg.r_inner, cfg.r_outer)
        return build_rectangle(cfg.nx, cfg.ny, cfg.dx, cfg.holes)
    except DomainError as err:
        raise ConfigError([f"domain: {err}"]) from err
