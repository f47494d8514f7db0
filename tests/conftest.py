# hallsim before numpy: it sets OPENBLAS_NUM_THREADS before numpy loads
# OpenBLAS, so the suite runs with the library's one-thread default
import hallsim  # noqa: F401
import numpy as np
import pytest

from hallsim import (Params, build_corbino, build_rectangle, current_density,
                     link_phases, site_density)
from hallsim.diagnostics import continuity_residual


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
