"""hallsim: lattice dynamics of a 2D electron field with Chern-Simons links.

A masked square-lattice simulator for a non-interacting electron field
minimally coupled (Peierls links) to a U(1) potential whose dynamics is the
Hall law d_t A = (Hall dual of j)/sigma_H with Gauss constraint
sigma_H curl A = e |psi|^2, on multiply-connected domains.  Includes the
zero-mode quantization chain that forces integer sigma_H, Wilson-loop
holonomies, and edge/bulk regime diagnostics.
"""

import os

# One BLAS thread unless the user chose otherwise: the only BLAS calls of a
# step are the Cayley solve's np.vdot on one lattice vector, which threads
# do not speed up but which then take twice the CPU time.  OpenBLAS reads
# this when its library loads, so it is set before the imports below load
# numpy's.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .domain import Domain, DomainError, build_corbino, build_rectangle
from .dynamics import (Params, SimState, SolverError, Workspace, advance,
                       cayley_step, default_dt, dense_hamiltonian, gauge_rate,
                       initialize_consistent)
from .fields import (CurrentField, LinkField, apply_gauge, current_density,
                     density_to_plaquettes, link_divergence, link_phases,
                     plaquette_curl, site_density, site_gradient)
from .holonomy import LoopPhase, insert_flux, wilson_loop, wrap_phase
from .initial import (band_limited, gaussian_packet, normalize,
                      rim_pair_state, uniform_state)
from .quantization import (Spectrum, ZeroMode, single_valuedness_scan,
                           zero_mode, zero_mode_bracket)
