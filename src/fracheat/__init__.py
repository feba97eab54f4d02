"""fracheat: controlled fractional heat equation on (-1, 1).

P1 finite-element discretization of the fractional Laplacian with
exterior Dirichlet condition, lumped-mass implicit Euler time marching,
which preserves positivity for s >= 0.2374, spectral and
observability diagnostics, and control synthesis with nonnegativity
constraints, including minimal-horizon estimation by bisection.  Every
control a solver returns comes with one verdict, a
:class:`FixedTimeOutcome`: its simulated trajectory, terminal residual
and feasibility.
"""

from . import assembly, config, control, dynamics, errors, grid
from . import observability, scenario, spectral
from .assembly import *  # noqa: F403
from .config import *  # noqa: F403
from .control import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .errors import *  # noqa: F403
from .grid import *  # noqa: F403
from .observability import *  # noqa: F403
from .scenario import *  # noqa: F403
from .spectral import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
_MODULES = (assembly, config, control, dynamics, errors, grid, observability, scenario, spectral)
__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
