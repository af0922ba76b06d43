"""polarsim: a numerical laboratory for mass-conserved reaction-diffusion systems.

Simulates two-species systems u_t = D lap u + f(u, v), tau v_t = lap v - f(u, v)
with Neumann boundary conditions, where the reaction only exchanges mass
between the species, so the total mean(u + tau v) is a conserved quantity.
Alongside the PDE solver it provides the homogeneous equilibrium theory, the
well-mixed ODE reduction, energy (Lyapunov) functionals and their dissipation
identities, sufficient conditions for convergence to the flat state, and
scanners for the mode degeneracies that gate inhomogeneous bifurcation.

Each module's ``__all__`` is the one list of its public names, and the package
re-exports them all; ``cli`` and ``tables`` stay out.
"""

from . import errors, grid, kinetics, equilibrium, linearization, solver, diagnostics, config
from .errors import *
from .grid import *
from .kinetics import *
from .equilibrium import *
from .linearization import *
from .solver import *
from .diagnostics import *
from .config import *

__version__ = "0.1.0"

_MODULES = (errors, grid, kinetics, equilibrium, linearization, solver, diagnostics, config)
__all__ = ["__version__", *(name for mod in _MODULES for name in mod.__all__)]
