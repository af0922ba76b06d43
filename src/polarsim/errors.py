"""Exception hierarchy shared across the package."""
from __future__ import annotations

from typing import Sequence

__all__ = [
    "PolarsimError",
    "ParameterError",
    "GridMismatchError",
    "EquilibriumError",
    "QuadratureError",
    "SolverError",
    "DiagnosticsError",
    "ConfigError",
]


class PolarsimError(Exception):
    """Base class for all errors raised by polarsim."""


class ParameterError(PolarsimError, ValueError):
    """A model parameter or argument is outside its admissible range."""


class GridMismatchError(PolarsimError, ValueError):
    """A field was combined with a grid it does not live on."""


class EquilibriumError(PolarsimError, RuntimeError):
    """The homogeneous balance equation could not be solved as posed."""


class QuadratureError(PolarsimError, RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class SolverError(PolarsimError, RuntimeError):
    """Time integration failed (positivity retries exhausted, no convergence...).

    ``partial_records`` and ``partial_state`` hold what the run had recorded.
    """

    partial_records: Sequence = ()
    partial_state: object | None = None


class DiagnosticsError(PolarsimError, RuntimeError):
    """A diagnostic quantity could not be computed from the available records."""


class ConfigError(PolarsimError, ValueError):
    """A scenario configuration file or CLI override is invalid."""
