"""Linear stability machinery: one mode matrix, its readings, degeneracy scans.

Linearized about a homogeneous state, u_t = D lap u + f(u, v) and
tau v_t = lap v - f(u, v) decouple over Neumann modes; the mode with
eigenvalue mu of -Laplace feels the 2x2 matrix

    M(mu) = [[-D mu + fu,  fv], [-fu/tau,  -(mu + fv)/tau]],

where (fu, fv) is the Jacobian of f at the state, for every kinetics:
constant activation a is fu = -delta, fv = a, Hill is fu = v* a'(u*) - delta,
fv = a(u*), which :meth:`~polarsim.kinetics.Model4Params.jacobian` returns
and the degeneracy residual reads.  Since det M(mu) = mu (D mu + D fv - fu)
/ tau, M(0) has the eigenvalue 0 (the mass direction) and tr M(0) =
fu - fv/tau, the slope of the well-mixed reduction.  With constant
activation the spectrum is real; Hill feedback (fu > 0) can make it complex.
The degeneracy residual at the equilibrium reads M: tau det M(mu)/mu on a
mean-free mode, in its closed form, -tr M(0) on the constant mode.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EquilibriumError, ParameterError, PolarsimError
from .grid import Grid
from .equilibrium import HomogeneousEquilibrium, sample_roots, solve_equilibrium
from .kinetics import Model4Params

__all__ = [
    "ModeEigenpair",
    "mode_matrix",
    "mode_eigenpair",
    "degeneracy_residual",
    "DegeneracyReport",
    "scan_degeneracy",
    "linearized_operator_matrix",
]

logger = logging.getLogger(__name__)

NEUTRAL_TOL = 1e-12


def _trace_det(M: np.ndarray) -> tuple[float, float]:
    return float(M[0, 0] + M[1, 1]), float(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])


def mode_matrix(
    fu: float, fv: float, D: float, tau: float, mu: float
) -> tuple[np.ndarray, tuple[complex, complex]]:
    """Mode matrix M(mu) of the Jacobian (fu, fv) and its eigenvalues.

    Returns
    -------
    (M, (e1, e2))
        The 2x2 matrix and its eigenvalues sorted by real part (descending),
        computed from the closed-form quadratic; a complex pair when the
        discriminant is negative.
    """
    if min(D, tau) <= 0 or mu < 0:
        raise ParameterError(f"need D, tau > 0 and mu >= 0, got {(D, tau, mu)}")
    M = np.array([[-D * mu + fu, fv], [-fu / tau, -(mu + fv) / tau]])
    tr, det = _trace_det(M)
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        root = math.sqrt(disc)
        e1, e2 = 0.5 * (tr + root), 0.5 * (tr - root)
    else:
        root_i = math.sqrt(-disc)
        e1, e2 = complex(0.5 * tr, 0.5 * root_i), complex(0.5 * tr, -0.5 * root_i)
    return M, (e1, e2)


@dataclass(frozen=True)
class ModeEigenpair:
    """Eigen-structure of one Neumann mode."""

    j: int
    mu: float
    eigenvalues: tuple[complex, complex]
    classification: str  # stable | neutral | unstable | complex


def mode_eigenpair(
    fu: float, fv: float, D: float, tau: float, j: int, mu: float
) -> ModeEigenpair:
    """Classify mode j (eigenvalue mu of -Laplace) of the Jacobian (fu, fv)."""
    if j < 1:
        raise ParameterError(f"mode index must be >= 1, got {j}")
    _, eigs = mode_matrix(fu, fv, D, tau, mu)
    tol = NEUTRAL_TOL * (D * mu + abs(fu) + abs(fv))
    if any(isinstance(e, complex) and abs(e.imag) > tol for e in eigs):
        cls = "complex"
    else:
        reals = [e.real if isinstance(e, complex) else e for e in eigs]
        if any(e > tol for e in reals):
            cls = "unstable"
        elif any(abs(e) <= tol for e in reals):
            cls = "neutral"
        else:
            cls = "stable"
    return ModeEigenpair(j=j, mu=mu, eigenvalues=eigs, classification=cls)


def degeneracy_residual(
    p: Model4Params,
    lam: float,
    j: int,
    mu_j: float,
    eq: HomogeneousEquilibrium | None = None,
) -> float:
    """Degeneracy residual of the linearized operator on mode j.

    It vanishes exactly when the operator is degenerate on mode j: tau det
    M(mu_j)/mu_j = D mu_j + D fv - fu for a mean-free mode (j >= 2, mu_j > 0),
    -tr M(0) = fv/tau - fu, the well-mixed rate, for j = 1 (mu_j unused).
    The closed form is evaluated as such: det M(mu_j)/mu_j would cancel the
    fu fv terms and lose digits as mu_j -> 0.  With gamma = 0 both are
    positive: a flat activation never degenerates.  A residual that is not
    finite (a'(u*) overflows to inf or inf/inf) raises
    :class:`~polarsim.errors.EquilibriumError`.
    """
    if j < 1:
        raise ParameterError(f"mode index must be >= 1, got {j}")
    if mu_j < 0 or (j > 1 and mu_j == 0):
        raise ParameterError(f"mode eigenvalue must be >= 0, and > 0 for j >= 2, got {mu_j}")
    if eq is None:
        eq = solve_equilibrium(p, lam)
    with np.errstate(all="ignore"):  # a residual past the float range is refused below
        fu, fv = p.jacobian(eq.u_star, eq.v_star)
        if j == 1:
            r = -_trace_det(mode_matrix(fu, fv, p.D, p.tau, 0.0)[0])[0]
        else:
            r = p.D * mu_j + p.D * fv - fu
    if not math.isfinite(r):
        what = "a'(u*)" if not math.isfinite(fu) else "a term"
        raise EquilibriumError(f"the degeneracy residual is not finite ({r}): {what} leaves the float range")
    return r


@dataclass(frozen=True)
class DegeneracyReport:
    """A root of the degeneracy residual along a scan, in its sample bracket."""

    j: int
    param: str
    bracket: tuple[float, float]
    root: float
    residual_at_root: float


_SCANNABLE = ("D", "lambda", "delta")


def scan_degeneracy(
    p: Model4Params,
    lam: float,
    j: int,
    mu_j: float,
    param: str,
    lo: float,
    hi: float,
    samples: int,
) -> list[DegeneracyReport]:
    """Scan the degeneracy residual over one parameter and bracket its roots.

    The scanned parameter is one of D, lambda, delta.  D enters neither the
    balance f = 0 nor the mass line, so a D scan solves the equilibrium once,
    up front, and an error there propagates; a lambda or delta scan re-solves
    it at every sample.  A sample that raises a polarsim error (an
    equilibrium solve that fails) is logged and left a gap no bracket spans;
    when every sample fails, the scan has no evidence either way and raises
    :class:`~polarsim.errors.EquilibriumError`.  The roots are those
    :func:`~polarsim.equilibrium.sample_roots` reads off the samples, as the
    equilibrium's audit does: each refined to adjacent floats, whose end
    with the smaller |residual| is taken.
    """
    if param not in _SCANNABLE:
        raise ParameterError(f"scan parameter must be one of {_SCANNABLE}, got {param!r}")
    if not (0 < lo < hi < math.inf):
        raise ParameterError(f"scan range must satisfy 0 < lo < hi < inf, got ({lo}, {hi})")
    if not (0 < lam < math.inf):
        raise ParameterError(f"total mass lam must be positive and finite, got {lam}")
    if samples < 2:
        raise ParameterError(f"need at least 2 samples, got {samples}")

    eq = solve_equilibrium(p, lam) if param == "D" else None

    def resid(x: float) -> float:
        if param == "lambda":
            return degeneracy_residual(p, x, j, mu_j)
        return degeneracy_residual(replace(p, **{param: x}), lam, j, mu_j, eq)

    xs = np.linspace(lo, hi, samples)
    rs = np.empty_like(xs)
    failures = []
    for i, x in enumerate(xs):
        try:
            rs[i] = resid(float(x))
        except PolarsimError as exc:  # per-point failure: record, keep scanning
            logger.warning("degeneracy scan: %s = %.6g failed: %s", param, x, exc)
            rs[i] = np.nan
            failures.append(exc)
    if len(failures) == samples:
        raise EquilibriumError(f"every sample of the {param} scan failed, the last with: {failures[-1]}")
    return [DegeneracyReport(j, param, *entry) for entry in sample_roots(resid, xs, rs)]


def linearized_operator_matrix(p: Model4Params, lam: float, g: Grid) -> np.ndarray:
    """Dense matrix of the linearized nonlocal operator on a small grid.

    L phi = -D lap(phi) + c phi + (a(u*) xi / tau) mean(phi)  with
    c = delta + D a(u*) + D a'(u*) u* - (a'(u*)/tau)(lam - xi u*).

    It acts as D mu_j^h + c on mean-free discrete eigenvectors and as
    c + a(u*) xi / tau on constants: the residuals tau det M(mu_j^h)/mu_j^h
    and -tr M(0).  The dense form exists as a cross-check on small grids.
    """
    if g.n_nodes > 5000:
        raise ParameterError(
            f"dense operator assembly is a small-grid cross-check (<= 5000 nodes), got {g.n_nodes}"
        )
    eq = solve_equilibrium(p, lam)
    u = eq.u_star
    a = p.a(u)
    ap = p.a_prime(u)
    c = p.delta + p.D * a + p.D * ap * u - (ap / p.tau) * (lam - p.xi * u)
    n = g.n_nodes
    lap = np.empty((n, n))
    basis = np.zeros(g.shape)
    flat = basis.ravel()
    for i in range(n):
        flat[i] = 1.0
        lap[:, i] = g.laplacian(basis).ravel()
        flat[i] = 0.0
    mean_row = (g.weights / g.volume).ravel()
    return -p.D * lap + c * np.eye(n) + (a * p.xi / p.tau) * np.outer(np.ones(n), mean_row)
