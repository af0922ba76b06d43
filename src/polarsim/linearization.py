"""Linear stability machinery: per-mode matrices and degeneracy scans.

With constant activation a the system linearized about a homogeneous state
decouples over Neumann modes; each mode with eigenvalue mu of -Laplace feels
the 2x2 matrix

    M(mu) = [[-D mu - delta,  a], [delta/tau,  -(mu + a)/tau]],

whose determinant mu (D mu + D a + delta) / tau is nonnegative and whose
discriminant (tr^2 - 4 det) equals (D mu + delta - (mu+a)/tau)^2 + 4 a delta
/ tau > 0, so the eigenvalues are always real with a single zero at mu = 0.

For the full Hill activation, degeneracy of the linearized nonlocal operator
at the equilibrium is characterized mode by mode by a scalar residual; a zero
residual flags a candidate bifurcation point.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .grid import Grid
from .equilibrium import HomogeneousEquilibrium, solve_equilibrium
from .kinetics import Model4Params, a_of_u, a_prime

__all__ = [
    "ModeEigenpair",
    "constant_a_mode_matrix",
    "mode_eigenpair",
    "degeneracy_residual",
    "DegeneracyReport",
    "scan_degeneracy",
    "linearized_operator_matrix",
]

logger = logging.getLogger(__name__)

NEUTRAL_TOL = 1e-12
SCAN_REFINE_REL = 1e-8


def constant_a_mode_matrix(
    a: float, D: float, tau: float, delta: float, mu: float
) -> tuple[np.ndarray, tuple[complex, complex]]:
    """Mode matrix and its eigenvalues for constant activation.

    Returns
    -------
    (M, (e1, e2))
        The 2x2 matrix and its eigenvalues sorted by real part (descending),
        computed from the closed-form quadratic.
    """
    if min(a, D, tau, delta) <= 0 or mu < 0:
        raise ParameterError(
            f"need a, D, tau, delta > 0 and mu >= 0, got {(a, D, tau, delta, mu)}"
        )
    M = np.array([[-D * mu - delta, a], [delta / tau, -(mu + a) / tau]])
    tr = M[0, 0] + M[1, 1]
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        root = math.sqrt(disc)
        e1, e2 = 0.5 * (tr + root), 0.5 * (tr - root)
    else:  # structurally unreachable here, kept for robustness
        root_i = math.sqrt(-disc)
        e1, e2 = complex(0.5 * tr, 0.5 * root_i), complex(0.5 * tr, -0.5 * root_i)
    return M, (e1, e2)


@dataclass(frozen=True)
class ModeEigenpair:
    """Eigen-structure of one Neumann mode under constant activation."""

    j: int
    mu: float
    eigenvalues: tuple[complex, complex]
    classification: str  # stable | neutral | unstable | complex


def mode_eigenpair(
    a: float, D: float, tau: float, delta: float, j: int, mu: float
) -> ModeEigenpair:
    """Classify mode j (eigenvalue mu of -Laplace) for constant activation."""
    if j < 1:
        raise ParameterError(f"mode index must be >= 1, got {j}")
    _, eigs = constant_a_mode_matrix(a, D, tau, delta, mu)
    scale = D * mu + delta + a
    tol = NEUTRAL_TOL * scale
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
    """Scalar degeneracy residual of the linearized operator on mode j.

    The operator is degenerate on mode j exactly when the residual vanishes.
    For j >= 2 (mean-free modes)

        r = D mu_j + delta + D a(u*) + D a'(u*) u* + a'(u*) xi u* / tau
            - a'(u*) lam / tau,

    while the j = 1 (constant-mode) variant replaces the xi term by
    a(u*) xi u* / tau and drops the D mu_j contribution since mu_1 = 0.
    With gamma = 0 the residual reduces to D mu_j + delta + D a > 0: a flat
    activation never produces a degeneracy.
    """
    if j < 1:
        raise ParameterError(f"mode index must be >= 1, got {j}")
    if mu_j < 0:
        raise ParameterError(f"mode eigenvalue must be >= 0, got {mu_j}")
    if eq is None:
        eq = solve_equilibrium(p, lam)
    u = eq.u_star
    a = float(a_of_u(p, u))
    ap = float(a_prime(p, u))
    common = p.delta + p.D * a + p.D * ap * u - ap * lam / p.tau
    if j == 1:
        return common + a * p.xi * u / p.tau
    return p.D * mu_j + common + ap * p.xi * u / p.tau


@dataclass(frozen=True)
class DegeneracyReport:
    """A bracketed sign change of the degeneracy residual along a scan."""

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

    The scanned parameter is one of D, lambda, delta; the equilibrium is
    re-solved at every sample.  Sample points where the equilibrium solve
    fails are logged and treated as gaps (no bracket may span them).  Each
    sign change between adjacent valid samples is refined by bisection until
    the bracket width falls below 1e-8 relative.
    """
    if param not in _SCANNABLE:
        raise ParameterError(f"scan parameter must be one of {_SCANNABLE}, got {param!r}")
    if not (0 < lo < hi):
        raise ParameterError(f"scan range must satisfy 0 < lo < hi, got ({lo}, {hi})")
    if samples < 2:
        raise ParameterError(f"need at least 2 samples, got {samples}")

    def resid(x: float) -> float:
        if param == "lambda":
            return degeneracy_residual(p, x, j, mu_j)
        return degeneracy_residual(replace(p, **{param: x}), lam, j, mu_j)

    xs = np.linspace(lo, hi, samples)
    rs = np.empty_like(xs)
    for i, x in enumerate(xs):
        try:
            rs[i] = resid(float(x))
        except Exception as exc:  # per-point failure: record, keep scanning
            logger.warning("degeneracy scan: %s = %.6g failed: %s", param, x, exc)
            rs[i] = np.nan

    reports: list[DegeneracyReport] = []
    for i in range(samples - 1):
        r0, r1 = rs[i], rs[i + 1]
        if not (np.isfinite(r0) and np.isfinite(r1)) or r0 * r1 > 0:
            continue
        a_x, b_x = float(xs[i]), float(xs[i + 1])
        ra = r0
        while b_x - a_x > SCAN_REFINE_REL * max(abs(a_x), abs(b_x)):
            m_x = 0.5 * (a_x + b_x)
            rm = resid(m_x)
            if rm == 0.0:
                a_x = b_x = m_x
                break
            if ra * rm < 0:
                b_x = m_x
            else:
                a_x, ra = m_x, rm
        root = 0.5 * (a_x + b_x)
        reports.append(
            DegeneracyReport(
                j=j,
                param=param,
                bracket=(float(xs[i]), float(xs[i + 1])),
                root=root,
                residual_at_root=resid(root),
            )
        )
    return reports


def linearized_operator_matrix(p: Model4Params, lam: float, g: Grid) -> np.ndarray:
    """Dense matrix of the linearized nonlocal operator on a small grid.

    L phi = -D lap(phi) + c phi + (a(u*) xi / tau) mean(phi)  with
    c = delta + D a(u*) + D a'(u*) u* - (a'(u*)/tau)(lam - xi u*).

    On mean-free discrete eigenvectors this reduces to D mu_j^h + c, which is
    what the mode-wise residual encodes for j >= 2; the dense form exists as
    a cross-check on small grids.
    """
    if g.n_nodes > 5000:
        raise ParameterError(
            f"dense operator assembly is a small-grid cross-check (<= 5000 nodes), got {g.n_nodes}"
        )
    eq = solve_equilibrium(p, lam)
    u = eq.u_star
    a = float(a_of_u(p, u))
    ap = float(a_prime(p, u))
    c = p.delta + p.D * a + p.D * ap * u - (ap / p.tau) * (lam - p.xi * u)
    n = g.n_nodes
    lap = np.empty((n, n))
    basis = np.zeros(g.shape)
    flat = basis.ravel()
    for i in range(n):
        flat[i] = 1.0
        lap[:, i] = g.laplacian(basis).ravel()
        flat[i] = 0.0
    mean_row = (g.weights() / g.volume).ravel()
    return -p.D * lap + c * np.eye(n) + (a * p.xi / p.tau) * np.outer(np.ones(n), mean_row)
