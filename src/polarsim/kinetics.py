"""Reaction kinetics for the mass-conserved two-species systems.

All models share the skeleton

    u_t = D lap(u) + f(u, v),      tau v_t = lap(v) - f(u, v),

so the spatial mean of u + tau v is invariant.  Three kinetics are provided:

* model 1:  f(u, v) = h1(u) + k v           with h1(u) = -a u / (u^2 + b)
* model 2:  f(u, v) = h2(u + v) + alpha1 v  with h2(z) = -alpha1 z / (alpha2 z + 1)^2
* model 4:  f(u, v) = v a(u) - delta u      with a(u) a saturating Hill activation

Antiderivatives (drift potentials) are normalized to vanish at 0 and are
evaluated in closed form where elementary, otherwise by adaptive Simpson
quadrature to 1e-10 absolute.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError, QuadratureError

__all__ = [
    "Model1Params",
    "Model2Params",
    "Model4Params",
    "a_of_u",
    "a_prime",
    "alpha_sup",
    "f_model1",
    "f_model2",
    "f_model4",
    "h_model1",
    "h_model2",
    "drift_model1",
    "drift_model2",
    "drift_primitive_model1",
    "drift_primitive_model2",
    "ode_rhs_model4",
    "ode_potential_model4",
    "reaction_rhs",
    "StackedParams",
    "quasi_positivity_margins",
]

QUAD_ABS_TOL = 1e-10


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterError(msg)


@dataclass(frozen=True)
class Model1Params:
    """Kinetics f(u, v) = -a u/(u^2 + b) + k v."""

    D: float
    tau: float
    a: float
    b: float
    k: float

    def __post_init__(self) -> None:
        _require(self.D > 0, f"D must be positive, got {self.D}")
        _require(self.tau > 0, f"tau must be positive, got {self.tau}")
        _require(self.a > 0, f"a must be positive, got {self.a}")
        _require(self.b > 0, f"b must be positive, got {self.b}")
        _require(self.k > 0, f"k must be positive, got {self.k}")

    @property
    def xi(self) -> float:
        return 1.0 - self.tau * self.D


@dataclass(frozen=True)
class Model2Params:
    """Kinetics f(u, v) = h(u+v) + alpha1 v with h(z) = -alpha1 z/(alpha2 z + 1)^2.

    Requires tau != 1; the derived coefficients xi = (1 - tau D)/(tau - 1) and
    alpha = (1 - D)/(tau - 1) drive the transformed-variable energy identity.
    """

    D: float
    tau: float
    alpha1: float
    alpha2: float

    def __post_init__(self) -> None:
        _require(self.D > 0, f"D must be positive, got {self.D}")
        _require(self.tau > 0, f"tau must be positive, got {self.tau}")
        _require(abs(self.tau - 1.0) > 1e-12, f"tau must differ from 1, got {self.tau}")
        _require(self.alpha1 > 0, f"alpha1 must be positive, got {self.alpha1}")
        _require(self.alpha2 > 0, f"alpha2 must be positive, got {self.alpha2}")

    @property
    def xi(self) -> float:
        return (1.0 - self.tau * self.D) / (self.tau - 1.0)

    @property
    def alpha(self) -> float:
        return (1.0 - self.D) / (self.tau - 1.0)


@dataclass(frozen=True)
class Model4Params:
    """Kinetics f(u, v) = v a(u) - delta u with Hill activation

        a(u) = b (gamma u^m / (k^m + u^m) + k0),   m >= 2.

    b = 0 (together with delta = 0) yields the pure heat limit f = 0, and
    gamma = 0 the constant-activation case a = b k0; both are admitted because
    they are reference scenarios, all remaining parameters must be positive.
    """

    D: float
    tau: float
    b: float
    gamma: float
    k: float
    k0: float
    delta: float
    m: float = 2.0

    def __post_init__(self) -> None:
        _require(self.D > 0, f"D must be positive, got {self.D}")
        _require(self.tau > 0, f"tau must be positive, got {self.tau}")
        _require(self.b >= 0, f"b must be nonnegative, got {self.b}")
        _require(self.gamma >= 0, f"gamma must be nonnegative, got {self.gamma}")
        _require(self.k > 0, f"k must be positive, got {self.k}")
        _require(self.k0 > 0, f"k0 must be positive, got {self.k0}")
        _require(self.delta >= 0, f"delta must be nonnegative, got {self.delta}")
        _require(self.m >= 2, f"Hill exponent m must be >= 2, got {self.m}")

    @property
    def xi(self) -> float:
        return 1.0 - self.tau * self.D

    @property
    def km(self) -> float:
        """Hill half-saturation term k^m."""
        return self.k**self.m

    @property
    def a0(self) -> float:
        """Lower activation bound a(0) = b k0."""
        return self.b * self.k0

    @property
    def a1(self) -> float:
        """Upper activation bound sup a = b (gamma + k0)."""
        return self.b * (self.gamma + self.k0)


# -- model-4 activation ------------------------------------------------


def _hill(p: Model4Params, u):
    # Tolerates round-off negatives produced by the explicit reaction step:
    # the Hill argument is clipped at zero, nothing else is altered.
    uc = np.maximum(u, 0.0)
    um = uc**p.m
    return um / (p.km + um)


def a_of_u(p: Model4Params, u):
    """Activation a(u) = b (gamma u^m/(k^m + u^m) + k0); requires u >= 0."""
    if np.any(np.asarray(u) < 0):
        raise ParameterError("a(u) requires u >= 0")
    return p.b * (p.gamma * _hill(p, u) + p.k0)


def a_prime(p: Model4Params, u):
    """Derivative a'(u) = b gamma m k^m u^(m-1) / (k^m + u^m)^2; u >= 0."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0):
        raise ParameterError("a'(u) requires u >= 0")
    km = p.k**p.m
    out = p.b * p.gamma * p.m * km * u_arr ** (p.m - 1.0) / (km + u_arr**p.m) ** 2
    return out if out.shape else float(out)


def alpha_sup(p: Model4Params) -> float:
    """Supremum of a' over u > 0.

    Writing u = k s reduces a'(u) to (b gamma / k) m s^(m-1)/(1+s^m)^2, which
    is maximized at s = ((m-1)/(m+1))^(1/m), giving

        sup a' = (b gamma / k) ((m-1)/(m+1))^((m-1)/m) (m+1)^2 / (4 m).

    For m = 2 this is 3 sqrt(3) b gamma / (8 k) with maximizer u = k/sqrt(3).
    """
    m = p.m
    return (
        p.b
        * p.gamma
        / p.k
        * ((m - 1.0) / (m + 1.0)) ** ((m - 1.0) / m)
        * (m + 1.0) ** 2
        / (4.0 * m)
    )


# -- reaction terms ----------------------------------------------------


def h_model1(p: Model1Params, u):
    return -p.a * u / (u * u + p.b)


def f_model1(p: Model1Params, u, v):
    return h_model1(p, u) + p.k * v


def drift_model1(p: Model1Params, u):
    """q(u) = h(u) - k D u, the drift of the transformed stationary problem."""
    return h_model1(p, u) - p.k * p.D * u


def drift_primitive_model1(p: Model1Params, u, method: str = "auto"):
    """Antiderivative Q of q with Q(0) = 0.

    Closed form: Q(u) = -(a/2) log(1 + u^2/b) - k D u^2 / 2.
    """
    if method == "quadrature":
        return _primitive_by_quadrature(lambda s: drift_model1(p, s), u)
    return -0.5 * p.a * np.log1p(np.asarray(u, dtype=float) ** 2 / p.b) - 0.5 * p.k * p.D * np.asarray(u) ** 2


def h_model2(p: Model2Params, z):
    return -p.alpha1 * z / (p.alpha2 * z + 1.0) ** 2


def f_model2(p: Model2Params, u, v):
    return h_model2(p, u + v) + p.alpha1 * v


def drift_model2(p: Model2Params, z):
    """g(z) = (1 - D) h(z) - alpha1 D z."""
    return (1.0 - p.D) * h_model2(p, z) - p.alpha1 * p.D * z


def drift_primitive_model2(p: Model2Params, z, method: str = "auto"):
    """Antiderivative G of g with G(0) = 0.

    Closed form via t = alpha2 z + 1:
    G(z) = -(1-D) alpha1/alpha2^2 (log t + 1/t - 1) - alpha1 D z^2 / 2.
    """
    if method == "quadrature":
        return _primitive_by_quadrature(lambda s: drift_model2(p, s), z)
    z_arr = np.asarray(z, dtype=float)
    t = p.alpha2 * z_arr + 1.0
    head = -(1.0 - p.D) * p.alpha1 / p.alpha2**2 * (np.log(t) + 1.0 / t - 1.0)
    out = head - 0.5 * p.alpha1 * p.D * z_arr**2
    return out if out.shape else float(out)


def f_model4(p: Model4Params, u, v):
    return v * a_of_u(p, u) - p.delta * u


def ode_rhs_model4(p: Model4Params, lam: float, U):
    """Right side of the well-mixed reduction dU/dt = -delta U + a(U)(lam - U)/tau."""
    return -p.delta * U + a_of_u(p, U) * (lam - U) / p.tau


def ode_potential_model4(p: Model4Params, lam: float, U, method: str = "auto"):
    """Antiderivative G of the well-mixed right side, G(0) = 0.

    Along exact trajectories dG(U)/dt = (G'(U))^2 >= 0, so G is a Lyapunov
    function for the reduction.  For m = 2 the closed form is

        G(U) = -delta U^2/2
               + (1/tau) [ lam (b k0 U + b gamma (U - k atan(U/k)))
                           - (b k0 U^2/2 + b gamma (U^2 - k^2 log(1+U^2/k^2))/2) ].
    """
    if method not in ("auto", "quadrature"):
        raise ParameterError(f"unknown potential method {method!r}")
    if method == "quadrature" or p.m != 2.0:
        return _primitive_by_quadrature(lambda s: ode_rhs_model4(p, lam, s), U)
    U_arr = np.asarray(U, dtype=float)
    k = p.k
    int_a = p.b * p.k0 * U_arr + p.b * p.gamma * (U_arr - k * np.arctan(U_arr / k))
    int_sa = 0.5 * p.b * p.k0 * U_arr**2 + p.b * p.gamma * (
        0.5 * U_arr**2 - 0.5 * k * k * np.log1p(U_arr**2 / (k * k))
    )
    out = -0.5 * p.delta * U_arr**2 + (lam * int_a - int_sa) / p.tau
    return out if out.shape else float(out)


# -- adaptive Simpson quadrature --------------------------------------


def _adaptive_simpson(fn: Callable[[float], float], a: float, b: float, tol: float, max_depth: int = 50) -> float:
    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(x0, x1, f0, f05, f1, est, eps, depth):
        if depth <= 0:
            raise QuadratureError(
                f"adaptive Simpson failed to converge on [{x0}, {x1}] at tol {eps}"
            )
        xm = 0.5 * (x0 + x1)
        fl = fn(0.5 * (x0 + xm))
        fr = fn(0.5 * (xm + x1))
        left = (xm - x0) / 6.0 * (f0 + 4.0 * fl + f05)
        right = (x1 - xm) / 6.0 * (f05 + 4.0 * fr + f1)
        if abs(left + right - est) <= 15.0 * eps:
            return left + right + (left + right - est) / 15.0
        return recurse(x0, xm, f0, fl, f05, left, 0.5 * eps, depth - 1) + recurse(
            xm, x1, f05, fr, f1, right, 0.5 * eps, depth - 1
        )

    return recurse(a, b, fa, fm, fb, whole, tol, max_depth)


def _primitive_by_quadrature(fn: Callable[[float], float], x):
    x_arr = np.asarray(x, dtype=float)
    flat = np.atleast_1d(x_arr).ravel()
    vals = np.empty_like(flat)
    for i, xi in enumerate(flat):
        if xi == 0.0:
            vals[i] = 0.0
        else:
            vals[i] = _adaptive_simpson(lambda s: float(fn(s)), 0.0, float(xi), QUAD_ABS_TOL)
    if x_arr.shape:
        return vals.reshape(x_arr.shape)
    return float(vals[0])


# -- dispatch and structural checks -----------------------------------

ModelParams = Model1Params | Model2Params | Model4Params


def model_name(p: ModelParams) -> str:
    if isinstance(p, Model1Params):
        return "model1"
    if isinstance(p, Model2Params):
        return "model2"
    if isinstance(p, Model4Params):
        return "model4" if p.m == 2.0 else "model4-general-m"
    raise ParameterError(f"unknown parameter object {type(p).__name__}")


class StackedParams:
    """Parameters of several members of one model, for fields stacked as (B, *shape).

    A value shared by every member stays as given; one that differs becomes
    a column of shape (B, 1, ...) that broadcasts over its member's field.
    Elementwise arithmetic then gives each member the bits of its own
    evaluation.  The Hill exponent must be shared: ``x ** 2.0`` takes numpy's
    square loop while ``x ** column`` takes ``pow``, whose last bits differ.
    """

    def __init__(self, ps: Sequence[ModelParams], ndim: int) -> None:
        self.model = type(ps[0])
        if any(type(q) is not self.model for q in ps):
            raise ParameterError("stacked members must share one model")
        names = [f.name for f in fields(self.model)]
        if self.model is Model4Params:
            names.append("km")  # per member in Python, as an unstacked call computes it
        for name in names:
            values = [getattr(q, name) for q in ps]
            if len({float(x).hex() for x in values}) == 1:
                setattr(self, name, values[0])
            elif name == "m":
                raise ParameterError("stacked members must share the Hill exponent m")
            else:
                setattr(self, name, np.array(values, dtype=float).reshape((-1,) + (1,) * ndim))


def reaction_rhs(p: ModelParams | StackedParams) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Vectorized f(u, v) for the solver; identical in both equations.

    With :class:`StackedParams` it acts on fields stacked as (B, *shape),
    member i with its own parameters.  The model-4 branch evaluates the Hill term with the argument clipped at
    zero so that round-off negatives from the explicit reaction step do not
    poison fractional powers; the linear -delta u part is left untouched.
    """
    model = p.model if isinstance(p, StackedParams) else type(p)
    if model is Model1Params:
        return lambda u, v: f_model1(p, u, v)
    if model is Model2Params:
        return lambda u, v: f_model2(p, u, v)
    if model is Model4Params:
        return lambda u, v: v * (p.b * (p.gamma * _hill(p, u) + p.k0)) - p.delta * u
    raise ParameterError(f"unknown parameter object {type(p).__name__}")


def quasi_positivity_margins(
    p: ModelParams,
    n_samples: int = 10_000,
    u_max: float = 10.0,
    v_max: float = 10.0,
    seed: int = 0,
) -> tuple[float, float]:
    """Sampled boundary behavior (min f(0, v), max f(u, 0)).

    Quasi-positivity of the kinetics means f(0, v) >= 0 >= f(u, 0) for all
    u, v >= 0, which is what keeps the nonnegative cone forward invariant.
    """
    rng = np.random.default_rng(seed)
    f = reaction_rhs(p)
    v_axis = rng.uniform(0.0, v_max, n_samples)
    u_axis = rng.uniform(0.0, u_max, n_samples)
    zeros = np.zeros(n_samples)
    return float(np.min(f(zeros, v_axis))), float(np.max(f(u_axis, zeros)))
