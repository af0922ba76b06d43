"""Homogeneous balance states of the model-4 system and its well-mixed reduction.

For total mass lam > 0 the constant state (u*, v*) satisfies

    u* + tau v* = lam,        v* a(u*) = delta u*,

which after eliminating v* is the scalar equation A(u) = B(u) on (0, lam) with

    A(u) = tau delta / b + gamma + k0 + lam tau delta / (b (u - lam)),
    B(u) = gamma k^m / (k^m + u^m).

A(0) - B(0) = k0 > 0 and A -> -infinity as u -> lam, so a sign change exists;
uniqueness is audited on a fine grid instead of assumed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EquilibriumError, ParameterError
from .kinetics import Model4Params, ModelParams, f_model4, ode_potential_model4

__all__ = [
    "HomogeneousEquilibrium",
    "has_homogeneous_equilibrium",
    "A_of",
    "B_of",
    "balance_gap",
    "bisect_root",
    "sample_roots",
    "solve_equilibrium",
    "constant_a_equilibrium",
    "OdeTrajectory",
    "integrate_homogeneous_ode",
]

AUDIT_POINTS = 10_000
BRACKET_SHRINK = 1.0 - 1e-12


def has_homogeneous_equilibrium(p: ModelParams) -> bool:
    """True for the Hill kinetics with b > 0 and delta > 0, the case solved here."""
    return isinstance(p, Model4Params) and p.b > 0 and p.delta > 0


def _check_solvable(p: Model4Params, lam: float) -> None:
    if not (lam > 0 and math.isfinite(lam)):
        raise ParameterError(f"total mass lam must be positive, got {lam}")
    if not has_homogeneous_equilibrium(p):
        raise EquilibriumError(
            f"balance equation needs b > 0 and delta > 0, got b={p.b}, delta={p.delta}"
        )
    _check_hill(p, lam)
    try:  # A(u) is largest in size at the audit's last sample, next to its pole at lam
        pole = lam * p.tau * p.delta / (p.b * (lam * BRACKET_SHRINK - lam))
    except ZeroDivisionError:
        pole = -math.inf
    if not math.isfinite(pole):  # A(u) would be inf, or inf - inf
        raise EquilibriumError(
            f"lam*tau*delta/b overflows near the pole: lam={lam}, tau={p.tau}, delta={p.delta}, b={p.b}"
        )


def _check_hill(p: Model4Params, lam: float) -> None:
    """The Hill term u^m/(k^m + u^m) on [0, lam] must stay in the float range."""
    try:  # the refinement takes u**m, u < lam, on plain floats, where overflow raises
        lam**p.m + p.km
    except OverflowError:
        raise EquilibriumError(f"lam^m or k^m overflows: lam={lam}, k={p.k}, m={p.m}") from None
    if p.km == 0.0:  # the Hill term at u = 0 would be 0/0
        raise EquilibriumError(f"k^m underflows to 0: k={p.k}, m={p.m}")


def A_of(p: Model4Params, lam: float, u):
    """Rational branch of the balance equation; has a pole at u = lam."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr == lam):
        raise ParameterError(f"A(u) has a pole at u = lam = {lam}")
    out = (
        p.tau * p.delta / p.b
        + p.gamma
        + p.k0
        + lam * p.tau * p.delta / (p.b * (u_arr - lam))
    )
    return out if out.shape else float(out)


def B_of(p: Model4Params, u):
    """Saturation branch B(u) = gamma k^m / (k^m + u^m)."""
    u_arr = np.asarray(u, dtype=float)
    km = p.km
    out = p.gamma * km / (km + u_arr**p.m)
    return out if out.shape else float(out)


def balance_gap(p: Model4Params, lam: float, u):
    """Phi(u) = A(u) - B(u); its root in (0, lam) is the equilibrium u*."""
    return A_of(p, lam, u) - B_of(p, u)


def bisect_root(
    fn: Callable[[float], float],
    lo: float,
    f_lo: float,
    hi: float,
    f_hi: float,
    trace: list | None,
) -> tuple[float, float, float, float]:
    """Halve the sign-change bracket [lo, hi] of fn; returns (lo, f_lo, hi, f_hi).

    Stops once lo and hi are adjacent floats, or at an exact zero
    fn(mid) = 0, returned as lo = hi = mid.  Each halving is appended to
    ``trace``, when given, as (iteration, lo, hi, fn(mid)) with the bracket
    it halved.
    """
    it = 0
    while math.nextafter(lo, hi) != hi:
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if trace is not None:
            trace.append((it, lo, hi, f_mid))
        if f_mid == 0.0:
            return mid, f_mid, mid, f_mid
        if (f_mid < 0.0) != (f_lo < 0.0):
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
        it += 1
    return lo, f_lo, hi, f_hi


def sample_roots(
    fn: Callable[[float], float], xs: np.ndarray, fs: np.ndarray, trace: list | None = None
) -> list[tuple[tuple[float, float], float, float]]:
    """Every root of fn seen on the samples fs = fn(xs), as (bracket, root, fn(root)).

    An exact-zero sample is a root of its own, with the bracket (x, x).  A
    strict sign change between adjacent samples is halved by
    :func:`bisect_root` down to adjacent floats, and the root is the end
    with the smaller |fn|.  A NaN sample brackets nothing.  Roots come in
    the order of xs; ``trace`` is passed to every :func:`bisect_root`.
    """
    signs = np.sign(fs)
    roots = []
    for i in np.flatnonzero((fs == 0.0) | np.append(signs[:-1] * signs[1:] < 0.0, False)):
        x, f = float(xs[i]), float(fs[i])
        if f == 0.0:
            roots.append(((x, x), x, f))
            continue
        x1 = float(xs[i + 1])
        lo, f_lo, hi, f_hi = bisect_root(fn, x, f, x1, float(fs[i + 1]), trace)
        roots.append(((x, x1), *((lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi))))
    return roots


@dataclass(frozen=True)
class HomogeneousEquilibrium:
    """Constant balance state with u* + tau v* = lam and f(u*, v*) = 0."""

    lam: float
    u_star: float
    v_star: float
    residual: float


def solve_equilibrium(
    p: Model4Params,
    lam: float,
    trace: list | None = None,
) -> HomogeneousEquilibrium:
    """Solve the homogeneous balance equation for total mass lam.

    Audits Phi = A - B on a uniform grid of ``AUDIT_POINTS`` points over
    (0, lam) and reads its roots with :func:`sample_roots`: an exact-zero
    sample, or a sign change halved down to adjacent floats whose end with
    the smaller |Phi| is taken.  Exactly one root is required; none or
    several are reported as errors rather than silently resolved.

    Parameters
    ----------
    p : Model4Params
        Kinetics parameters; needs b > 0 and delta > 0.
    lam : float
        Conserved total mass, positive.
    trace : list or None
        When a list is supplied, bisection iterations are appended to it as
        (iteration, lo, hi, Phi(mid)) tuples, one per halving.

    Returns
    -------
    HomogeneousEquilibrium
    """
    _check_solvable(p, lam)
    tau, delta, b, gamma, k0, km, m = p.tau, p.delta, p.b, p.gamma, p.k0, p.km, p.m

    def gap(u: float) -> float:
        """balance_gap on a plain float, with its operations in the same order."""
        return (
            tau * delta / b + gamma + k0 + lam * tau * delta / (b * (u - lam))
            - gamma * km / (km + u**m)
        )

    us = np.linspace(0.0, lam * BRACKET_SHRINK, AUDIT_POINTS)
    roots = sample_roots(gap, us, balance_gap(p, lam, us), trace)
    if not roots:
        raise EquilibriumError(
            f"no sign change of the balance gap on (0, {lam}); "
            "check that k0 > 0 and the parameters are admissible"
        )
    if len(roots) > 1:
        locs = ", ".join(f"({lo:.6g}, {hi:.6g})" for (lo, hi), _, _ in roots)
        raise EquilibriumError(
            f"{len(roots)} sign changes of the balance gap on (0, {lam}) at {locs}; "
            "the uniqueness assumptions are violated for these parameters, refusing to guess"
        )
    u_star = roots[0][1]
    v_star = (lam - u_star) / p.tau
    residual = float(f_model4(p, u_star, v_star))
    res_scale = max(1.0, p.delta * lam)
    if not abs(residual) <= 1e-10 * res_scale:
        raise EquilibriumError(
            f"equilibrium refinement stalled: |f(u*, v*)| = {abs(residual):.3e} "
            f"exceeds tolerance {1e-10 * res_scale:.3e}"
        )
    return HomogeneousEquilibrium(lam, u_star, v_star, residual)


def constant_a_equilibrium(a: float, tau: float, delta: float, lam: float) -> float:
    """Closed-form u* = a lam / (a + tau delta) for constant activation a."""
    if a < 0 or tau <= 0 or delta < 0 or lam < 0:
        raise ParameterError(
            f"constant_a_equilibrium needs a, delta, lam >= 0 and tau > 0, "
            f"got a={a}, tau={tau}, delta={delta}, lam={lam}"
        )
    if a == 0.0 and delta == 0.0:
        raise ParameterError("a and delta cannot both vanish")
    return a * lam / (a + tau * delta)


@dataclass
class OdeTrajectory:
    """Fixed-step RK4 trajectory of the well-mixed reduction."""

    t: np.ndarray
    U: np.ndarray
    G: np.ndarray
    lam: float
    tau: float
    dt: float
    halvings: int = 0

    @property
    def V(self) -> np.ndarray:
        return (self.lam - self.U) / self.tau


def integrate_homogeneous_ode(
    p: Model4Params,
    lam: float,
    U0: float,
    t_end: float,
    dt: float,
) -> OdeTrajectory:
    """Integrate dU/dt = -delta U + a(U)(lam - U)/tau with classical RK4.

    t_end must be a whole number of dt steps (to 1e-8 t_end).  [0, lam] is
    forward invariant for the exact flow; if a numerical step leaves it by
    more than 1e-9 (absolute, scaled by max(1, lam)) the whole trajectory is
    restarted with dt halved, up to 20 times.  The potential G (antiderivative
    of the right side) is recorded at every step.
    """
    if not (0.0 <= U0 <= lam < math.inf):
        raise ParameterError(f"U0 must lie in [0, lam] with lam finite, got U0={U0}, lam={lam}")
    if not (0 < dt < math.inf and 0 < t_end < math.inf):
        raise ParameterError(f"dt and t_end must be positive and finite, got dt={dt}, t_end={t_end}")
    if not math.isfinite(t_end / dt):
        raise ParameterError(f"t_end / dt is not a finite step count: t_end={t_end}, dt={dt}")
    _check_hill(p, lam)
    n_steps = max(1, round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-8 * t_end:
        raise ParameterError(f"t_end = {t_end} is not an integer number of steps of dt = {dt}")
    inv_tol = 1e-9 * max(1.0, lam)
    delta, b, gamma, k0, km, m, tau = p.delta, p.b, p.gamma, p.k0, p.km, p.m, p.tau

    def rhs(x: float) -> float:
        """ode_rhs_model4 on a plain float, with its operations in the same order."""
        if x < 0.0:
            raise ParameterError("a(u) requires u >= 0")
        xm = x**m
        return -delta * x + b * (gamma * (xm / (km + xm)) + k0) * (lam - x) / tau

    dt_cur = float(dt)
    for halvings in range(21):
        n = n_steps * 2**halvings
        U = [float(U0)]
        ok = True
        x = U[0]
        for i in range(n):
            try:
                k1 = rhs(x)
                k2 = rhs(x + 0.5 * dt_cur * k1)
                k3 = rhs(x + 0.5 * dt_cur * k2)
                k4 = rhs(x + dt_cur * k3)
            except (ParameterError, OverflowError):
                # A stage argument escaped u >= 0 or its power the float
                # range; same remedy as a step that leaves [0, lam]:
                # restart with a smaller dt.
                ok = False
                break
            x = x + dt_cur / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not -inv_tol <= x <= lam + inv_tol:  # also a NaN step
                ok = False
                break
            U.append(x)
        if ok:
            U = np.array(U)
            t = dt_cur * np.arange(n + 1)
            G = np.asarray(ode_potential_model4(p, lam, np.clip(U, 0.0, lam)))
            return OdeTrajectory(t=t, U=U, G=G, lam=lam, tau=p.tau, dt=dt_cur, halvings=halvings)
        dt_cur *= 0.5
    raise EquilibriumError(
        f"well-mixed trajectory left [0, {lam}] even after 20 dt halvings "
        f"(final dt {dt_cur:.3e}); the parameters or t_end look inconsistent"
    )
