"""Homogeneous balance states of the model-4 system and its well-mixed reduction.

For total mass lam > 0 the constant state (u*, v*) satisfies

    u* + tau v* = lam,        v* a(u*) = delta u*,

which after eliminating v* = (lam - u*)/tau is the zero on (0, lam) of the
well-mixed right side

    F(u) = -delta u + a(u) (lam - u) / tau,

the reduction dU/dt = F(U) whose trajectories :func:`integrate_homogeneous_ode`
steps.  F(0) = lam b k0 / tau > 0 > F(lam) = -delta lam, so a sign change
exists; uniqueness is audited on a fine grid instead of assumed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EquilibriumError, ParameterError
from .kinetics import Model4Params, ModelParams

__all__ = [
    "HomogeneousEquilibrium",
    "has_homogeneous_equilibrium",
    "check_km",
    "bisect_root",
    "sample_roots",
    "solve_equilibrium",
    "constant_a_equilibrium",
    "OdeTrajectory",
    "integrate_homogeneous_ode",
]

AUDIT_POINTS = 10_000


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
    # the two terms of F at their largest on [0, lam], the first in the order
    # well_mixed_rhs evaluates it; their sum cannot overflow, having opposite signs
    if not (math.isfinite(p.b * (p.gamma + p.k0) * lam / p.tau) and math.isfinite(p.delta * lam)):
        raise EquilibriumError(
            f"b*(gamma+k0)*lam/tau or delta*lam overflows: lam={lam}, tau={p.tau}, "
            f"b={p.b}, gamma={p.gamma}, k0={p.k0}, delta={p.delta}"
        )


def _check_hill(p: Model4Params, lam: float) -> None:
    """The Hill term u^m/(k^m + u^m) on [0, lam] must stay in the float range."""
    try:  # the refinement takes u**m, u <= lam, on plain floats, where overflow raises
        lam**p.m + p.km
    except OverflowError:
        raise EquilibriumError(f"lam^m or k^m overflows: lam={lam}, k={p.k}, m={p.m}") from None
    check_km(p)


def check_km(p: Model4Params) -> None:
    """Refuse a k^m outside the float range: k**m raises on overflow, and k^m = 0 makes the Hill term 0/0 at u = 0."""
    try:
        km = p.km
    except OverflowError:
        raise EquilibriumError(f"k^m overflows: k={p.k}, m={p.m}") from None
    if km == 0.0:
        raise EquilibriumError(f"k^m underflows to 0: k={p.k}, m={p.m}")


def _float_rhs(p: Model4Params, lam: float) -> Callable[[float], float]:
    """Model4Params.well_mixed_rhs on a plain float, with its operations in the same order."""
    delta, b, gamma, k0, km, m, tau = p.delta, p.b, p.gamma, p.k0, p.km, p.m, p.tau

    def rhs(x: float) -> float:
        if x < 0.0:
            raise ParameterError("a(u) requires u >= 0")
        xm = x**m
        return -delta * x + b * (gamma * (xm / (km + xm)) + k0) * (lam - x) / tau

    return rhs


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

    Audits the well-mixed right side F (``Model4Params.well_mixed_rhs``) on a
    uniform grid of ``AUDIT_POINTS`` points over [0, lam] and reads its roots
    with :func:`sample_roots`: an exact-zero sample, or a sign change halved
    down to adjacent floats whose end with the smaller |F| is taken.  Exactly
    one root is required; none or several are reported as errors rather than
    silently resolved.

    Parameters
    ----------
    p : Model4Params
        Kinetics parameters; needs b > 0 and delta > 0.
    lam : float
        Conserved total mass, positive.
    trace : list or None
        When a list is supplied, bisection iterations are appended to it as
        (iteration, lo, hi, F(mid)) tuples, one per halving.

    Returns
    -------
    HomogeneousEquilibrium
    """
    _check_solvable(p, lam)
    us = np.linspace(0.0, lam, AUDIT_POINTS)
    roots = sample_roots(_float_rhs(p, lam), us, p.well_mixed_rhs(lam, us), trace)
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
    residual = float(p.f(u_star, v_star))
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
    rhs = _float_rhs(p, lam)
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
            G = np.asarray(p.well_mixed_potential(lam, np.clip(U, 0.0, lam)))
            return OdeTrajectory(t=t, U=U, G=G, lam=lam, tau=p.tau, dt=dt_cur, halvings=halvings)
        dt_cur *= 0.5
    raise EquilibriumError(
        f"well-mixed trajectory left [0, {lam}] even after 20 dt halvings "
        f"(final dt {dt_cur:.3e}); the parameters or t_end look inconsistent"
    )
