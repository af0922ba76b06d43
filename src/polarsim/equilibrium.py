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

import numpy as np

from .errors import EquilibriumError, ParameterError
from .kinetics import Model4Params, ModelParams, f_model4, ode_potential_model4

__all__ = [
    "HomogeneousEquilibrium",
    "has_homogeneous_equilibrium",
    "A_of",
    "B_of",
    "balance_gap",
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


def _balance_gap_prime(p: Model4Params, lam: float, u: float) -> float:
    km = p.km
    dA = -lam * p.tau * p.delta / (p.b * (u - lam) ** 2)
    dB = -p.gamma * km * p.m * u ** (p.m - 1.0) / (km + u**p.m) ** 2
    return dA - dB


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

    Brackets the root of Phi = A - B by a sign-change audit on a uniform grid
    of ``AUDIT_POINTS`` points over (0, lam), then refines by bisection
    followed by a bracket-safeguarded Newton iteration.  Exactly one sign
    change is required; zero or multiple sign changes are reported as errors
    rather than silently resolved.

    Parameters
    ----------
    p : Model4Params
        Kinetics parameters; needs b > 0 and delta > 0.
    lam : float
        Conserved total mass, positive.
    trace : list or None
        When a list is supplied, bisection iterations are appended to it as
        (iteration, lo, hi, Phi(mid)) tuples.

    Returns
    -------
    HomogeneousEquilibrium
    """
    _check_solvable(p, lam)
    hi_end = lam * BRACKET_SHRINK
    us = np.linspace(0.0, hi_end, AUDIT_POINTS)
    gaps = balance_gap(p, lam, us)
    signs = np.sign(gaps)
    # Treat exact zeros as roots of their own
    zero_hits = np.flatnonzero(gaps == 0.0)
    if zero_hits.size:
        u_star = float(us[zero_hits[0]])
        v_star = (lam - u_star) / p.tau
        return HomogeneousEquilibrium(lam, u_star, v_star, float(f_model4(p, u_star, v_star)))
    flips = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    if flips.size == 0:
        raise EquilibriumError(
            f"no sign change of the balance gap on (0, {lam}); "
            "check that k0 > 0 and the parameters are admissible"
        )
    if flips.size > 1:
        locs = ", ".join(f"({us[i]:.6g}, {us[i + 1]:.6g})" for i in flips)
        raise EquilibriumError(
            f"{flips.size} sign changes of the balance gap on (0, {lam}) at {locs}; "
            "the uniqueness assumptions are violated for these parameters, refusing to guess"
        )
    lo, hi = float(us[flips[0]]), float(us[flips[0] + 1])
    glo = float(gaps[flips[0]])

    for it in range(80):
        mid = 0.5 * (lo + hi)
        gm = float(balance_gap(p, lam, mid))
        if trace is not None:
            trace.append((it, lo, hi, gm))
        if gm == 0.0:
            lo = hi = mid
            break
        if glo * gm < 0:
            hi = mid
        else:
            lo, glo = mid, gm
        if hi - lo <= 1e-9 * max(lo, 1e-300):
            break

    # Bracket-safeguarded Newton polish
    u = 0.5 * (lo + hi)
    for _ in range(60):
        g = float(balance_gap(p, lam, u))
        if g == 0.0:
            break
        dg = _balance_gap_prime(p, lam, u)
        step = g / dg if dg != 0.0 else 0.0
        u_new = u - step
        if not (lo < u_new < hi) or step == 0.0:
            u_new = 0.5 * (lo + hi)
            g_new = float(balance_gap(p, lam, u_new))
            if glo * g_new < 0:
                hi = u_new
            else:
                lo, glo = u_new, g_new
        else:
            if glo * g < 0:
                hi = u
            else:
                lo, glo = u, g
        if abs(u_new - u) <= 1e-16 * max(abs(u), 1e-300):
            u = u_new
            break
        u = u_new

    u_star = float(u)
    v_star = (lam - u_star) / p.tau
    residual = float(f_model4(p, u_star, v_star))
    res_scale = max(1.0, p.delta * lam)
    if abs(residual) > 1e-10 * res_scale:
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

    [0, lam] is forward invariant for the exact flow; if a numerical step
    leaves it by more than 1e-9 (absolute, scaled by max(1, lam)) the whole
    trajectory is restarted with dt halved, up to 20 times.  The potential G
    (antiderivative of the right side) is recorded at every step.
    """
    if not (0.0 <= U0 <= lam):
        raise ParameterError(f"U0 must lie in [0, lam] = [0, {lam}], got {U0}")
    if dt <= 0 or t_end <= 0:
        raise ParameterError(f"dt and t_end must be positive, got dt={dt}, t_end={t_end}")
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
        n = max(1, int(math.ceil(t_end / dt_cur - 1e-12)))
        U = [float(U0)]
        ok = True
        x = U[0]
        for i in range(n):
            try:
                k1 = rhs(x)
                k2 = rhs(x + 0.5 * dt_cur * k1)
                k3 = rhs(x + 0.5 * dt_cur * k2)
                k4 = rhs(x + dt_cur * k3)
            except ParameterError:
                # A stage argument escaped u >= 0; same remedy as a step
                # that leaves [0, lam]: restart with a smaller dt.
                ok = False
                break
            x = x + dt_cur / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if x < -inv_tol or x > lam + inv_tol:
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
