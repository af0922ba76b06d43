"""Homogeneous balance states and the well-mixed reduction.

Root values are frozen from an independent oracle: a dense sign-change scan
plus long bisection applied directly to F(u) = a(u)(lam - u)/tau - delta u,
with the activation formula written out by hand.  The same oracle is re-run
in-process through ``scipy.optimize.brentq`` so the numbers stay auditable.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from polarsim import Model4Params, constant_a_equilibrium, solve_equilibrium
from polarsim import equilibrium
from polarsim.equilibrium import OdeTrajectory, bisect_root, integrate_homogeneous_ode, sample_roots
from polarsim.errors import EquilibriumError, ParameterError

STD = Model4Params(D=4.0, tau=1.0, b=1.0, gamma=1.0, k=1.0, k0=0.1, delta=1.0)

# (params, lam, independently computed u*)
FROZEN_ROOTS = [
    (STD, 1.0, 0.09883419099615151),
    (
        Model4Params(D=1.0, tau=1.3, b=1.5, gamma=0.8, k=0.7, k0=0.2, delta=0.6, m=3.0),
        0.5,
        0.14219354376165777,
    ),
    (
        Model4Params(D=2.0, tau=0.7, b=2.0, gamma=0.5, k=1.2, k0=0.05, delta=1.5),
        0.25,
        0.021804624259791155,
    ),
]

BISTABLE = Model4Params(D=1.0, tau=1.0, b=1.0, gamma=1.0, k=0.4, k0=0.01, delta=0.2, m=4.0)


def mass_balance(p: Model4Params, lam: float, u: float) -> float:
    """F(u) = a(u)(lam - u)/tau - delta u with everything written inline."""
    hill = u**p.m / (p.k**p.m + u**p.m)
    a = p.b * (p.gamma * hill + p.k0)
    return a * (lam - u) / p.tau - p.delta * u


class TestSolveEquilibrium:
    @pytest.mark.parametrize("p,lam,u_frozen", FROZEN_ROOTS)
    def test_frozen_roots(self, p, lam, u_frozen):
        eq = solve_equilibrium(p, lam)
        assert eq.u_star == pytest.approx(u_frozen, rel=1e-10)
        # Cross-check the frozen value itself against an in-process brentq
        # solve of the hand-written mass balance.
        u_ref = brentq(lambda u: mass_balance(p, lam, u), 1e-14, lam * (1 - 1e-12), xtol=1e-15)
        assert u_frozen == pytest.approx(u_ref, rel=1e-9)

    @pytest.mark.parametrize("p,lam,u_frozen", FROZEN_ROOTS)
    def test_mass_split_and_residual(self, p, lam, u_frozen):
        eq = solve_equilibrium(p, lam)
        assert eq.u_star + p.tau * eq.v_star == pytest.approx(lam, rel=1e-13)
        assert abs(eq.residual) <= 1e-10 * max(1.0, p.delta * lam)
        assert 0.0 < eq.u_star < lam
        assert eq.v_star > 0.0

    def test_small_mass_limit(self):
        # As lam -> 0 the activation freezes at a0, so u*/lam approaches
        # a0 / (a0 + tau delta).
        lam = 1e-8
        eq = solve_equilibrium(STD, lam)
        want = STD.a0 / (STD.a0 + STD.tau * STD.delta)
        assert eq.u_star / lam == pytest.approx(want, rel=1e-5)

    def test_constant_activation_matches_closed_form(self):
        p = Model4Params(D=1.0, tau=1.0, b=2.0, gamma=0.0, k=1.0, k0=0.5, delta=0.25)
        trace: list = []
        eq = solve_equilibrium(p, 1.0, trace=trace)
        assert eq.u_star == pytest.approx(
            constant_a_equilibrium(p.a0, p.tau, p.delta, 1.0), rel=1e-13
        )
        assert len(trace) > 0

    def test_closed_form_values(self):
        assert constant_a_equilibrium(1.0, 1.0, 0.25, 1.0) == pytest.approx(0.8, rel=1e-15)
        assert constant_a_equilibrium(2.0, 0.5, 4.0, 3.0) == pytest.approx(1.5, rel=1e-15)
        with pytest.raises(ParameterError):
            constant_a_equilibrium(0.0, 1.0, 0.0, 1.0)

    def test_trace_brackets_shrink(self):
        trace: list = []
        solve_equilibrium(STD, 1.0, trace=trace)
        widths = [hi - lo for (_, lo, hi, _) in trace]
        assert all(w2 <= w1 + 1e-18 for w1, w2 in zip(widths, widths[1:]))
        assert widths[-1] < 1e-8

    def test_bistable_parameters_refused(self):
        with pytest.raises(EquilibriumError, match="sign changes"):
            solve_equilibrium(BISTABLE, 1.0)

    def test_heat_limit_refused(self):
        p = Model4Params(D=1.0, tau=1.0, b=0.0, gamma=1.0, k=1.0, k0=0.1, delta=0.0)
        with pytest.raises(EquilibriumError, match="b > 0"):
            solve_equilibrium(p, 1.0)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ParameterError):
            solve_equilibrium(STD, 0.0)
        with pytest.raises(ParameterError):
            solve_equilibrium(STD, -1.0)

    @given(
        b=st.floats(min_value=0.2, max_value=2.0),
        gamma=st.floats(min_value=0.2, max_value=2.0),
        k=st.floats(min_value=0.3, max_value=3.0),
        k0=st.floats(min_value=0.01, max_value=1.0),
        delta=st.floats(min_value=0.2, max_value=2.0),
        tau=st.floats(min_value=0.5, max_value=2.0),
        r=st.floats(min_value=0.1, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_draws_in_uniqueness_regime(self, b, gamma, k, k0, delta, tau, r):
        # lam below 0.9 k sqrt(tau delta / (b gamma)) keeps the balance gap
        # strictly monotone where it matters, so exactly one root exists.
        p = Model4Params(D=1.0, tau=tau, b=b, gamma=gamma, k=k, k0=k0, delta=delta)
        lam = r * 0.9 * k * math.sqrt(tau * delta / (b * gamma))
        eq = solve_equilibrium(p, lam)
        assert 0.0 < eq.u_star < lam
        assert abs(mass_balance(p, lam, eq.u_star)) <= 1e-9 * max(1.0, delta * lam)


def exact_gap(p: Model4Params, lam: float, u: float) -> Fraction:
    """A(u) - B(u) in exact rational arithmetic on the float inputs; m must be an integer."""
    tau, delta, b, gamma, k0, k, L, U = map(Fraction, (p.tau, p.delta, p.b, p.gamma, p.k0, p.k, lam, u))
    km = k ** int(p.m)
    A = tau * delta / b + gamma + k0 + L * tau * delta / (b * (U - L))
    return A - gamma * km / (km + U ** int(p.m))


def exact_root(p: Model4Params, lam: float) -> float:
    """The float end of the adjacent-float bracket of the balance root, by exact signs."""
    lo, hi = 0.0, lam * (1.0 - 1e-12)
    assert exact_gap(p, lam, lo) > 0 > exact_gap(p, lam, hi)
    while math.nextafter(lo, hi) != hi:
        mid = 0.5 * (lo + hi)
        g = exact_gap(p, lam, mid)
        if g == 0:
            return mid
        lo, hi = (mid, hi) if g > 0 else (lo, mid)
    return lo


class TestExactRoot:
    def test_root_matches_exact_bracket_over_seeded_draws(self):
        # sup a' < b gamma / k for m in {2, 3}, so lam <= tau delta k / (b gamma)
        # makes the balance strictly decreasing in u: one root, found exactly
        rng = random.Random(20201)
        for _ in range(200):
            p = Model4Params(
                D=1.0,
                tau=rng.uniform(0.5, 2.0),
                b=rng.uniform(0.2, 2.0),
                gamma=rng.uniform(0.2, 2.0),
                k=rng.uniform(0.3, 3.0),
                k0=rng.uniform(0.01, 1.0),
                delta=rng.uniform(0.2, 2.0),
                m=rng.choice((2.0, 3.0)),
            )
            lam = rng.uniform(0.05, 1.0) * p.tau * p.delta * p.k / (p.b * p.gamma)
            root = exact_root(p, lam)
            assert abs(solve_equilibrium(p, lam).u_star - root) <= 1e-12 * root, (p, lam)

    def test_nan_residual_refused(self, monkeypatch):
        monkeypatch.setattr(Model4Params, "f", lambda p, u, v: math.nan)
        with pytest.raises(EquilibriumError, match="stalled"):
            solve_equilibrium(STD, 1.0)

    def test_nan_slope_leaves_the_bracketed_root_standing(self):
        # (k^m + u^m)^2 overflows, so a'(u*) is inf/inf: the gate reads the NaN
        # slope as inf.  The Hill term is below 1e-280 on [0, 1], so u* is the
        # constant-activation root for a = b k0
        p = replace(STD, gamma=1e10, k=1e150)
        eq = solve_equilibrium(p, 1.0)
        assert eq.u_star == constant_a_equilibrium(p.b * p.k0, p.tau, p.delta, 1.0)
        assert eq.residual == 0.0
        assert equilibrium._residual_tolerance(p, eq.u_star, eq.v_star) == math.inf

    @pytest.mark.parametrize("lam, m", [(1e100, 3.5), (2.0, 1100.0)])
    def test_overflowing_power_refused(self, lam, m):
        with pytest.raises(EquilibriumError, match="overflows"):
            solve_equilibrium(replace(STD, m=m), lam)

    def test_overflowing_balance_refused(self):
        # tau delta = 1e310 overflows a float, which refused the balance
        # A - B with its pole at lam; F = -delta u + a(u)(lam - u)/tau has no
        # pole, and its root u* ~ lam b k0 / (tau delta) = 1e-311 is answered
        eq = solve_equilibrium(replace(STD, tau=1e300, delta=1e10), 1.0)
        assert eq.u_star == 9.9999999999994754e-312

    @pytest.mark.parametrize(
        "changes", [dict(b=1e200, tau=1e-200), dict(gamma=1e300, b=1e10), dict(delta=1e200)]
    )
    def test_overflowing_term_refused(self, changes):
        lam = 1e150 if "delta" in changes else 1.0
        with pytest.raises(EquilibriumError, match="overflows"):
            solve_equilibrium(replace(STD, **changes), lam)

    def test_exact_zero_sample_counts_toward_uniqueness(self, monkeypatch):
        real = Model4Params.well_mixed_rhs

        def with_zero(p, lam, u):
            values = real(p, lam, u)
            if np.ndim(values):  # the audited samples, not a refinement step
                values[-10] = 0.0  # far above the one sign change near u = 0.099
            return values

        monkeypatch.setattr(Model4Params, "well_mixed_rhs", with_zero)
        with pytest.raises(EquilibriumError, match="2 sign changes"):
            solve_equilibrium(STD, 1.0)

    def test_wrong_root_refused(self, monkeypatch):
        real = Model4Params.well_mixed_rhs

        def shifted(p, lam, u):
            if np.ndim(u):  # the audited samples: their sign change moves 3 samples below u*
                return real(p, lam, u + 3e-4)
            return real(p, lam, u)

        # the bracket holds no root of F, so its end is a float where F ~ 3e-4 F'
        monkeypatch.setattr(Model4Params, "well_mixed_rhs", shifted)
        with pytest.raises(EquilibriumError, match="stalled"):
            solve_equilibrium(STD, 1.0)


def exact_rhs(p: Model4Params, lam, u) -> Fraction:
    """F(u) = -delta u + a(u)(lam - u)/tau in exact rational arithmetic; m must be an integer."""
    tau, delta, b, gamma, k0, k = map(Fraction, (p.tau, p.delta, p.b, p.gamma, p.k0, p.k))
    L, U, m = Fraction(lam), Fraction(u), int(p.m)
    return -delta * U + b * (gamma * U**m / (k**m + U**m) + k0) * (L - U) / tau


def exact_well_mixed_root(p: Model4Params, lam: float) -> Fraction:
    """The root of F on [0, lam], bisected in Fractions to a bracket under a quarter ulp."""
    lo, hi = Fraction(0), Fraction(lam)
    assert exact_rhs(p, lam, lo) > 0 > exact_rhs(p, lam, hi)
    while True:
        mid = (lo + hi) / 2
        if hi - lo < Fraction(math.ulp(float(mid))) / 4:
            return mid
        f = exact_rhs(p, lam, mid)
        if f == 0:
            return mid
        lo, hi = (mid, hi) if f > 0 else (lo, mid)


def assert_within_ulps(p: Model4Params, lam: float, ulps: int = 4) -> None:
    exact = exact_well_mixed_root(p, lam)
    u_star = solve_equilibrium(p, lam).u_star
    assert abs(Fraction(u_star) - exact) <= ulps * Fraction(math.ulp(float(exact))), (p, lam, u_star)


class TestWellMixedRoot:
    @pytest.mark.parametrize("delta", [0.22, 1.0, 26.0, 40.0, 1e2, 1e4, 1e6, 1e8])
    def test_cli_defaults_within_four_ulps(self, delta):
        assert_within_ulps(replace(STD, delta=delta), 1.0)

    @pytest.mark.parametrize("gamma", [1e8, 1e12])
    def test_root_next_to_lam_within_four_ulps(self, gamma):
        # u* = 1 - 2/gamma: |f(u*, v*)| of 1.5e-9 and 2.2e-5 is what one ulp of u* moves F by
        assert_within_ulps(replace(STD, gamma=gamma), 1.0)

    def test_log_uniform_draws_within_four_ulps(self):
        rng = random.Random(20203)

        def draw(lo, hi):
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))

        for _ in range(100):
            p = Model4Params(
                D=1.0,
                tau=draw(0.1, 10.0),
                b=draw(0.1, 10.0),
                gamma=draw(0.1, 10.0),
                k=draw(0.1, 10.0),
                k0=draw(0.01, 1.0),
                delta=draw(0.1, 1e6),
            )
            assert_within_ulps(p, draw(0.01, 10.0))


class TestBisectRoot:
    def test_stops_at_adjacent_floats(self):
        trace: list = []
        lo, f_lo, hi, f_hi = bisect_root(lambda x: x * x - 2.0, 1.0, -1.0, 2.0, 2.0, trace)
        assert math.nextafter(lo, hi) == hi
        assert math.sqrt(2.0) in (lo, hi)
        assert (f_lo, f_hi) == (lo * lo - 2.0, hi * hi - 2.0)
        assert [row[0] for row in trace] == list(range(len(trace)))
        assert trace[0] == (0, 1.0, 2.0, 0.25)

    def test_exact_zero_ends_early(self):
        trace: list = []
        assert bisect_root(lambda x: x - 0.75, 0.0, -0.75, 1.0, 0.25, trace) == (0.75, 0.0, 0.75, 0.0)
        assert len(trace) == 2


def no_call(x):
    raise AssertionError(f"fn called at {x}")


class TestSampleRoots:
    @pytest.mark.parametrize("fs", [[-1.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
    def test_zero_sample_is_one_root(self, fs):
        assert sample_roots(no_call, np.array([0.0, 1.0, 2.0]), np.array(fs)) == [((1.0, 1.0), 1.0, 0.0)]

    def test_nan_sample_splits_a_sign_change(self):
        assert sample_roots(no_call, np.array([0.0, 1.0, 2.0]), np.array([-1.0, math.nan, 1.0])) == []

    def test_sign_change_is_refined_to_adjacent_floats(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        trace: list = []
        [(bracket, root, f_root)] = sample_roots(lambda x: x * x - 2.0, xs, xs * xs - 2.0, trace)
        assert bracket == (1.0, 2.0) and trace[0] == (0, 1.0, 2.0, 0.25)
        lo, f_lo, hi, f_hi = bisect_root(lambda x: x * x - 2.0, 1.0, -1.0, 2.0, 2.0, None)
        assert (root, f_root) == min((lo, f_lo), (hi, f_hi), key=lambda end: abs(end[1]))

    def test_zeros_and_sign_changes_in_sample_order(self):
        xs = np.array([-2.0, -1.0, 0.5, 2.0])
        (b0, r0, _), (b1, r1, _) = sample_roots(lambda x: x * x * x - x, xs, xs**3 - xs)
        assert (b0, r0) == ((-1.0, -1.0), -1.0)
        assert b1 == (0.5, 2.0) and abs(r1 - 1.0) <= 2.3e-16


def reference_ode(p, lam, U0, t_end, dt):
    """RK4 over Model4Params.well_mixed_rhs with whole-run restarts at dt/2: the reference integrator."""
    inv_tol = 1e-9 * max(1.0, lam)
    for halvings in range(21):
        U = [U0]
        for _ in range(max(1, math.ceil(t_end / dt - 1e-12))):
            x = U[-1]
            try:
                k1 = float(p.well_mixed_rhs(lam, x))
                k2 = float(p.well_mixed_rhs(lam, x + 0.5 * dt * k1))
                k3 = float(p.well_mixed_rhs(lam, x + 0.5 * dt * k2))
                k4 = float(p.well_mixed_rhs(lam, x + dt * k3))
            except ParameterError:  # a stage left u >= 0
                break
            x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if x < -inv_tol or x > lam + inv_tol:
                break
            U.append(x)
        else:
            return np.array(U), dt, halvings
        dt *= 0.5
    raise AssertionError("reference left [0, lam] after 20 halvings")


class TestWellMixedOde:
    @pytest.mark.parametrize(
        "p, lam, U0, t_end, dt",
        [
            (replace(STD, tau=0.7), 1.0, 0.9, 20.0, 0.1),
            (replace(STD, tau=0.1, b=5.0), 1.0, 0.05, 0.25, 0.25),  # the one step passes lam: restarts
            (replace(STD, delta=30.0), 1.0, 0.01, 20.0, 0.5),  # a negative stage: restarts
            (FROZEN_ROOTS[1][0], 0.5, 0.45, 2.0, 0.02),  # m = 3
            (replace(STD, m=3.5, gamma=2.0, tau=0.7), 2.0, 1.3, 2.0, 0.05),
        ],
        ids=["tau0.7", "leaves-interval", "negative-stage", "m3", "m3.5"],
    )
    def test_bits_equal_reference_rk4(self, p, lam, U0, t_end, dt):
        traj = integrate_homogeneous_ode(p, lam, U0, t_end, dt)
        U, dt_ref, halvings = reference_ode(p, lam, U0, t_end, dt)
        assert (traj.dt, traj.halvings) == (dt_ref, halvings)
        assert np.array_equal(traj.U.view(np.uint64), U.view(np.uint64))

    def test_fixed_point_is_stationary(self):
        eq = solve_equilibrium(STD, 1.0)
        traj = integrate_homogeneous_ode(STD, 1.0, eq.u_star, t_end=5.0, dt=0.01)
        assert np.max(np.abs(traj.U - eq.u_star)) < 1e-10

    def test_converges_to_equilibrium(self):
        eq = solve_equilibrium(STD, 1.0)
        for U0 in (0.0, 0.5, 0.97):
            traj = integrate_homogeneous_ode(STD, 1.0, U0, t_end=80.0, dt=0.05)
            assert traj.U[-1] == pytest.approx(eq.u_star, abs=1e-8)

    def test_potential_nondecreasing_along_flow(self):
        traj = integrate_homogeneous_ode(STD, 1.0, 0.9, t_end=40.0, dt=0.02)
        scale = max(1.0, float(np.max(np.abs(traj.G))))
        assert np.min(np.diff(traj.G)) >= -1e-12 * scale

    def test_interval_invariance(self):
        traj = integrate_homogeneous_ode(STD, 1.0, 0.999, t_end=20.0, dt=0.05)
        assert np.all(traj.U >= -1e-9)
        assert np.all(traj.U <= 1.0 + 1e-9)

    def test_v_companion_variable(self):
        traj = integrate_homogeneous_ode(STD, 1.0, 0.3, t_end=1.0, dt=0.01)
        np.testing.assert_allclose(traj.V, (1.0 - traj.U) / STD.tau, rtol=1e-15)

    def test_unstable_dt_triggers_halvings(self):
        # dt = 10 is far outside the RK4 stability region for these
        # parameters; the integrator must restart with a smaller step
        # rather than return a trajectory that left [0, lam].
        traj = integrate_homogeneous_ode(STD, 1.0, 0.95, t_end=40.0, dt=10.0)
        assert traj.halvings >= 1
        assert traj.dt < 10.0
        eq = solve_equilibrium(STD, 1.0)
        assert traj.U[-1] == pytest.approx(eq.u_star, abs=1e-3)

    def test_time_axis(self):
        traj = integrate_homogeneous_ode(STD, 1.0, 0.5, t_end=1.0, dt=0.25)
        np.testing.assert_allclose(traj.t, [0.0, 0.25, 0.5, 0.75, 1.0], rtol=1e-15)

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            integrate_homogeneous_ode(STD, 1.0, 1.5, t_end=1.0, dt=0.1)
        with pytest.raises(ParameterError):
            integrate_homogeneous_ode(STD, 1.0, 0.5, t_end=1.0, dt=0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_inputs_rejected(self, bad):
        args = dict(lam=1.0, U0=0.5, t_end=1.0, dt=0.1)
        for name in args:
            with pytest.raises(ParameterError, match=f"{name}.* finite"):
                integrate_homogeneous_ode(STD, **{**args, name: bad})

    @pytest.mark.parametrize("t_end, dt", [(5.0, 0.03), (0.005, 0.01), (1.0, 0.3)])
    def test_t_end_off_the_step_grid_rejected(self, t_end, dt):
        with pytest.raises(ParameterError, match="not an integer number of steps"):
            integrate_homogeneous_ode(STD, 1.0, 0.5, t_end=t_end, dt=dt)

    def test_t_end_within_round_off_of_the_step_grid_kept(self):
        # 0.3 / 0.1 = 2.9999999999999996 in floating point
        traj = integrate_homogeneous_ode(STD, 1.0, 0.5, t_end=0.3, dt=0.1)
        assert len(traj.t) == 4
        assert traj.t[-1] == pytest.approx(0.3, rel=1e-15)

    def test_trajectory_is_dataclass_record(self):
        traj = integrate_homogeneous_ode(STD, 1.0, 0.5, t_end=0.5, dt=0.1)
        assert isinstance(traj, OdeTrajectory)
        assert traj.lam == 1.0
        assert traj.tau == STD.tau
        assert len(traj.t) == len(traj.U) == len(traj.G)
