"""Homogeneous balance states and the well-mixed reduction.

Root values are frozen from an independent oracle: a dense sign-change scan
plus long bisection applied directly to F(u) = a(u)(lam - u)/tau - delta u,
with the activation formula written out by hand.  The same oracle is re-run
in-process through ``scipy.optimize.brentq`` so the numbers stay auditable.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from polarsim import Model4Params, constant_a_equilibrium, solve_equilibrium
from polarsim.equilibrium import (
    A_of,
    B_of,
    OdeTrajectory,
    balance_gap,
    integrate_homogeneous_ode,
)
from polarsim.errors import EquilibriumError, ParameterError
from polarsim.kinetics import ode_rhs_model4

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


class TestBalanceBranches:
    def test_landmark_values(self):
        # A(0) = gamma + k0 after the pole term cancels the tau delta / b
        # offset, and B(0) = gamma, so the gap at zero is exactly k0.
        assert A_of(STD, 1.0, 0.0) == pytest.approx(STD.gamma + STD.k0, rel=1e-13)
        assert B_of(STD, 0.0) == STD.gamma
        assert balance_gap(STD, 1.0, 0.0) == pytest.approx(STD.k0, rel=1e-12, abs=1e-15)
        assert B_of(STD, STD.k) == pytest.approx(0.5 * STD.gamma, rel=1e-15)

    def test_A_pole_rejected(self):
        with pytest.raises(ParameterError):
            A_of(STD, 1.0, 1.0)

    def test_B_decreasing(self):
        u = np.linspace(0.0, 5.0, 200)
        vals = B_of(STD, u)
        assert np.all(np.diff(vals) < 0.0)

    def test_gap_is_difference(self):
        u = np.array([0.1, 0.4, 0.8])
        np.testing.assert_allclose(
            balance_gap(STD, 1.0, u), A_of(STD, 1.0, u) - B_of(STD, u), rtol=1e-15
        )


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


def reference_ode(p, lam, U0, t_end, dt):
    """RK4 over ode_rhs_model4 with whole-run restarts at dt/2: the reference integrator."""
    inv_tol = 1e-9 * max(1.0, lam)
    for halvings in range(21):
        U = [U0]
        for _ in range(max(1, math.ceil(t_end / dt - 1e-12))):
            x = U[-1]
            try:
                k1 = float(ode_rhs_model4(p, lam, x))
                k2 = float(ode_rhs_model4(p, lam, x + 0.5 * dt * k1))
                k3 = float(ode_rhs_model4(p, lam, x + 0.5 * dt * k2))
                k4 = float(ode_rhs_model4(p, lam, x + dt * k3))
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

    def test_trajectory_is_dataclass_record(self):
        traj = integrate_homogeneous_ode(STD, 1.0, 0.5, t_end=0.5, dt=0.1)
        assert isinstance(traj, OdeTrajectory)
        assert traj.lam == 1.0
        assert traj.tau == STD.tau
        assert len(traj.t) == len(traj.U) == len(traj.G)
