"""Energy functionals, inequality checkers, and run monitors.

Functional derivatives are validated against centered finite differences of
the energies themselves; the inequality arithmetic is frozen against
hand-evaluated instances; the sigma aggregation is property-tested to imply
the contraction inequality it was constructed for.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from polarsim import Field, Grid, Model1Params, Model2Params, Model4Params, solve_equilibrium
from polarsim.diagnostics import (
    DECAY_FLOOR,
    RECORD_COLUMNS,
    DiagnosticsRecord,
    RecordBuilder,
    attach_identity_residuals,
    check_contraction_condition,
    check_coupling_condition,
    check_sigma_condition,
    deviation_pairing_integral,
    estimate_decay_rate,
    fit_decay_rate,
    lyapunov_model1,
    lyapunov_model2,
    omega_limit_check,
    sufficient_sigma,
    v_norm_sup,
    variational_energy_model1,
    variational_energy_model2,
    write_diagnostics_table,
)
from polarsim.errors import DiagnosticsError, ParameterError
from polarsim.kinetics import (
    alpha_sup,
    drift_model1,
    drift_model2,
    drift_primitive_model1,
    drift_primitive_model2,
)
from polarsim.solver import SimState, SolverConfig, run, transform_w, transform_z

P1 = Model1Params(D=0.4, tau=1.0, a=1.0, b=1.0, k=1.0)
P2 = Model2Params(D=0.4, tau=2.0, alpha1=1.0, alpha2=1.0)
P4 = Model4Params(D=4.0, tau=1.0, b=1.0, gamma=1.0, k=1.0, k0=0.1, delta=1.0)
MU2 = math.pi**2  # second Neumann eigenvalue of the unit interval


class TestConditionArithmetic:
    """Hand-evaluated instance: D=4, tau=1, b=gamma=k=1, k0=0.1, delta=1,
    lam=1, mu2=pi^2.  Then xi = -3, a1 = 1.1, alpha_sup = 3 sqrt(3)/8."""

    def test_coupling_numbers(self):
        rep = check_coupling_condition(P4, MU2)
        assert rep.lhs == pytest.approx(6.6, rel=1e-14)
        assert rep.rhs == pytest.approx(40.478417604357432, rel=1e-14)
        assert rep.rhs == pytest.approx(4.0 * math.pi**2 + 1.0, rel=1e-15)
        assert rep.satisfied
        # squared-coupling variant: 2 xi^2 a1 = 19.8
        assert rep.alt_lhs == pytest.approx(19.8, rel=1e-14)
        assert rep.alt_satisfied

    def test_contraction_numbers(self):
        rep = check_contraction_condition(P4, lam=1.0, mu2=MU2)
        sup = 3.0 * math.sqrt(3.0) / 8.0
        want_lhs = 1.1 * 1.5 + (4.0 / 4.0) * (sup / MU2) ** 2
        assert rep.lhs == pytest.approx(1.6543309612636952, rel=1e-14)
        assert rep.lhs == pytest.approx(want_lhs, rel=1e-14)
        assert rep.rhs == pytest.approx(20.239208802178716, rel=1e-14)
        assert rep.satisfied
        assert rep.C4 == 1.0

    def test_sigma_numbers(self):
        sig = sufficient_sigma(P4, MU2)
        assert sig == pytest.approx(3.3, rel=1e-14)  # 2 a1 (1 + 1/(2 tau))
        rep = check_sigma_condition(P4, lam=1.0, mu2=MU2)
        assert rep.sigma == pytest.approx(3.3, rel=1e-14)
        assert rep.sigma_source == "derived"
        assert rep.lhs == pytest.approx(4.125, rel=1e-14)  # 3.3 * (1 + 1/4)
        assert rep.rhs == pytest.approx(40.478417604357432, rel=1e-14)
        assert rep.satisfied

    def test_user_sigma_is_echoed(self):
        rep = check_sigma_condition(P4, lam=1.0, mu2=MU2, sigma=50.0)
        assert rep.sigma == 50.0
        assert rep.sigma_source == "user"
        assert not rep.satisfied  # 50 * 1.25 > 40.478...

    def test_zero_coupling_is_trivial(self):
        p = Model4Params(D=1.0, tau=1.0, b=1.0, gamma=1.0, k=1.0, k0=0.1, delta=1.0)
        assert p.xi == 0.0
        rep = check_coupling_condition(p, MU2)
        assert rep.lhs == 0.0
        assert rep.satisfied

    def test_mu2_mode_is_carried_through(self):
        rep = check_coupling_condition(P4, MU2, mu2_mode="discrete")
        assert rep.mu2_mode == "discrete"

    def test_validation(self):
        with pytest.raises(ParameterError):
            check_coupling_condition(P4, 0.0)
        with pytest.raises(ParameterError):
            check_contraction_condition(P4, lam=1.0, mu2=MU2, C4=0.0)
        with pytest.raises(ParameterError):
            check_contraction_condition(P4, lam=-1.0, mu2=MU2)
        with pytest.raises(ParameterError):
            check_sigma_condition(P4, lam=1.0, mu2=MU2, sigma=0.0)

    @given(
        D=st.floats(min_value=0.1, max_value=10.0),
        tau=st.floats(min_value=0.3, max_value=3.0),
        b=st.floats(min_value=0.1, max_value=3.0),
        gamma=st.floats(min_value=0.1, max_value=3.0),
        k=st.floats(min_value=0.2, max_value=3.0),
        k0=st.floats(min_value=0.01, max_value=1.0),
        delta=st.floats(min_value=0.1, max_value=3.0),
        lam=st.floats(min_value=0.05, max_value=5.0),
        mu2=st.floats(min_value=0.1, max_value=50.0),
        C4=st.floats(min_value=0.1, max_value=3.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_sigma_condition_implies_contraction(
        self, D, tau, b, gamma, k, k0, delta, lam, mu2, C4
    ):
        # The derived sigma was constructed so that passing the aggregated
        # inequality forces the contraction inequality; this must hold for
        # every admissible parameter combination, not just the shipped ones.
        p = Model4Params(D=D, tau=tau, b=b, gamma=gamma, k=k, k0=k0, delta=delta)
        agg = check_sigma_condition(p, lam=lam, mu2=mu2, C4=C4)
        if agg.satisfied:
            con = check_contraction_condition(p, lam=lam, mu2=mu2, C4=C4)
            assert con.satisfied


def interval_fields(n=65, L=1.0):
    g = Grid.interval(L, n)
    x = g.coords()[0]
    u = Field(g, 0.5 + 0.2 * np.cos(np.pi * x / L))
    v = Field(g, 0.7 + 0.1 * np.cos(2 * np.pi * x / L))
    return g, u, v


class TestEnergyFunctionals:
    def test_lyapunov_model1_constant_state_closed_form(self):
        g = Grid.interval(1.0, 33)
        c, wv = 0.4, 0.9
        u = Field(g, np.full(33, c))
        w = Field(g, np.full(33, wv))
        want = -P1.xi * float(drift_primitive_model1(P1, c)) + 0.5 * P1.tau * P1.k * wv**2
        assert lyapunov_model1(u, w, P1) == pytest.approx(want, rel=1e-13)

    def test_lyapunov_model2_constant_state_closed_form(self):
        g = Grid.interval(1.0, 33)
        zv, wv = 1.1, 0.3
        z = Field(g, np.full(33, zv))
        w = Field(g, np.full(33, wv))
        want = 0.5 * P2.alpha1 * wv**2 - P2.xi * float(drift_primitive_model2(P2, zv))
        assert lyapunov_model2(z, w, P2) == pytest.approx(want, rel=1e-13)

    def test_grid_mismatch_rejected(self):
        g1, g2 = Grid.interval(1.0, 17), Grid.interval(1.0, 33)
        with pytest.raises(ParameterError):
            lyapunov_model1(Field(g1, np.zeros(17)), Field(g2, np.zeros(33)), P1)

    def test_variational_constant_field_closed_form(self):
        g = Grid.interval(1.0, 33)
        c, lam = 0.8, 1.2
        vf = Field(g, np.full(33, c))
        want1 = (
            -float(drift_primitive_model1(P1, c))
            - (P1.k / P1.tau) * lam * c
            + (P1.k * P1.xi / (2.0 * P1.tau)) * c * c
        )
        assert variational_energy_model1(vf, P1, lam) == pytest.approx(want1, rel=1e-13)
        want2 = (
            -float(drift_primitive_model2(P2, c))
            - P2.alpha1 * lam * c
            + 0.5 * P2.alpha1 * P2.xi * c * c
        )
        assert variational_energy_model2(vf, P2, lam) == pytest.approx(want2, rel=1e-13)

    def test_gateaux_derivative_model1(self):
        # Centered differences of the energy must agree with the assembled
        # weak form of the nonlocal stationary equation to O(eps^2).
        g, vf, _ = interval_fields()
        lam = 1.0
        rng = np.random.default_rng(4)
        phi = rng.uniform(-1.0, 1.0, 65)

        def weak(vals):
            q = drift_model1(P1, vals)
            m = g.mean(vals)
            return (
                P1.D * g.dirichlet_form(vals, phi)
                - g.inner(q, phi)
                - (P1.k / P1.tau) * lam * g.mean(phi)
                + (P1.k * P1.xi / P1.tau) * m * g.mean(phi)
            )

        gaps = []
        for eps in (1e-4, 1e-5):
            fd = (
                variational_energy_model1(Field(g, vf.values + eps * phi), P1, lam)
                - variational_energy_model1(Field(g, vf.values - eps * phi), P1, lam)
            ) / (2.0 * eps)
            gap = abs(fd - weak(vf.values))
            gaps.append(gap)
            assert gap <= 0.1 * eps**2
        assert gaps[1] < gaps[0]

    def test_gateaux_derivative_model2(self):
        g, _, _ = interval_fields()
        x = g.coords()[0]
        zf = Field(g, 1.0 + 0.3 * np.cos(np.pi * x))
        lam = 0.5
        rng = np.random.default_rng(5)
        phi = rng.uniform(-1.0, 1.0, 65)
        k = P2.alpha1

        def weak(vals):
            m = g.mean(vals)
            return (
                P2.D * g.dirichlet_form(vals, phi)
                - g.inner(drift_model2(P2, vals), phi)
                - k * lam * g.mean(phi)
                + k * P2.xi * m * g.mean(phi)
            )

        for eps in (1e-4, 1e-5):
            fd = (
                variational_energy_model2(Field(g, zf.values + eps * phi), P2, lam)
                - variational_energy_model2(Field(g, zf.values - eps * phi), P2, lam)
            ) / (2.0 * eps)
            assert abs(fd - weak(zf.values)) <= 1.0 * eps**2

    def test_constant_critical_points_have_zero_derivative(self):
        # Solve the constant stationary equation with brentq, then the
        # directional derivative of the energy must vanish to round-off.
        g = Grid.interval(1.0, 65)
        lam = 1.0
        u_c = brentq(
            lambda u: drift_model1(P1, u) + (P1.k / P1.tau) * (lam - P1.xi * u),
            0.0,
            2.0,
            xtol=1e-15,
        )
        vstat = np.full(65, u_c)
        for seed in range(4):
            phi = np.random.default_rng(seed).uniform(-1.0, 1.0, 65)
            eps = 1e-6
            fd = (
                variational_energy_model1(Field(g, vstat + eps * phi), P1, lam)
                - variational_energy_model1(Field(g, vstat - eps * phi), P1, lam)
            ) / (2.0 * eps)
            assert abs(fd) <= 1e-10

        lam2 = 0.5
        z_c = brentq(
            lambda z: drift_model2(P2, z) + P2.alpha1 * (lam2 - P2.xi * z),
            0.0,
            2.0,
            xtol=1e-15,
        )
        zstat = np.full(65, z_c)
        for seed in range(4):
            phi = np.random.default_rng(10 + seed).uniform(-1.0, 1.0, 65)
            eps = 1e-6
            fd = (
                variational_energy_model2(Field(g, zstat + eps * phi), P2, lam2)
                - variational_energy_model2(Field(g, zstat - eps * phi), P2, lam2)
            ) / (2.0 * eps)
            assert abs(fd) <= 1e-10


class TestEnergyMonotonicityAndResiduals:
    def _run(self, p, scheme="imex-cn", t_end=0.5, dt=1e-3, stride=25):
        g, u0, v0 = interval_fields()
        return run((u0, v0), p, SolverConfig(t_end=t_end, dt=dt, scheme=scheme, stride=stride))

    def test_model1_energy_monotone(self):
        res = self._run(P1, t_end=2.0, stride=50)
        L = [r.lyapunov for r in res.records]
        assert all(np.isfinite(L))
        drops = np.diff(L)
        assert np.max(drops) <= 1e-10 * max(1.0, abs(L[0]))

    def test_model2_energy_monotone(self):
        res = self._run(P2, t_end=2.0, stride=50)
        L = [r.lyapunov for r in res.records]
        assert all(np.isfinite(L))
        assert np.max(np.diff(L)) <= 1e-10 * max(1.0, abs(L[0]))

    def test_identity_residual_layout_model1(self):
        res = self._run(P1)
        ir = [r.identity_residual for r in res.records]
        assert math.isnan(ir[0]) and math.isnan(ir[-1])
        interior = np.asarray(ir[1:-1])
        assert np.all(np.isfinite(interior))
        assert np.all(interior >= 0.0)

    def test_identity_residual_layout_model2(self):
        res = self._run(P2)
        ir = [r.identity_residual for r in res.records]
        assert math.isnan(ir[0]) and math.isnan(ir[-1])
        assert np.all(np.isfinite(np.asarray(ir[1:-1])))

    def test_hill_model_has_no_energy_columns(self):
        res = self._run(P4, dt=5e-4)
        for rec in res.records:
            assert math.isnan(rec.lyapunov)
            assert math.isnan(rec.identity_residual)

    def test_attach_requires_three_records(self):
        g, u0, v0 = interval_fields()
        res = run((u0, v0), P1, SolverConfig(t_end=0.01, dt=1e-3, stride=5))
        with pytest.raises(DiagnosticsError, match="at least 3"):
            attach_identity_residuals(res.records[:2], [], P1)


class TestRecordBuilder:
    def test_column_tuple_is_stable(self):
        assert RECORD_COLUMNS == (
            "t",
            "lambda",
            "u_mean",
            "v_mean",
            "w_mean",
            "u_dev_l2",
            "u_dev_linf",
            "v_dev_linf",
            "w_dev_l2",
            "lyapunov",
            "identity_residual",
            "dist_star",
        )

    def test_row_matches_column_order(self):
        rec = DiagnosticsRecord(*range(12))
        assert rec.row() == tuple(float(i) for i in range(12))
        assert rec.t == 0.0 and rec.lam == 1.0 and rec.dist_star == 11.0

    def test_build_model4_record(self):
        g = Grid.interval(1.0, 33)
        x = g.coords()[0]
        eq = solve_equilibrium(P4, 1.0)
        u = Field(g, eq.u_star * (1.0 + 0.1 * np.cos(np.pi * x)))
        v = Field(g, np.full(33, eq.v_star))
        state = SimState(0.25, u, v)
        rec = RecordBuilder(P4, 1.0, eq).build(state)
        assert rec.t == 0.25
        assert rec.lam == pytest.approx(g.mean(u.values + P4.tau * v.values), rel=1e-14)
        assert rec.u_mean == pytest.approx(g.mean(u.values), rel=1e-14)
        assert rec.w_mean == pytest.approx(
            g.mean(transform_w(state, P4).values), rel=1e-14
        )
        assert rec.u_dev_linf == pytest.approx(
            float(np.max(np.abs(u.values - g.mean(u.values)))), rel=1e-12
        )
        want_dist = max(
            float(np.max(np.abs(u.values - eq.u_star))),
            float(np.max(np.abs(v.values - eq.v_star))),
        )
        assert rec.dist_star == pytest.approx(want_dist, rel=1e-12)
        assert math.isnan(rec.lyapunov)

    def test_build_model1_record_has_energy(self):
        g, u, v = interval_fields(33)
        state = SimState(0.0, u, v)
        rec = RecordBuilder(P1, 1.0, None).build(state)
        w = transform_w(state, P1)
        assert rec.lyapunov == pytest.approx(lyapunov_model1(u, w, P1), rel=1e-13)
        assert math.isnan(rec.dist_star)


class TestDecayFit:
    def test_pure_exponential_recovered(self):
        t = np.linspace(0.0, 10.0, 51)
        y = 3.0 * np.exp(-1.7 * t)
        est = fit_decay_rate(t, y)
        assert est.rate == pytest.approx(1.7, rel=1e-10)
        assert not est.converged
        assert est.t_window[0] == pytest.approx(5.2, rel=1e-12)
        assert est.t_window[1] == 10.0
        assert est.n_fit == 25

    def test_window_fraction(self):
        t = np.linspace(0.0, 10.0, 51)
        y = np.exp(-0.5 * t) + 1e-4 * np.exp(-0.05 * t)
        full = fit_decay_rate(t, y, window_frac=1.0)
        tail = fit_decay_rate(t, y, window_frac=0.2)
        # The tail window isolates the slow component.
        assert tail.rate < full.rate

    def test_floor_sentinel(self):
        t = np.linspace(0.0, 5.0, 20)
        y = np.full(20, 1e-16)
        est = fit_decay_rate(t, y)
        assert est.rate == math.inf
        assert est.converged
        assert est.n_fit == 0

    def test_validation(self):
        with pytest.raises(DiagnosticsError, match="at least 10"):
            fit_decay_rate([0, 1, 2], [1, 1, 1])
        t = np.linspace(0, 1, 12)
        with pytest.raises(DiagnosticsError):
            fit_decay_rate(t, np.full(11, 1.0))
        with pytest.raises(DiagnosticsError):
            fit_decay_rate(t, -np.ones(12))
        with pytest.raises(DiagnosticsError):
            fit_decay_rate(t, np.ones(12), window_frac=0.0)

    def test_estimate_from_records(self):
        recs = []
        t = np.linspace(0.0, 10.0, 21)
        for ti in t:
            rec = DiagnosticsRecord(*([0.0] * 12))
            rec.t = ti
            rec.u_dev_linf = 2.0 * math.exp(-0.8 * ti)
            recs.append(rec)
        est = estimate_decay_rate(recs, column="u_dev_linf")
        assert est.rate == pytest.approx(0.8, rel=1e-9)
        with pytest.raises(DiagnosticsError, match="unknown record column"):
            estimate_decay_rate(recs, column="energy")

    def test_decay_floor_constant(self):
        assert DECAY_FLOOR == 1e-13


class TestOmegaLimit:
    def test_converged_state(self):
        g = Grid.interval(1.0, 17)
        eq = solve_equilibrium(P4, 1.0)
        state = SimState(
            10.0, Field(g, np.full(17, eq.u_star)), Field(g, np.full(17, eq.v_star))
        )
        rep = omega_limit_check(state, P4, 1.0)
        assert rep.mass_gap < 1e-12
        assert rep.converged
        assert rep.u_gap < 1e-12 and rep.v_gap < 1e-12

    def test_broken_mass_line_raises(self):
        g = Grid.interval(1.0, 17)
        eq = solve_equilibrium(P4, 1.0)
        state = SimState(
            10.0,
            Field(g, np.full(17, eq.u_star)),
            Field(g, np.full(17, 2.0 * eq.v_star)),
        )
        with pytest.raises(DiagnosticsError, match="conserved-mass line"):
            omega_limit_check(state, P4, 1.0)

    def test_no_equilibrium_model_reports_nan_gaps(self):
        g = Grid.interval(1.0, 17)
        state = SimState(1.0, Field(g, np.full(17, 0.4)), Field(g, np.full(17, 0.6)))
        lam = 0.4 + P1.tau * 0.6
        rep = omega_limit_check(state, P1, lam)
        assert math.isnan(rep.u_gap) and math.isnan(rep.v_gap)
        assert not rep.converged


def streamed(p, lam0, states):
    """A RecordBuilder fed the given states, with their record times."""
    builder = RecordBuilder(p, lam0)
    for state in states:
        builder.build(state)
    return builder, [state.t for state in states]


class TestPairingAndSup:
    def test_stationary_state_pairs_to_zero(self):
        g = Grid.interval(1.0, 17)
        states = [
            SimState(t, Field(g, np.full(17, 0.3)), Field(g, np.full(17, 0.7)))
            for t in (0.0, 0.5, 1.0)
        ]
        builder, times = streamed(P4, 0.3 + P4.tau * 0.7, states)
        mon = deviation_pairing_integral(times, builder.pairing)
        np.testing.assert_allclose(mon.integrand, 0.0, atol=1e-14)
        np.testing.assert_allclose(mon.running, 0.0, atol=1e-14)
        assert mon.sup == 0.0

    def test_zero_xi_integrand_is_weighted_norm(self):
        # With tau D = 1 the mass deviation is tau (w - mean w) + const, so
        # the integrand collapses to tau ||w - mean w||^2 >= 0 and the
        # running integral is nondecreasing.
        p = Model4Params(D=0.5, tau=2.0, b=1.0, gamma=1.0, k=1.0, k0=0.1, delta=1.0)
        assert p.xi == 0.0
        g = Grid.interval(1.0, 65)
        x = g.coords()[0]
        u0 = Field(g, 0.1 * (1.0 + 0.2 * np.cos(np.pi * x)))
        v0 = Field(g, np.full(65, 0.45))
        ws = []
        res = run(
            (u0, v0),
            p,
            SolverConfig(t_end=0.5, dt=1e-3, stride=50),
            on_record=lambda state, rec: ws.append(transform_w(state, p).values),
        )
        mon = res.pairing
        assert len(ws) == len(res.records) == len(mon.integrand)
        for i, w in enumerate(ws):
            want = p.tau * g.l2_norm(g.deviation(w)) ** 2
            assert mon.integrand[i] == pytest.approx(want, rel=1e-10, abs=1e-16)
        assert np.min(np.diff(mon.running)) >= -1e-16
        assert mon.sup == pytest.approx(mon.running[-1], rel=1e-12, abs=1e-16)

    def test_needs_two_records(self):
        g = Grid.interval(1.0, 17)
        state = SimState(0.0, Field(g, np.ones(17)), Field(g, np.ones(17)))
        builder, times = streamed(P4, 2.0, [state])
        with pytest.raises(DiagnosticsError):
            deviation_pairing_integral(times, builder.pairing)

    def test_v_norm_sup_window(self):
        g = Grid.interval(1.0, 9)
        states = [
            SimState(t, Field(g, np.ones(9)), Field(g, np.full(9, c)))
            for t, c in [(0.0, 9.0), (0.5, 5.0), (1.0, 0.6), (2.0, 0.8)]
        ]
        builder, times = streamed(P4, 2.0, states)
        # Records before t = 1 are outside the window; sup of ||v||/lam
        # over t >= 1 is 0.8 / lam.
        assert v_norm_sup(times, builder.v_norms, 2.0) == pytest.approx(0.4, rel=1e-13)
        assert math.isnan(v_norm_sup(times, builder.v_norms, 2.0, t_min=5.0))
        with pytest.raises(ParameterError):
            v_norm_sup(times, builder.v_norms, 0.0)


def loop_write_diagnostics_table(path, records, meta=None):
    """The per-value loop writer: the byte-level reference for write_diagnostics_table."""
    columns = (
        "t", "lambda", "u_mean", "v_mean", "w_mean", "u_dev_l2", "u_dev_linf",
        "v_dev_linf", "w_dev_l2", "lyapunov", "identity_residual", "dist_star",
    )
    lines = ["# polarsim diagnostics"]
    for key in sorted(meta or {}):
        lines.append(f"# {key} = {meta[key]}")
    lines.append("# columns = " + " ".join(columns))
    for r in records:
        row = (
            r.t, r.lam, r.u_mean, r.v_mean, r.w_mean, r.u_dev_l2, r.u_dev_linf,
            r.v_dev_linf, r.w_dev_l2, r.lyapunov, r.identity_residual, r.dist_star,
        )
        lines.append(" ".join("%.17g" % val for val in row))
    Path(path).write_text("\n".join(lines) + "\n")


class TestDiagnosticsWriter:
    @pytest.mark.parametrize("params", [P1, P4], ids=["model1", "model4"])
    def test_bytes_equal_loop_writer(self, tmp_path, params):
        # model 1 leaves NaN residuals at both ends, model 4 NaN energies throughout
        g, u0, v0 = interval_fields(n=33)
        res = run((u0, v0), params, SolverConfig(t_end=0.05, dt=1e-3, stride=5))
        records = list(res.records)
        records.append(DiagnosticsRecord(*([math.inf, -math.inf, -0.0, 5e-324] * 3)))
        meta = {"seed": "none", "params": repr(params), "lam": "%.17g" % res.lam0}
        write_diagnostics_table(tmp_path / "new.txt", records, meta)
        loop_write_diagnostics_table(tmp_path / "ref.txt", records, meta)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()
        assert math.isnan(records[0].identity_residual)

    def test_table_layout_and_roundtrip(self, tmp_path):
        recs = []
        for i in range(3):
            rec = DiagnosticsRecord(*[float(i + j) / 7.0 for j in range(12)])
            recs.append(rec)
        path = tmp_path / "diag.txt"
        write_diagnostics_table(path, recs, meta={"b": "2", "a": "1"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# polarsim diagnostics"
        assert lines[1] == "# a = 1"
        assert lines[2] == "# b = 2"
        assert lines[3] == "# columns = " + " ".join(RECORD_COLUMNS)
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == 3
        # %.17g round-trips doubles exactly
        parsed = [float(tok) for tok in data[0].split()]
        assert parsed == list(recs[0].row())

    def test_bit_stable(self, tmp_path):
        recs = [DiagnosticsRecord(*np.random.default_rng(0).uniform(0, 1, 12))]
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_diagnostics_table(p1, recs, meta={"seed": "0"})
        write_diagnostics_table(p2, recs, meta={"seed": "0"})
        assert p1.read_bytes() == p2.read_bytes()
