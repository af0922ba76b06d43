"""Mode matrices, degeneracy residuals, and parameter scans.

The 2x2 mode matrix is checked against ``np.linalg.eigvals`` and, for
constant activation, against the closed forms of its determinant and
zero-mode spectrum; the modal residual is checked against an algebraically
rearranged closed form, against ``np.linalg.det``/``np.trace`` of the mode
matrix, against the action of the dense nonlocal operator on discrete
eigenvectors and on constants, and its constant-mode reading against the
slope of the well-mixed right side; scan roots are checked against
``scipy.optimize.brentq`` on the same residual.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from polarsim import Grid, Model4Params, linearization, solve_equilibrium
from polarsim.errors import EquilibriumError, ParameterError
from polarsim.grid import discrete_neumann_eigenvalue
from polarsim.linearization import (
    degeneracy_residual,
    linearized_operator_matrix,
    mode_eigenpair,
    mode_matrix,
    scan_degeneracy,
)

# Instance with a single degeneracy in D on the second mode of [0, 2 pi]
# (continuum mu_2 = 1/4).  The root below was frozen from a long bisection
# of the residual; the scan must reproduce it to 1e-6 relative.
SCAN_P = Model4Params(D=1.0, tau=1.0, b=1.0, gamma=1.0, k=1.0, k0=0.05, delta=0.22)
SCAN_MU2 = 0.25
SCAN_ROOT_D = 0.10030329819881556

# CLI defaults: xi = 1 - tau D = -3, and -1 with tau = 0.5
CLI_P = Model4Params(D=4.0, tau=1.0, b=1.0, gamma=1.0, k=1.0, k0=0.1, delta=1.0)


class TestConstantAModeMatrix:
    # constant activation a is the Jacobian fu = -delta, fv = a
    def test_zero_mode_eigenvalues(self):
        a, D, tau, delta = 1.2, 0.7, 1.5, 0.4
        _, (e1, e2) = mode_matrix(-delta, a, D, tau, 0.0)
        assert e1 == pytest.approx(0.0, abs=1e-14)
        assert e2 == pytest.approx(-(delta + a / tau), rel=1e-13)

    def test_determinant_closed_form(self):
        for a, D, tau, delta, mu in [
            (1.0, 1.0, 1.0, 1.0, 2.0),
            (0.3, 2.5, 0.6, 1.7, 9.87),
            (4.0, 0.1, 3.0, 0.05, 0.3),
        ]:
            M, _ = mode_matrix(-delta, a, D, tau, mu)
            det = float(np.linalg.det(M))
            want = mu * (D * mu + D * a + delta) / tau
            assert det == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_eigenvalues_match_dense_solver(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            a, D, tau, delta = rng.uniform(0.05, 5.0, 4)
            mu = rng.uniform(0.0, 50.0)
            M, eigs = mode_matrix(-delta, a, D, tau, mu)
            ref = sorted(np.linalg.eigvals(M).real, reverse=True)
            got = sorted((complex(e).real for e in eigs), reverse=True)
            scale = D * mu + delta + a
            assert got[0] == pytest.approx(ref[0], abs=1e-11 * scale)
            assert got[1] == pytest.approx(ref[1], abs=1e-11 * scale)

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            mode_matrix(-1.0, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ParameterError):
            mode_matrix(-1.0, 1.0, 1.0, 1.0, -0.5)

    @given(
        a=st.floats(min_value=1e-1, max_value=1e1),
        D=st.floats(min_value=1e-1, max_value=1e1),
        tau=st.floats(min_value=1e-1, max_value=1e1),
        delta=st.floats(min_value=1e-1, max_value=1e1),
        mu=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e2)),
    )
    @settings(max_examples=300, deadline=None)
    def test_spectrum_always_real_and_nonpositive(self, a, D, tau, delta, mu):
        # Constant activation cannot produce oscillatory or Turing-type
        # growth: the discriminant stays positive and both eigenvalues stay
        # in the closed left half plane, with zero only on the mean mode.
        pair = mode_eigenpair(-delta, a, D, tau, j=1, mu=mu)
        assert pair.classification != "complex"
        e1 = complex(pair.eigenvalues[0]).real
        scale = D * mu + delta + a
        assert e1 <= 1e-12 * scale
        if mu == 0.0:
            assert pair.classification == "neutral"
        else:
            assert pair.classification == "stable"


class TestHillModeMatrix:
    def test_complex_pair_matches_dense_solver(self):
        # fu fv > tau (fu - D mu + (mu + fv)/tau)^2 / 4: M = [[-2, 1], [-1, -2]]
        M, eigs = mode_matrix(1.0, 1.0, 3.0, 1.0, 1.0)
        np.testing.assert_array_equal(M, [[-2.0, 1.0], [-1.0, -2.0]])
        ref = sorted(np.linalg.eigvals(M), key=lambda e: e.imag, reverse=True)
        np.testing.assert_allclose(eigs, ref, rtol=1e-14)
        assert mode_eigenpair(1.0, 1.0, 3.0, 1.0, j=2, mu=1.0).classification == "complex"

    def test_positive_feedback_destabilises_the_constant_mode(self):
        # tr M(0) = fu - fv/tau = 1 > 0: eigenvalues 1 and 0
        pair = mode_eigenpair(2.0, 1.0, 1.0, 1.0, j=1, mu=0.0)
        assert pair.eigenvalues == pytest.approx((1.0, 0.0), abs=1e-15)
        assert pair.classification == "unstable"

    @given(
        D=st.floats(min_value=0.1, max_value=10.0),
        tau=st.floats(min_value=0.2, max_value=5.0),
        gamma=st.floats(min_value=0.0, max_value=3.0),
        k=st.floats(min_value=0.3, max_value=2.0),
        k0=st.floats(min_value=0.02, max_value=1.0),
        delta=st.floats(min_value=0.1, max_value=5.0),
        m=st.sampled_from([2.0, 3.0, 4.0]),
        lam=st.floats(min_value=0.2, max_value=3.0),
        mu=st.floats(min_value=1e-2, max_value=1e2),
    )
    @settings(max_examples=200, deadline=None)
    def test_residuals_are_readings_of_the_mode_matrix(self, D, tau, gamma, k, k0, delta, m, lam, mu):
        p = Model4Params(D=D, tau=tau, b=1.0, gamma=gamma, k=k, k0=k0, delta=delta, m=m)
        try:
            eq = solve_equilibrium(p, lam)
        except EquilibriumError:
            assume(False)
        # the Jacobian of f = v a(u) - delta u at the equilibrium
        fu = eq.v_star * float(p.a_prime(eq.u_star)) - delta
        fv = float(p.a(eq.u_star))
        M, _ = mode_matrix(fu, fv, D, tau, mu)
        M0, _ = mode_matrix(fu, fv, D, tau, 0.0)
        r2 = degeneracy_residual(p, lam, 2, mu, eq)
        # size of the terms that cancel in tau det M(mu)/mu
        scale = D * mu + D * abs(fv) + abs(fu) + abs(fu * fv) / mu
        assert abs(tau * np.linalg.det(M) / mu - r2) <= 1e-10 * scale
        assert abs(D * mu + D * fv - fu - r2) <= 1e-10 * scale
        assert -np.trace(M0) == pytest.approx(degeneracy_residual(p, lam, 1, 0.0, eq), rel=1e-10)


class TestDegeneracyResidual:
    def test_matches_rearranged_closed_form(self):
        # For mean-free modes the xi terms collapse to
        # D (mu + a) + delta + a' (u* - lam) / tau.
        for lam, mu in [(1.0, 0.25), (0.6, 1.0), (2.0, 4.0)]:
            eq = solve_equilibrium(SCAN_P, lam)
            u = eq.u_star
            a = float(SCAN_P.a(u))
            ap = float(SCAN_P.a_prime(u))
            want = (
                SCAN_P.D * (mu + a)
                + SCAN_P.delta
                + ap * (u - lam) / SCAN_P.tau
            )
            got = degeneracy_residual(SCAN_P, lam, 2, mu)
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("mu", [0.25, 1e-6, 1e-9])
    def test_mean_free_residual_is_exact_at_small_mu(self, mu):
        # tau det M(mu)/mu in exact rational arithmetic on the float Jacobian;
        # the fu fv terms of det M cancel, so a float det M/mu would lose
        # digits like eps |fu fv|/mu.  The error is measured against the size
        # of the closed form's terms: at mu = 0.25 this D is a degeneracy root
        # and the residual itself is only -1.8e-6
        p = replace(SCAN_P, D=0.1003)
        eq = solve_equilibrium(p, 1.0)
        fu = eq.v_star * float(p.a_prime(eq.u_star)) - p.delta
        fv = float(p.a(eq.u_star))
        D, tau, m, Fu, Fv = map(Fraction, (p.D, p.tau, mu, fu, fv))
        det = (-D * m + Fu) * (-(m + Fv) / tau) - Fv * (-Fu / tau)
        want = tau * det / m
        got = degeneracy_residual(p, 1.0, 2, mu, eq)
        assert abs(Fraction(got) - want) <= Fraction(1e-15) * (D * m + D * abs(Fv) + abs(Fu))

    @pytest.mark.parametrize("tau", [1.0, 0.5])
    def test_constant_mode_is_dense_operator_on_constants(self, tau):
        # xi = 1 - tau D != 0 at the CLI defaults: the dense operator maps the
        # constant vector to the constant-mode residual times itself
        p = replace(CLI_P, tau=tau)
        g = Grid.interval(1.0, 9)
        got = linearized_operator_matrix(p, 1.0, g) @ np.ones(g.n_nodes)
        np.testing.assert_allclose(got, degeneracy_residual(p, 1.0, 1, 0.0), rtol=1e-12)

    @pytest.mark.parametrize("p", [SCAN_P, CLI_P, replace(CLI_P, tau=0.5)])
    def test_constant_mode_is_well_mixed_rate(self, p):
        # -tr M(0) is minus the slope of dU/dt = -delta U + a(U)(lam - U)/tau at u*
        lam, h = 1.0, 1e-5
        u = solve_equilibrium(p, lam).u_star
        slope = (p.well_mixed_rhs(lam, u + h) - p.well_mixed_rhs(lam, u - h)) / (2.0 * h)
        assert degeneracy_residual(p, lam, 1, 0.0) == pytest.approx(-slope, rel=1e-8)

    def test_flat_activation_never_degenerate(self):
        # gamma = 0: tau det M(mu)/mu = D (mu + a) + delta and -tr M(0) = a/tau + delta
        p = replace(SCAN_P, gamma=0.0, k0=0.3)
        eq = solve_equilibrium(p, 1.0)
        a = float(p.a(eq.u_star))
        for mu in (0.25, 3.0):
            r = degeneracy_residual(p, 1.0, 2, mu)
            want = p.D * mu + p.delta + p.D * a
            assert r == pytest.approx(want, rel=1e-12)
            assert r > 0.0
        r = degeneracy_residual(p, 1.0, 1, 0.0)
        assert r == pytest.approx(a / p.tau + p.delta, rel=1e-12)
        assert r > 0.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            degeneracy_residual(SCAN_P, 1.0, 0, 0.25)
        with pytest.raises(ParameterError):
            degeneracy_residual(SCAN_P, 1.0, 2, -1.0)
        with pytest.raises(ParameterError):
            degeneracy_residual(SCAN_P, 1.0, 2, 0.0)

    def test_agrees_with_dense_operator_on_eigenmodes(self):
        # On a small grid the dense nonlocal operator applied to the
        # mean-free discrete eigenvectors must act as multiplication by the
        # modal residual evaluated at the discrete eigenvalue.
        L = 2.0 * math.pi
        g = Grid.interval(L, 31)
        lam = 1.0
        M = linearized_operator_matrix(SCAN_P, lam, g)
        x = g.coords()[0]
        for j in (2, 3, 4):
            mu_h = discrete_neumann_eigenvalue(g, j)
            phi = np.cos((j - 1) * math.pi * x / L)
            want = degeneracy_residual(SCAN_P, lam, j, mu_h) * phi
            np.testing.assert_allclose(M @ phi, want, rtol=1e-10, atol=1e-12)

    def test_dense_operator_grid_cap(self):
        with pytest.raises(ParameterError):
            linearized_operator_matrix(SCAN_P, 1.0, Grid.interval(1.0, 6000))


def assert_adjacent_float_root(resid, rep):
    """rep.root is the end with the smaller |resid| of adjacent floats around a sign change."""
    r = rep.residual_at_root
    assert r == resid(rep.root)
    if r != 0.0:
        others = [resid(math.nextafter(rep.root, to)) for to in (-math.inf, math.inf)]
        assert any((o < 0.0) != (r < 0.0) and abs(r) <= abs(o) for o in others)


class TestScanDegeneracy:
    def test_frozen_root_in_D(self):
        reports = scan_degeneracy(SCAN_P, 1.0, 2, SCAN_MU2, "D", 0.01, 2.0, 80)
        assert len(reports) == 1
        rep = reports[0]
        assert rep.j == 2 and rep.param == "D"
        assert rep.root == pytest.approx(SCAN_ROOT_D, rel=1e-6)
        assert abs(rep.residual_at_root) <= 1e-6 * (rep.root * SCAN_MU2 + SCAN_P.delta)
        assert rep.bracket[0] <= rep.root <= rep.bracket[1]
        assert_adjacent_float_root(lambda x: degeneracy_residual(replace(SCAN_P, D=x), 1.0, 2, SCAN_MU2), rep)

    def test_root_does_not_depend_on_the_sample_grid(self):
        # the README scan and the range a seeded benchmark study draws
        readme = scan_degeneracy(SCAN_P, 1.0, 2, SCAN_MU2, "D", 0.02, 1.0, 200)
        study = scan_degeneracy(SCAN_P, 1.0, 2, SCAN_MU2, "D", 0.0434, 0.997, 200)
        assert readme[0].bracket != study[0].bracket
        assert (readme[0].root, readme[0].residual_at_root) == (study[0].root, study[0].residual_at_root)

    def test_root_matches_brentq(self):
        reports = scan_degeneracy(SCAN_P, 1.0, 2, SCAN_MU2, "D", 0.01, 2.0, 80)
        ref = brentq(
            lambda x: degeneracy_residual(replace(SCAN_P, D=x), 1.0, 2, SCAN_MU2),
            0.01,
            2.0,
            xtol=1e-14,
        )
        assert reports[0].root == pytest.approx(ref, rel=1e-7)

    def test_lambda_scan_multiple_roots(self):
        p = replace(SCAN_P, D=0.1)
        reports = scan_degeneracy(p, 1.0, 2, SCAN_MU2, "lambda", 0.2, 3.0, 60)
        assert len(reports) == 2
        for rep in reports:
            ref = brentq(
                lambda x: degeneracy_residual(p, x, 2, SCAN_MU2),
                rep.bracket[0],
                rep.bracket[1],
                xtol=1e-14,
            )
            assert rep.root == pytest.approx(ref, rel=1e-7)
            assert_adjacent_float_root(lambda x: degeneracy_residual(p, x, 2, SCAN_MU2), rep)
        assert reports[0].root < reports[1].root

    def test_flat_activation_scan_is_empty(self):
        p = replace(SCAN_P, gamma=0.0, k0=0.3)
        assert scan_degeneracy(p, 1.0, 2, SCAN_MU2, "D", 0.01, 2.0, 40) == []

    def test_scan_is_deterministic(self):
        r1 = scan_degeneracy(SCAN_P, 1.0, 2, SCAN_MU2, "D", 0.01, 2.0, 80)
        r2 = scan_degeneracy(SCAN_P, 1.0, 2, SCAN_MU2, "D", 0.01, 2.0, 80)
        assert r1 == r2

    def test_unsolvable_sample_points_are_gaps(self, caplog):
        # Scanning lambda across a bistable window: the equilibrium solve
        # fails at interior samples, which must be logged and skipped, not
        # bubbled up.
        p = Model4Params(D=1.0, tau=1.0, b=1.0, gamma=1.0, k=0.4, k0=0.01, delta=0.2, m=4.0)
        with caplog.at_level("WARNING", logger="polarsim.linearization"):
            reports = scan_degeneracy(p, 1.0, 2, 0.25, "lambda", 0.2, 1.2, 12)
        assert isinstance(reports, list)
        assert any("failed" in rec.message for rec in caplog.records)

    def test_failed_sample_is_a_gap_and_other_errors_propagate(self, monkeypatch, caplog):
        real = linearization.degeneracy_residual
        want = scan_degeneracy(SCAN_P, 1.0, 2, SCAN_MU2, "D", 0.01, 2.0, 80)

        def failing_at_hi(exc):
            def resid(p, lam, j, mu_j, eq=None):
                if p.D == 2.0:
                    raise exc
                return real(p, lam, j, mu_j, eq)
            return resid

        monkeypatch.setattr(linearization, "degeneracy_residual", failing_at_hi(EquilibriumError("no root")))
        with caplog.at_level("WARNING", logger="polarsim.linearization"):
            assert scan_degeneracy(SCAN_P, 1.0, 2, SCAN_MU2, "D", 0.01, 2.0, 80) == want
        assert any("no root" in rec.message for rec in caplog.records)
        monkeypatch.setattr(linearization, "degeneracy_residual", failing_at_hi(TypeError("bug")))
        with pytest.raises(TypeError, match="bug"):
            scan_degeneracy(SCAN_P, 1.0, 2, SCAN_MU2, "D", 0.01, 2.0, 80)

    @pytest.mark.parametrize("param, lo, hi, solves", [("D", 0.01, 2.0, 1), ("delta", 0.1, 0.5, None)])
    def test_equilibrium_solves_per_scan(self, monkeypatch, param, lo, hi, solves):
        # D enters neither f = 0 nor the mass line: a D scan solves once; a
        # delta scan solves at every residual evaluation
        real, calls = linearization.solve_equilibrium, []

        def counting(p, lam, *args):
            calls.append(p)
            return real(p, lam, *args)

        evals = []
        real_resid = linearization.degeneracy_residual

        def counting_resid(*args):
            evals.append(args)
            return real_resid(*args)

        want = scan_degeneracy(SCAN_P, 1.0, 2, SCAN_MU2, param, lo, hi, 40)
        monkeypatch.setattr(linearization, "solve_equilibrium", counting)
        monkeypatch.setattr(linearization, "degeneracy_residual", counting_resid)
        assert scan_degeneracy(SCAN_P, 1.0, 2, SCAN_MU2, param, lo, hi, 40) == want
        assert len(calls) == (solves or len(evals)) and len(evals) >= 40

    @pytest.mark.parametrize("param", ["D", "delta", "lambda"])
    def test_scan_with_no_evaluated_sample_raises(self, caplog, param):
        p = replace(SCAN_P, k=1e-300)  # k^m underflows: every equilibrium solve is refused
        with caplog.at_level("WARNING", logger="polarsim.linearization"):
            with pytest.raises(EquilibriumError, match="k\\^m underflows"):
                scan_degeneracy(p, 1.0, 2, SCAN_MU2, param, 0.1, 1.0, 6)
        # a D scan fails at its one solve, before any sample
        assert len(caplog.records) == (0 if param == "D" else 6)

    def test_validation(self):
        with pytest.raises(ParameterError):
            scan_degeneracy(SCAN_P, 1.0, 2, 0.25, "tau", 0.1, 1.0, 10)
        with pytest.raises(ParameterError):
            scan_degeneracy(SCAN_P, 1.0, 2, 0.25, "D", 1.0, 0.1, 10)
        with pytest.raises(ParameterError):
            scan_degeneracy(SCAN_P, 1.0, 2, 0.25, "D", 0.1, 1.0, 1)
        for bad in (math.inf, math.nan):
            with pytest.raises(ParameterError, match="range"):
                scan_degeneracy(SCAN_P, 1.0, 2, 0.25, "D", 0.1, bad, 10)
            with pytest.raises(ParameterError, match="lam"):
                scan_degeneracy(SCAN_P, bad, 2, 0.25, "D", 0.1, 1.0, 10)
