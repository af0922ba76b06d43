"""Reaction-term tests: activation bounds, derivative suprema, primitives.

The derivative supremum formula is checked against a dense-grid brute-force
maximum, primitives are checked against both finite differences and the
adaptive-quadrature fallback, and the quasi-positivity structure is sampled
on the boundary of the nonnegative cone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarsim import Model1Params, Model2Params, Model4Params
from polarsim.errors import ParameterError, QuadratureError
from polarsim.kinetics import (
    _adaptive_simpson,
    quasi_positivity_margins,
    reaction_rhs,
    StackedParams,
)

P4 = Model4Params(D=4.0, tau=1.0, b=1.3, gamma=0.9, k=0.7, k0=0.1, delta=1.0)
P4_M3 = Model4Params(D=1.0, tau=1.5, b=2.0, gamma=0.5, k=1.1, k0=0.2, delta=0.4, m=3.0)
P1 = Model1Params(D=0.4, tau=1.0, a=1.0, b=1.0, k=1.0)
P2 = Model2Params(D=0.4, tau=2.0, alpha1=1.0, alpha2=1.0)


class TestParameterValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(D=0.0),
            dict(tau=-1.0),
            dict(k=0.0),
            dict(k0=0.0),
            dict(b=-0.5),
            dict(gamma=-0.1),
            dict(delta=-1.0),
            dict(m=1.5),
        ],
    )
    def test_model4_rejects_bad_values(self, kwargs):
        base = dict(D=1.0, tau=1.0, b=1.0, gamma=1.0, k=1.0, k0=0.1, delta=1.0)
        base.update(kwargs)
        with pytest.raises(ParameterError):
            Model4Params(**base)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_fields_are_refused(self, bad):
        for cls, base in (
            (Model1Params, dict(D=1.0, tau=1.0, a=1.0, b=1.0, k=1.0)),
            (Model2Params, dict(D=0.5, tau=2.0, alpha1=1.0, alpha2=1.0)),
            (Model4Params, dict(D=1.0, tau=1.0, b=1.0, gamma=1.0, k=1.0, k0=0.1, delta=1.0, m=2.0)),
        ):
            for name in base:
                with pytest.raises(ParameterError, match=f"{name} must be finite"):
                    cls(**{**base, name: bad})

    def test_model4_error_names_the_field(self):
        with pytest.raises(ParameterError, match="delta"):
            Model4Params(D=1.0, tau=1.0, b=1.0, gamma=1.0, k=1.0, k0=0.1, delta=-1.0)

    def test_model4_admits_degenerate_reference_cases(self):
        heat = Model4Params(D=1.0, tau=1.0, b=0.0, gamma=1.0, k=1.0, k0=0.1, delta=0.0)
        assert heat.a0 == 0.0 and heat.a1 == 0.0
        flat = Model4Params(D=1.0, tau=1.0, b=2.0, gamma=0.0, k=1.0, k0=0.5, delta=0.2)
        assert flat.a0 == flat.a1 == 1.0

    def test_model2_requires_tau_away_from_one(self):
        with pytest.raises(ParameterError, match="tau"):
            Model2Params(D=0.5, tau=1.0, alpha1=1.0, alpha2=1.0)

    def test_model1_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            Model1Params(D=1.0, tau=1.0, a=0.0, b=1.0, k=1.0)

    def test_params_are_frozen(self):
        with pytest.raises(Exception):
            P4.delta = 2.0  # type: ignore[misc]

    def test_derived_coefficients(self):
        assert P4.xi == 1.0 - 1.0 * 4.0
        assert P4.a0 == pytest.approx(1.3 * 0.1)
        assert P4.a1 == pytest.approx(1.3 * (0.9 + 0.1))
        assert P1.xi == pytest.approx(1.0 - 0.4)
        assert P2.xi == pytest.approx((1.0 - 2.0 * 0.4) / (2.0 - 1.0))
        assert P2.alpha == pytest.approx((1.0 - 0.4) / (2.0 - 1.0))

    def test_model_name_dispatch(self):
        assert P1.name == "model1"
        assert P2.name == "model2"
        assert P4.name == "model4"
        assert P4_M3.name == "model4-general-m"


class TestActivation:
    def test_values_at_landmarks(self):
        # a(0) = b k0 and a(k) = b (gamma/2 + k0) because the Hill fraction
        # equals 1/2 at u = k for any exponent.
        assert P4.a(0.0) == pytest.approx(P4.b * P4.k0, rel=1e-15)
        assert P4.a(P4.k) == pytest.approx(P4.b * (0.5 * P4.gamma + P4.k0), rel=1e-14)
        assert P4_M3.a(P4_M3.k) == pytest.approx(
            P4_M3.b * (0.5 * P4_M3.gamma + P4_M3.k0), rel=1e-14
        )

    def test_saturates_to_a1(self):
        assert P4.a(1e6) == pytest.approx(P4.a1, rel=1e-10)

    @given(
        u=st.floats(min_value=0.0, max_value=50.0),
        w=st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_monotonicity(self, u, w):
        au, aw = P4.a(u), P4.a(w)
        assert P4.a0 <= au <= P4.a1
        if u <= w:
            assert au <= aw + 1e-15

    def test_rejects_negative_argument(self):
        with pytest.raises(ParameterError):
            P4.a(-0.1)
        with pytest.raises(ParameterError):
            P4.a_prime(np.array([0.5, -1e-3]))

    def test_a_prime_matches_finite_difference(self):
        eps = 1e-6
        for u in (0.05, 0.3, P4.k / math.sqrt(3.0), 1.0, 4.0):
            fd = (P4.a(u + eps) - P4.a(u - eps)) / (2.0 * eps)
            assert P4.a_prime(u) == pytest.approx(fd, rel=1e-7, abs=1e-10)
        for u in (0.2, 1.1, 3.0):
            fd = (P4_M3.a(u + eps) - P4_M3.a(u - eps)) / (2.0 * eps)
            assert P4_M3.a_prime(u) == pytest.approx(fd, rel=1e-7, abs=1e-10)

    def test_a_prime_vanishes_at_origin(self):
        assert P4.a_prime(0.0) == 0.0
        assert P4_M3.a_prime(0.0) == 0.0


class TestJacobian:
    @given(
        u=st.floats(min_value=1e-3, max_value=5.0),
        v=st.floats(min_value=0.0, max_value=5.0),
        m=st.sampled_from([2.0, 3.7]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_central_differences_of_f(self, u, v, m):
        p = Model4Params(D=1.0, tau=1.5, b=1.3, gamma=0.9, k=0.7, k0=0.1, delta=0.6, m=m)
        fu, fv = p.jacobian(u, v)
        h = 1e-5  # rounding ~ eps |f| / h and truncation ~ h^2 |f'''| stay below 1e-8
        fd_u = (p.f(u + h, v) - p.f(u - h, v)) / (2.0 * h)
        fd_v = (p.f(u, v + h) - p.f(u, v - h)) / (2.0 * h)
        assert fu == pytest.approx(fd_u, rel=1e-6, abs=1e-7)
        assert fv == pytest.approx(fd_v, rel=1e-6, abs=1e-7)

    def test_rejects_negative_argument(self):
        with pytest.raises(ParameterError):
            P4.jacobian(-1e-3, 0.5)


class TestAlphaSup:
    def test_closed_form_m2(self):
        want = 3.0 * math.sqrt(3.0) * P4.b * P4.gamma / (8.0 * P4.k)
        assert P4.alpha_sup == pytest.approx(want, rel=1e-14)

    def test_maximizer_m2(self):
        u_star = P4.k / math.sqrt(3.0)
        assert P4.a_prime(u_star) == pytest.approx(P4.alpha_sup, rel=1e-13)

    def test_dominates_brute_force_grid_m2(self):
        u = np.linspace(0.0, 20.0 * P4.k, 1_000_001)
        grid_max = float(np.max(P4.a_prime(u)))
        sup = P4.alpha_sup
        assert grid_max <= sup * (1.0 + 1e-12)
        assert grid_max == pytest.approx(sup, rel=1e-9)

    def test_dominates_brute_force_grid_m3(self):
        u = np.linspace(0.0, 20.0 * P4_M3.k, 1_000_001)
        grid_max = float(np.max(P4_M3.a_prime(u)))
        sup = P4_M3.alpha_sup
        assert grid_max <= sup * (1.0 + 1e-12)
        assert grid_max == pytest.approx(sup, rel=1e-9)

    @given(
        m=st.floats(min_value=2.0, max_value=6.0),
        b=st.floats(min_value=0.1, max_value=5.0),
        gamma=st.floats(min_value=0.1, max_value=5.0),
        k=st.floats(min_value=0.2, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_supremum_attained_at_formula_maximizer(self, m, b, gamma, k):
        p = Model4Params(D=1.0, tau=1.0, b=b, gamma=gamma, k=k, k0=0.1, delta=0.5, m=m)
        u_star = k * ((m - 1.0) / (m + 1.0)) ** (1.0 / m)
        sup = p.alpha_sup
        assert p.a_prime(u_star) == pytest.approx(sup, rel=1e-12)
        # Nearby points must not exceed the supremum.
        for shift in (0.5, 0.9, 1.1, 2.0):
            assert p.a_prime(u_star * shift) <= sup * (1.0 + 1e-12)


class TestDriftPrimitives:
    def test_model1_closed_form_matches_quadrature(self):
        for u in (-1.5, -0.2, 0.4, 1.0, 3.0):
            closed = P1.drift_primitive(u)
            quad = P1.drift_primitive(u, method="quadrature")
            assert closed == pytest.approx(quad, rel=1e-8, abs=1e-9)

    def test_model2_closed_form_matches_quadrature(self):
        for z in (0.1, 0.7, 1.8, 4.0):
            closed = P2.drift_primitive(z)
            quad = P2.drift_primitive(z, method="quadrature")
            assert closed == pytest.approx(quad, rel=1e-8, abs=1e-9)

    def test_primitives_vanish_at_zero(self):
        assert P1.drift_primitive(0.0) == 0.0
        assert P2.drift_primitive(0.0) == 0.0
        assert P4.well_mixed_potential(1.0, 0.0) == 0.0

    def test_model1_derivative_recovers_drift(self):
        eps = 1e-6
        for u in (0.2, 0.9, 2.5):
            fd = (
                P1.drift_primitive(u + eps) - P1.drift_primitive(u - eps)
            ) / (2.0 * eps)
            assert fd == pytest.approx(P1.drift(u), rel=1e-8, abs=1e-9)

    def test_model2_derivative_recovers_drift(self):
        eps = 1e-6
        for z in (0.3, 1.2, 2.4):
            fd = (
                P2.drift_primitive(z + eps) - P2.drift_primitive(z - eps)
            ) / (2.0 * eps)
            assert fd == pytest.approx(P2.drift(z), rel=1e-8, abs=1e-9)

    @pytest.mark.parametrize(
        "primitive",
        [P1.drift_primitive, P2.drift_primitive, lambda x, method: P4.well_mixed_potential(1.0, x, method)],
        ids=["model1", "model2", "model4"],
    )
    @pytest.mark.parametrize("method", ["quadratur", "exact", "Auto", ""])
    def test_misspelt_method_refused(self, primitive, method):
        # a typo must not fall through to the closed form
        with pytest.raises(ParameterError, match="unknown potential method"):
            primitive(0.5, method=method)

    def test_drift_definitions(self):
        u = 0.8
        assert P1.drift(u) == pytest.approx(P1.h(u) - P1.k * P1.D * u, rel=1e-15)
        z = 1.4
        want = (1.0 - P2.D) * P2.h(z) - P2.alpha1 * P2.D * z
        assert P2.drift(z) == pytest.approx(want, rel=1e-15)


class TestOdePotential:
    def test_derivative_recovers_rhs(self):
        lam = 1.0
        eps = 1e-6
        for U in (0.05, 0.3, 0.7, 0.95):
            fd = (
                P4.well_mixed_potential(lam, U + eps) - P4.well_mixed_potential(lam, U - eps)
            ) / (2.0 * eps)
            assert fd == pytest.approx(P4.well_mixed_rhs(lam, U), rel=1e-7, abs=1e-9)

    def test_closed_form_matches_quadrature(self):
        lam = 0.8
        for U in (0.1, 0.4, 0.75):
            closed = P4.well_mixed_potential(lam, U)
            quad = P4.well_mixed_potential(lam, U, method="quadrature")
            assert closed == pytest.approx(quad, rel=1e-8, abs=1e-10)

    def test_general_m_falls_back_to_quadrature(self):
        lam = 0.6
        auto = P4_M3.well_mixed_potential(lam, 0.5)
        quad = P4_M3.well_mixed_potential(lam, 0.5, method="quadrature")
        assert auto == quad

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError):
            P4.well_mixed_potential(1.0, 0.5, method="exact")


class TestReactionRhs:
    def test_dispatch_matches_model_functions(self):
        # each model's f written out here, independently of its methods
        rng = np.random.default_rng(3)
        u = rng.uniform(0.0, 2.0, 17)
        v = rng.uniform(0.0, 2.0, 17)
        want1 = -P1.a * u / (u**2 + P1.b) + P1.k * v
        np.testing.assert_allclose(reaction_rhs(P1)(u, v), want1, rtol=1e-15)
        z = u + v
        want2 = -P2.alpha1 * z / (P2.alpha2 * z + 1.0) ** 2 + P2.alpha1 * v
        np.testing.assert_allclose(reaction_rhs(P2)(u, v), want2, rtol=1e-15)
        for p in (P4, P4_M3):
            want4 = v * p.b * (p.gamma * u**p.m / (p.k**p.m + u**p.m) + p.k0) - p.delta * u
            np.testing.assert_allclose(reaction_rhs(p)(u, v), want4, rtol=1e-15)

    # k^m for k = 0.051 (m = 3) and k = 2.759 (m = 2) differs in the last bit
    # between a numpy array power and Python's float power
    @pytest.mark.parametrize(
        "members",
        [
            [P1, Model1Params(D=0.5, tau=1.2, a=1.7, b=0.3, k=2.1), P1],
            [P2, Model2Params(D=0.3, tau=3.0, alpha1=1.9, alpha2=0.6)],
            [P4_M3, Model4Params(D=2.0, tau=0.5, b=1.1, gamma=0.7, k=0.051, k0=0.3, delta=0.8, m=3.0)],
            [P4, Model4Params(D=2.0, tau=0.5, b=1.1, gamma=0.7, k=2.759, k0=0.3, delta=1.7)],
        ],
        ids=["model1", "model2", "model4-m3", "model4"],
    )
    @pytest.mark.parametrize("shape", [(17,), (5, 6)])
    def test_stacked_members_get_their_own_bits(self, members, shape):
        rng = np.random.default_rng(4)
        u = rng.uniform(0.0, 2.0, (len(members),) + shape)
        v = rng.uniform(0.0, 2.0, (len(members),) + shape)
        stacked = reaction_rhs(StackedParams(members, len(shape)))(u, v)
        for i, p in enumerate(members):
            np.testing.assert_array_equal(stacked[i], reaction_rhs(p)(u[i], v[i]))

    def test_stacked_members_share_model_and_hill_exponent(self):
        with pytest.raises(ParameterError, match="one model"):
            StackedParams([P1, P2], 1)
        with pytest.raises(ParameterError, match="Hill exponent"):
            StackedParams([P4, P4_M3], 1)

    def test_model4_rhs_tolerates_roundoff_negatives(self):
        # The solver's explicit half may produce u ~ -1e-13; the Hill factor
        # clips to zero while the linear decay keeps acting on u itself.
        f = reaction_rhs(P4)
        u = np.array([-1e-13])
        v = np.array([0.5])
        out = f(u, v)
        want = 0.5 * P4.a0 - P4.delta * (-1e-13)
        assert out[0] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("p", [P1, P2, P4, P4_M3], ids=lambda p: p.name)
    def test_quasi_positivity_margins(self, p):
        lo, hi = quasi_positivity_margins(p, n_samples=5000)
        assert lo >= 0.0
        assert hi <= 0.0

    def test_model1_boundary_values(self):
        # f(0, v) = k v and f(u, 0) = -a u/(u^2+b) exactly.
        assert P1.f(0.0, 2.0) == pytest.approx(P1.k * 2.0, rel=1e-15)
        assert P1.f(1.0, 0.0) == pytest.approx(-P1.a / (1.0 + P1.b), rel=1e-15)


class TestAdaptiveSimpson:
    def test_polynomial_exact(self):
        got = _adaptive_simpson(lambda x: x * x, 0.0, 1.0, 1e-12)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_exponential(self):
        got = _adaptive_simpson(math.exp, 0.0, 1.0, 1e-12)
        assert got == pytest.approx(math.e - 1.0, abs=1e-10)

    def test_depth_exhaustion_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(QuadratureError):
            _adaptive_simpson(lambda x: rng.uniform(-1.0, 1.0), 0.0, 1.0, 1e-14, max_depth=6)
