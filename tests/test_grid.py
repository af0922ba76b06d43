"""Grid, quadrature, and Neumann-Laplacian tests.

Every nontrivial expectation is checked against an oracle that shares no
code with the package: dense stencil matrices assembled entry by entry,
``np.trapezoid``, and dense generalized eigensolves via ``scipy.linalg.eigh``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from polarsim import Field, Grid
from polarsim.errors import GridMismatchError, ParameterError
from polarsim.grid import (
    discrete_neumann_eigenvalue,
    neumann_eigenvalue,
    second_eigenvalue,
)
from polarsim.solver import _NeumannSolve


def dense_laplacian_1d(length: float, n: int) -> np.ndarray:
    """Mirror-ghost Neumann Laplacian assembled as an explicit dense matrix."""
    h = length / (n - 1)
    A = np.zeros((n, n))
    for i in range(1, n - 1):
        A[i, i - 1] = 1.0
        A[i, i] = -2.0
        A[i, i + 1] = 1.0
    A[0, 0] = A[-1, -1] = -2.0
    A[0, 1] = A[-1, -2] = 2.0
    return A / h**2


def dense_laplacian_2d(g: Grid) -> np.ndarray:
    """Kronecker sum of the per-axis dense matrices (row-major flattening)."""
    (lx, ly), (nx, ny) = g.lengths, g.counts
    ax = dense_laplacian_1d(lx, nx)
    ay = dense_laplacian_1d(ly, ny)
    return np.kron(ax, np.eye(ny)) + np.kron(np.eye(nx), ay)


class TestLaplacianStencil:
    def test_boundary_and_interior_rows(self):
        # On h = 1 the stencil produces small integers, so the comparison
        # against hand-written rows is exact.
        g = Grid.interval(4.0, 5)
        e0 = np.zeros(5)
        e0[0] = 1.0
        np.testing.assert_array_equal(g.laplacian(e0), [-2.0, 1.0, 0.0, 0.0, 0.0])
        e1 = np.zeros(5)
        e1[1] = 1.0
        np.testing.assert_array_equal(g.laplacian(e1), [2.0, -2.0, 1.0, 0.0, 0.0])
        e2 = np.zeros(5)
        e2[2] = 1.0
        np.testing.assert_array_equal(g.laplacian(e2), [0.0, 1.0, -2.0, 1.0, 0.0])
        e4 = np.zeros(5)
        e4[4] = 1.0
        np.testing.assert_array_equal(g.laplacian(e4), [0.0, 0.0, 0.0, 1.0, -2.0])

    def test_matches_dense_oracle_1d(self):
        rng = np.random.default_rng(41)
        for n in (5, 16, 33):
            g = Grid.interval(1.7, n)
            A = dense_laplacian_1d(1.7, n)
            f = rng.uniform(-2.0, 2.0, n)
            got = g.laplacian(f)
            want = A @ f
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-10)

    def test_matches_dense_oracle_2d(self):
        rng = np.random.default_rng(42)
        g = Grid.rectangle(1.0, 1.6, 7, 9)
        A = dense_laplacian_2d(g)
        f = rng.uniform(-1.0, 1.0, g.shape)
        got = g.laplacian(f).ravel()
        want = A @ f.ravel()
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-11)

    def test_annihilates_constants(self):
        g1 = Grid.interval(2.0, 40)
        assert np.all(g1.laplacian(np.full(40, 3.7)) == 0.0)
        g2 = Grid.rectangle(1.0, 2.0, 8, 12)
        assert np.all(g2.laplacian(np.full(g2.shape, -0.4)) == 0.0)

    @given(k=st.integers(min_value=1, max_value=6), n=st.integers(min_value=9, max_value=80))
    @settings(max_examples=40, deadline=None)
    def test_sampled_cosines_are_exact_eigenvectors(self, k, n):
        # cos(k pi x / L) sampled at the nodes is an exact eigenvector of the
        # discrete operator -- including the mirror rows -- with eigenvalue
        # mu_k^h = (2/h^2)(1 - cos(k pi h / L)).
        L = 1.3
        g = Grid.interval(L, n)
        h = L / (n - 1)
        x = g.coords()[0]
        v = np.cos(k * np.pi * x / L)
        mu = (2.0 / h**2) * (1.0 - math.cos(k * math.pi * h / L))
        np.testing.assert_allclose(g.laplacian(v), -mu * v, atol=1e-10 * mu)

    def test_second_order_convergence(self):
        # Neumann-compatible smooth profile (zero slope at both ends).
        L = 1.0

        def exact(x):
            return np.cos(np.pi * x / L) + 0.3 * np.cos(3 * np.pi * x / L)

        def exact_lap(x):
            return -((np.pi / L) ** 2) * np.cos(np.pi * x / L) - 0.3 * (
                3 * np.pi / L
            ) ** 2 * np.cos(3 * np.pi * x / L)

        errs = []
        for n in (65, 129, 257):
            g = Grid.interval(L, n)
            x = g.coords()[0]
            err = np.max(np.abs(g.laplacian(exact(x)) - exact_lap(x)))
            errs.append(err)
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 1.9


class TestQuadrature:
    def test_integral_matches_trapezoid_1d(self):
        rng = np.random.default_rng(5)
        g = Grid.interval(2.5, 41)
        f = rng.uniform(0.0, 3.0, 41)
        want = np.trapezoid(f, dx=g.spacings[0])
        assert g.integral(f) == pytest.approx(want, rel=1e-14)

    def test_integral_matches_nested_trapezoid_2d(self):
        rng = np.random.default_rng(6)
        g = Grid.rectangle(1.5, 0.8, 11, 14)
        f = rng.uniform(-1.0, 1.0, g.shape)
        hx, hy = g.spacings
        inner_y = np.trapezoid(f, dx=hy, axis=1)
        want = np.trapezoid(inner_y, dx=hx)
        assert g.integral(f) == pytest.approx(want, rel=1e-13, abs=1e-15)

    def test_mean_of_constant(self):
        g = Grid.rectangle(1.0, 3.0, 6, 7)
        assert g.mean(np.full(g.shape, 4.25)) == pytest.approx(4.25, rel=1e-15)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_deviation_is_mean_free(self, seed):
        rng = np.random.default_rng(seed)
        g = Grid.interval(1.0, 33)
        f = rng.uniform(-5.0, 5.0, 33)
        assert abs(g.mean(g.deviation(f))) < 1e-13

    def test_inner_is_integral_of_product(self):
        rng = np.random.default_rng(7)
        g = Grid.interval(1.9, 27)
        f = rng.uniform(-1.0, 1.0, 27)
        q = rng.uniform(-1.0, 1.0, 27)
        want = g.integral(f * q) / g.volume
        assert g.inner(f, q) == pytest.approx(want, rel=1e-14, abs=1e-16)

    def test_l2_norm_squares_to_inner(self):
        rng = np.random.default_rng(8)
        g = Grid.rectangle(1.0, 1.0, 9, 9)
        f = rng.uniform(-2.0, 2.0, g.shape)
        assert g.l2_norm(f) ** 2 == pytest.approx(g.inner(f, f), rel=1e-13)

    def test_linf_norm(self):
        g = Grid.interval(1.0, 5)
        f = np.array([0.1, -3.5, 2.0, 0.0, 1.0])
        assert g.linf_norm(f) == 3.5


class TestBilinearForms:
    def test_laplacian_self_adjoint_1d(self):
        rng = np.random.default_rng(11)
        g = Grid.interval(1.0, 64)
        for _ in range(50):
            f = rng.uniform(-1.0, 1.0, 64)
            q = rng.uniform(-1.0, 1.0, 64)
            a = g.inner(g.laplacian(f), q)
            b = g.inner(f, g.laplacian(q))
            assert abs(a - b) <= 1e-12 * (1.0 + abs(a) + abs(b))

    def test_laplacian_self_adjoint_2d(self):
        rng = np.random.default_rng(12)
        g = Grid.rectangle(1.0, 2.0, 13, 17)
        for _ in range(20):
            f = rng.uniform(-1.0, 1.0, g.shape)
            q = rng.uniform(-1.0, 1.0, g.shape)
            a = g.inner(g.laplacian(f), q)
            b = g.inner(f, g.laplacian(q))
            assert abs(a - b) <= 1e-12 * (1.0 + abs(a) + abs(b))

    def test_summation_by_parts(self):
        # dirichlet_form(f, g) == -<laplacian f, g>_W with no boundary
        # remainder: the trapezoid weights are exactly the ones that make the
        # mirror stencil summation-by-parts exact.
        rng = np.random.default_rng(13)
        for g in (Grid.interval(1.4, 48), Grid.rectangle(1.0, 0.7, 9, 12)):
            for _ in range(20):
                f = rng.uniform(-1.0, 1.0, g.shape)
                q = rng.uniform(-1.0, 1.0, g.shape)
                d = g.dirichlet_form(f, q)
                a = g.inner(g.laplacian(f), q)
                assert abs(d + a) <= 1e-12 * (1.0 + abs(d) + abs(a))

    def test_dirichlet_form_symmetric_and_psd(self):
        rng = np.random.default_rng(14)
        g = Grid.interval(2.0, 31)
        for _ in range(30):
            f = rng.uniform(-1.0, 1.0, 31)
            q = rng.uniform(-1.0, 1.0, 31)
            d1 = g.dirichlet_form(f, q)
            d2 = g.dirichlet_form(q, f)
            assert abs(d1 - d2) <= 1e-12 * (1.0 + abs(d1))
            assert g.dirichlet_form(f, f) >= 0.0

    def test_h1_seminorm_squares_to_dirichlet_form(self):
        rng = np.random.default_rng(15)
        g = Grid.rectangle(1.0, 1.0, 8, 8)
        f = rng.uniform(-1.0, 1.0, g.shape)
        assert g.h1_seminorm(f) ** 2 == pytest.approx(g.dirichlet_form(f, f), rel=1e-12)

    def test_dirichlet_form_of_constant_vanishes(self):
        g = Grid.interval(1.0, 12)
        assert g.dirichlet_form(np.full(12, 2.0), np.full(12, 5.0)) == 0.0


def dense_neumann_spectrum(g: Grid) -> np.ndarray:
    """All eigenvalues of -laplacian from a dense W-symmetric eigensolve.

    The operator A is self-adjoint in the W-weighted inner product, i.e.
    W A is a symmetric matrix, so ``eigh(-W A, W)`` is the right generalized
    problem and returns the spectrum of -A sorted ascending.
    """
    A = dense_laplacian_1d(*g.lengths, *g.counts) if g.dim == 1 else dense_laplacian_2d(g)
    W = np.diag(g.weights.ravel())
    WA = W @ A
    vals = eigh(-0.5 * (WA + WA.T), W, eigvals_only=True)
    return vals


class TestEigenvalues:
    def test_continuum_1d(self):
        g = Grid.interval(2.0, 10)
        assert neumann_eigenvalue(g, 1) == 0.0
        assert neumann_eigenvalue(g, 2) == pytest.approx((math.pi / 2.0) ** 2, rel=1e-15)
        assert neumann_eigenvalue(g, 5) == pytest.approx((4 * math.pi / 2.0) ** 2, rel=1e-15)

    def test_continuum_2d_unit_square(self):
        g = Grid.rectangle(1.0, 1.0, 5, 5)
        pi2 = math.pi**2
        assert neumann_eigenvalue(g, 1) == 0.0
        # (1,0) and (0,1) are degenerate, then (1,1).
        assert neumann_eigenvalue(g, 2) == pytest.approx(pi2, rel=1e-15)
        assert neumann_eigenvalue(g, 3) == pytest.approx(pi2, rel=1e-15)
        assert neumann_eigenvalue(g, 4) == pytest.approx(2 * pi2, rel=1e-15)

    def test_continuum_2d_rectangle_long_axis_wins(self):
        g = Grid.rectangle(1.0, 2.0, 5, 5)
        assert neumann_eigenvalue(g, 2) == pytest.approx((math.pi / 2.0) ** 2, rel=1e-15)

    def test_discrete_formula_1d(self):
        L, n = 1.3, 21
        g = Grid.interval(L, n)
        h = L / (n - 1)
        for j in (1, 2, 3, 7):
            want = (2.0 / h**2) * (1.0 - math.cos((j - 1) * math.pi * h / L))
            assert discrete_neumann_eigenvalue(g, j) == pytest.approx(want, rel=1e-14, abs=1e-14)

    def test_discrete_spectrum_matches_dense_eigensolve_1d(self):
        g = Grid.interval(1.0, 17)
        vals = dense_neumann_spectrum(g)
        assert abs(vals[0]) < 1e-9
        for j in range(1, 9):
            want = discrete_neumann_eigenvalue(g, j + 1)
            assert vals[j] == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_discrete_spectrum_matches_dense_eigensolve_2d(self):
        g = Grid.rectangle(1.0, 1.7, 9, 11)
        vals = dense_neumann_spectrum(g)
        for j in range(1, 7):
            want = discrete_neumann_eigenvalue(g, j + 1)
            assert vals[j] == pytest.approx(want, rel=1e-8, abs=1e-8)

    def test_one_spectrum_per_grid(self):
        # the implicit solve and the eigenvalue lookups read the same table
        for g in (Grid.interval(1.3, 21), Grid.rectangle(1.0, 1.7, 9, 11)):
            mu = g.spectrum
            assert mu is g.spectrum
            assert _NeumannSolve(g).mu is mu
            assert mu.shape == g.shape
            assert not mu.flags.writeable
            with pytest.raises(ValueError):
                mu.flat[0] = 1.0
            sorted_mu = np.sort(mu.ravel())
            for j in range(1, g.n_nodes + 1):
                assert discrete_neumann_eigenvalue(g, j) == sorted_mu[j - 1]

    def test_second_eigenvalue_dispatch(self):
        g = Grid.interval(1.0, 33)
        assert second_eigenvalue(g) == neumann_eigenvalue(g, 2)
        assert second_eigenvalue(g, "discrete") == discrete_neumann_eigenvalue(g, 2)
        with pytest.raises(ParameterError):
            second_eigenvalue(g, "exact")

    def test_discrete_approaches_continuum_at_second_order(self):
        # Doubling the resolution (h -> h/2 via n -> 2n - 1) should shrink
        # the mu_2 error by a factor close to 4.
        L = 1.0
        target = (math.pi / L) ** 2
        for n in (17, 33, 65):
            e_coarse = abs(second_eigenvalue(Grid.interval(L, n), "discrete") - target)
            e_fine = abs(second_eigenvalue(Grid.interval(L, 2 * n - 1), "discrete") - target)
            assert 3.7 < e_coarse / e_fine < 4.3

    def test_poincare_wirtinger_discrete(self):
        # dirichlet_form(f, f) >= mu_2^h * ||f - mean f||^2 for every field;
        # mu_2^h is the sharp constant, so only round-off slack is allowed.
        rng = np.random.default_rng(21)
        g = Grid.interval(1.0, 33)
        mu2h = second_eigenvalue(g, "discrete")
        for _ in range(1000):
            f = rng.uniform(-1.0, 1.0, 33)
            dev2 = g.l2_norm(g.deviation(f)) ** 2
            assert g.dirichlet_form(f, f) >= mu2h * dev2 * (1.0 - 1e-12) - 1e-14

    def test_poincare_wirtinger_sharp_on_second_mode(self):
        g = Grid.interval(1.0, 33)
        x = g.coords()[0]
        v = np.cos(np.pi * x)
        want = second_eigenvalue(g, "discrete") * g.l2_norm(g.deviation(v)) ** 2
        assert g.dirichlet_form(v, v) == pytest.approx(want, rel=1e-12)

    def test_index_validation(self):
        g = Grid.interval(1.0, 9)
        with pytest.raises(ParameterError):
            neumann_eigenvalue(g, 0)
        with pytest.raises(ParameterError):
            discrete_neumann_eigenvalue(g, 10)

    def test_eigenvalue_past_the_float_range_is_refused(self):
        g = Grid.interval(2.1e-154, 3)  # h^2 is a normal double, (pi / L)^2 is not
        with pytest.raises(ParameterError, match="overflows"):
            neumann_eigenvalue(g, 2)


class TestGridAndFieldValidation:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ParameterError):
            Grid((1.0, 1.0, 1.0), (4, 4, 4))

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ParameterError):
            Grid.interval(1.0, 2)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ParameterError):
            Grid.interval(0.0, 8)
        with pytest.raises(ParameterError):
            Grid.rectangle(1.0, -2.0, 5, 5)

    @pytest.mark.parametrize("lengths", [(1e-300,), (1.0, 1e-160)])
    def test_rejects_spacing_whose_inverse_square_leaves_the_float_range(self, lengths):
        with pytest.raises(ParameterError, match="spacing"):
            Grid(lengths, (5,) * len(lengths))

    def test_cached_geometry_keeps_equality_and_hash(self):
        g, fresh = Grid.rectangle(2.0, 3.0, 5, 7), Grid.rectangle(2.0, 3.0, 5, 7)
        assert (g.volume, g.spacings, g.n_nodes) == (6.0, (0.5, 0.5), 35)
        assert g == fresh and hash(g) == hash(fresh)

    def test_field_shape_mismatch(self):
        g = Grid.interval(1.0, 8)
        with pytest.raises(GridMismatchError):
            Field(g, np.zeros(9))

    def test_field_rejects_nan(self):
        g = Grid.interval(1.0, 4)
        with pytest.raises(ParameterError):
            Field(g, np.array([0.0, 1.0, np.nan, 2.0]))

    def test_laplacian_of_sampled_cosine_is_discrete_eigenpair(self):
        g = Grid.interval(1.0, 16)
        x = g.coords()[0]
        f = Field(g, np.cos(np.pi * x))
        mu2h = discrete_neumann_eigenvalue(g, 2)
        np.testing.assert_allclose(g.laplacian(f.values), -mu2h * f.values, rtol=0, atol=1e-10)

    def test_grid_equality_and_geometry(self):
        g = Grid.rectangle(1.0, 2.0, 5, 9)
        assert g == Grid.rectangle(1.0, 2.0, 5, 9)
        assert g != Grid.rectangle(1.0, 2.0, 5, 8)
        assert g.n_nodes == 45
        assert g.volume == pytest.approx(2.0)
        assert g.spacings == (0.25, 0.25)
        w = g.weights
        assert w.shape == (5, 9)
        # Weights integrate the constant 1 exactly to the (normalized) volume.
        assert np.sum(w) == pytest.approx(g.volume, rel=1e-14)

    def test_weights_built_once_and_read_only(self):
        for g in (Grid.interval(2.0, 9), Grid.rectangle(1.0, 2.0, 5, 9)):
            assert g.weights is g.weights
            arrays = (g.weights, *g.axis_weights)
            for w in arrays:
                assert not w.flags.writeable
                with pytest.raises(ValueError):
                    w[0] = 1.0
            h, n = g.spacings[0], g.counts[0]
            want = np.r_[0.5 * h, np.full(n - 2, h), 0.5 * h]
            assert np.array_equal(g.axis_weights[0], want)


@pytest.mark.parametrize("n", [3, 64, 257])
class TestOneDimensionalClosedForms:
    """The 1-D grid goes through the same code as 2-D and must give the
    closed 1-D forms bit for bit."""

    LENGTH = 1.3

    def test_weights_are_the_axis_weights(self, n):
        g = Grid.interval(self.LENGTH, n)
        h = self.LENGTH / (n - 1)
        want = np.full(n, h)
        want[0] = want[-1] = 0.5 * h
        assert np.array_equal(g.weights, want)
        assert g.weights.shape == (n,)

    def test_laplacian_is_the_second_difference(self, n):
        g = Grid.interval(self.LENGTH, n)
        h = self.LENGTH / (n - 1)
        a = np.random.default_rng(n).standard_normal(n)
        want = np.empty(n)
        want[1:-1] = a[2:] - 2.0 * a[1:-1] + a[:-2]
        want[0] = 2.0 * (a[1] - a[0])
        want[-1] = 2.0 * (a[-2] - a[-1])
        assert np.array_equal(g.laplacian(a), want / (h * h))

    def test_continuum_eigenvalues(self, n):
        g = Grid.interval(self.LENGTH, n)
        for j in range(1, n + 1):
            assert neumann_eigenvalue(g, j) == ((j - 1) * math.pi / self.LENGTH) ** 2

    def test_discrete_eigenvalues(self, n):
        g = Grid.interval(self.LENGTH, n)
        h = self.LENGTH / (n - 1)
        want = np.sort((2.0 / (h * h)) * (1.0 - np.cos(np.pi * np.arange(n) * h / self.LENGTH)))
        assert [discrete_neumann_eigenvalue(g, j) for j in range(1, n + 1)] == list(want)
        with pytest.raises(ParameterError, match=f"only {n} eigenvalues"):
            discrete_neumann_eigenvalue(g, n + 1)
