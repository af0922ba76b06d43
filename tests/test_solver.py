"""Time-stepper tests: exactness on model problems, conservation, orders.

The sharp per-mode amplification factors of the two schemes on the pure
heat problem serve as closed-form oracles; manufactured solutions with a
source term provide the convergence-order measurements; conservation and
positivity are checked as structural invariants.
"""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from polarsim import Field, Grid, Model1Params, Model2Params, Model4Params, solve_equilibrium, solver
from polarsim.errors import ConfigError, ParameterError, SolverError
from polarsim.kinetics import reaction_rhs
from polarsim.tables import BLOCK_ROWS
from polarsim.solver import (
    SCHEMES,
    _accepted,
    _extrema,
    _NeumannSolve,
    RunResult,
    SimState,
    SolverConfig,
    default_dt,
    read_snapshot,
    run,
    write_snapshot,
)

STD = Model4Params(D=4.0, tau=1.0, b=1.0, gamma=1.0, k=1.0, k0=0.1, delta=1.0)
HEAT = Model4Params(D=1.3, tau=2.0, b=0.0, gamma=1.0, k=1.0, k0=0.1, delta=0.0)
MMS = Model4Params(D=0.5, tau=1.2, b=1.0, gamma=1.0, k=1.0, k0=0.1, delta=0.8)


def cosine_ic(g: Grid, base_u: float, base_v: float, amp: float = 0.1, mode: int = 1):
    x = g.coords()[0]
    u = base_u * (1.0 + amp * np.cos(mode * np.pi * x / g.lengths[0]))
    v = np.full(g.shape, base_v)
    return Field(g, u), Field(g, v)


class TestSolverConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            SolverConfig(t_end=1.0, scheme="rk4")
        with pytest.raises(ConfigError):
            SolverConfig(t_end=0.0)
        with pytest.raises(ConfigError):
            SolverConfig(t_end=1.0, dt=-0.1)
        with pytest.raises(ConfigError):
            SolverConfig(t_end=1.0, stride=0)
        with pytest.raises(ConfigError):
            SolverConfig(t_end=1.0, retry_limit=-1)
        for bad in (math.inf, math.nan):
            with pytest.raises(ConfigError, match="t_end"):
                SolverConfig(t_end=bad)
            with pytest.raises(ConfigError, match="dt"):
                SolverConfig(t_end=1.0, dt=bad)

    def test_scheme_case_insensitive(self):
        assert SolverConfig(t_end=1.0, scheme="IMEX-BE").scheme == "imex-be"

    def test_default_dt_formula(self):
        g = Grid.interval(1.0, 65)
        h2 = (1.0 / 64) ** 2
        want = 0.125 * min(h2 / (2.0 * STD.D), STD.tau * h2 / 2.0)
        assert default_dt(g, STD) == pytest.approx(want, rel=1e-15)

    def test_t_end_must_divide_into_steps(self):
        g = Grid.interval(1.0, 17)
        ic = cosine_ic(g, 0.1, 0.9)
        with pytest.raises(ConfigError, match="integer number of steps"):
            run(ic, STD, SolverConfig(t_end=1.0, dt=0.3))

    def test_n_steps_bookkeeping(self):
        g = Grid.interval(1.0, 17)
        ic = cosine_ic(g, 0.1, 0.9)
        res = run(ic, STD, SolverConfig(t_end=1.0, dt=0.25, stride=2))
        assert res.n_steps == 4
        assert res.final_state.t == pytest.approx(1.0, rel=1e-12)


class TestStateValidation:
    def test_initial_fields_share_grid(self):
        g1, g2 = Grid.interval(1.0, 17), Grid.interval(1.0, 33)
        u = Field(g1, np.full(17, 0.5))
        v = Field(g2, np.full(33, 0.5))
        with pytest.raises(ParameterError):
            run((u, v), STD, SolverConfig(t_end=0.1, dt=0.05))

    def test_negative_initial_data_rejected(self):
        g = Grid.interval(1.0, 17)
        u = Field(g, np.linspace(-0.01, 1.0, 17))
        v = Field(g, np.full(17, 0.5))
        with pytest.raises(ParameterError, match="nonnegative"):
            run((u, v), STD, SolverConfig(t_end=0.1, dt=0.05))

    def test_identically_zero_data_rejected(self):
        g = Grid.interval(1.0, 17)
        z = Field(g, np.zeros(17))
        with pytest.raises(ParameterError, match="vanish"):
            run((z, z.copy()), STD, SolverConfig(t_end=0.1, dt=0.05))

    def test_batch_members_must_share_grid(self):
        ic = [
            (Field(g, np.full(17, 0.5)), Field(g, np.full(17, 0.5)))
            for g in (Grid.interval(1.0, 17), Grid.interval(2.0, 17))
        ]
        with pytest.raises(ParameterError, match="must share grid, dt, model and Hill exponent"):
            run(ic, [STD, STD], SolverConfig(t_end=0.1, dt=0.05))

    def test_simstate_grid_consistency(self):
        g1, g2 = Grid.interval(1.0, 17), Grid.interval(2.0, 17)
        with pytest.raises(ParameterError):
            SimState(0.0, Field(g1, np.zeros(17)), Field(g2, np.zeros(17)))


class TestTransforms:
    def test_tau_w_plus_xi_u_recovers_mass_density(self):
        # tau w + xi u = u + tau v pointwise when xi = 1 - tau D.
        g = Grid.interval(1.0, 33)
        rng = np.random.default_rng(2)
        s = SimState(0.0, Field(g, rng.uniform(0, 1, 33)), Field(g, rng.uniform(0, 1, 33)))
        w = STD.D * s.u.values + s.v.values
        lhs = STD.tau * w + STD.xi * s.u.values
        np.testing.assert_allclose(lhs, s.u.values + STD.tau * s.v.values, rtol=1e-13)

    def test_model2_combination(self):
        # xi z + w = alpha (u + tau v) for the tau != 1 coefficients.
        p = Model2Params(D=0.4, tau=2.0, alpha1=1.0, alpha2=1.0)
        g = Grid.interval(1.0, 33)
        rng = np.random.default_rng(3)
        s = SimState(0.0, Field(g, rng.uniform(0, 1, 33)), Field(g, rng.uniform(0, 1, 33)))
        lhs = p.xi * (s.u.values + s.v.values) + (p.D * s.u.values + s.v.values)
        rhs = p.alpha * (s.u.values + p.tau * s.v.values)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13)


class TestEquilibriumFixedPoint:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_constant_state_is_stationary(self, scheme):
        eq = solve_equilibrium(STD, 1.0)
        g = Grid.interval(1.0, 65)
        u = Field(g, np.full(65, eq.u_star))
        v = Field(g, np.full(65, eq.v_star))
        cfg = SolverConfig(t_end=1.0, dt=0.002, scheme=scheme, stride=100)
        res = run((u, v), STD, cfg)
        assert np.max(np.abs(res.final_state.u.values - eq.u_star)) < 1e-12
        assert np.max(np.abs(res.final_state.v.values - eq.v_star)) < 1e-12


class TestHeatAmplification:
    """b = delta = 0 turns the system into two decoupled heat equations,
    where each discrete cosine mode is damped by a closed-form factor per
    step; the numerical solution must match that factor to round-off."""

    L, N_NODES, DT, N_STEPS = 1.0, 65, 0.01, 50

    def _run(self, scheme):
        g = Grid.interval(self.L, self.N_NODES)
        x = g.coords()[0]
        u0 = 1.0 + 0.1 * np.cos(2 * np.pi * x / self.L)
        v0 = 0.8 + 0.05 * np.cos(3 * np.pi * x / self.L)
        cfg = SolverConfig(
            t_end=self.N_STEPS * self.DT, dt=self.DT, scheme=scheme, stride=1000
        )
        res = run((Field(g, u0), Field(g, v0)), HEAT, cfg)
        h = self.L / (self.N_NODES - 1)
        mu_u = (2 / h**2) * (1 - math.cos(2 * math.pi * h / self.L))
        mu_v = (2 / h**2) * (1 - math.cos(3 * math.pi * h / self.L))
        return g, x, res, mu_u, mu_v

    def test_backward_euler_factor(self):
        g, x, res, mu_u, mu_v = self._run("imex-be")
        rho_u = 1.0 / (1.0 + self.DT * HEAT.D * mu_u)
        rho_v = 1.0 / (1.0 + (self.DT / HEAT.tau) * mu_v)
        ue = 1.0 + 0.1 * rho_u**self.N_STEPS * np.cos(2 * np.pi * x / self.L)
        ve = 0.8 + 0.05 * rho_v**self.N_STEPS * np.cos(3 * np.pi * x / self.L)
        assert np.max(np.abs(res.final_state.u.values - ue)) < 1e-13
        assert np.max(np.abs(res.final_state.v.values - ve)) < 1e-13

    def test_trapezoid_factor(self):
        g, x, res, mu_u, mu_v = self._run("imex-cn")
        au = 0.5 * self.DT * HEAT.D
        av = 0.5 * self.DT / HEAT.tau
        rho_u = (1 - au * mu_u) / (1 + au * mu_u)
        rho_v = (1 - av * mu_v) / (1 + av * mu_v)
        ue = 1.0 + 0.1 * rho_u**self.N_STEPS * np.cos(2 * np.pi * x / self.L)
        ve = 0.8 + 0.05 * rho_v**self.N_STEPS * np.cos(3 * np.pi * x / self.L)
        assert np.max(np.abs(res.final_state.u.values - ue)) < 1e-13
        assert np.max(np.abs(res.final_state.v.values - ve)) < 1e-13


class TestMassConservation:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_1d_drift(self, scheme):
        g = Grid.interval(1.0, 129)
        ic = cosine_ic(g, 0.0989, 0.9, amp=0.1)
        cfg = SolverConfig(t_end=10.0, dt=0.002, scheme=scheme, stride=500)
        res = run(ic, STD, cfg)  # 5000 steps
        lam = [r.lam for r in res.records]
        drift = max(abs(x - res.lam0) for x in lam) / res.lam0
        assert drift < 1e-11

    def test_2d_drift(self):
        g = Grid.rectangle(1.0, 1.0, 24, 24)
        X, Y = g.meshgrid()
        u0 = 0.1 * (1.0 + 0.1 * np.cos(np.pi * X) * np.cos(np.pi * Y))
        v0 = np.full(g.shape, 0.9)
        cfg = SolverConfig(t_end=2.0, dt=0.002, scheme="imex-cn", stride=200)
        res = run((Field(g, u0), Field(g, v0)), STD, cfg)  # 1000 steps
        lam = [r.lam for r in res.records]
        drift = max(abs(x - res.lam0) for x in lam) / res.lam0
        assert drift < 1e-10

    def test_2d_drift_long_run(self):
        # 2e4 steps through the dense DCT-I products: a rounding bias of
        # the transform pair would accumulate past the bound here
        g = Grid.rectangle(1.0, 1.0, 33, 33)
        X, Y = g.meshgrid()
        u0 = 0.1 * (1.0 + 0.1 * np.cos(np.pi * X) * np.cos(np.pi * Y))
        v0 = np.full(g.shape, 0.9)
        cfg = SolverConfig(t_end=40.0, dt=0.002, scheme="imex-cn", stride=1000)
        res = run((Field(g, u0), Field(g, v0)), STD, cfg)
        assert res.n_steps == 20000
        drift = max(abs(r.lam - res.lam0) for r in res.records) / res.lam0
        assert drift < 1e-10, f"mass drift {drift:.3e}"

    def test_drift_flat_at_large_n(self):
        # 1e4 steps on n = 4097: any systematic rounding bias in the solve
        # accumulates past the bound here
        g = Grid.interval(1.0, 4097)
        ic = cosine_ic(g, 0.0989, 0.9, amp=0.1)
        cfg = SolverConfig(t_end=100.0, dt=0.01, scheme="imex-cn", stride=1000)
        res = run(ic, STD, cfg)
        drift = max(abs(r.lam - res.lam0) for r in res.records) / res.lam0
        assert drift <= 1e-10, f"mass drift {drift:.3e}"

    def test_other_models_conserve_too(self):
        g = Grid.interval(1.0, 65)
        x = g.coords()[0]
        u0 = Field(g, 0.5 + 0.2 * np.cos(np.pi * x))
        v0 = Field(g, 0.7 + 0.1 * np.cos(2 * np.pi * x))
        for p in (
            Model1Params(D=0.4, tau=1.0, a=1.0, b=1.0, k=1.0),
            Model2Params(D=0.4, tau=2.0, alpha1=1.0, alpha2=1.0),
        ):
            res = run((u0, v0), p, SolverConfig(t_end=1.0, dt=0.002, stride=100))
            lam = [r.lam for r in res.records]
            assert max(abs(x - res.lam0) for x in lam) / res.lam0 < 1e-11


def dense_neumann_laplacian(g: Grid) -> np.ndarray:
    """Mirror-ghost Laplacian as a dense matrix on the row-major node order.

    Each column is the three-point stencil applied to a unit vector, with
    the ghost values u_{-1} = u_1 and u_n = u_{n-2} folded in.
    """
    per_axis = []
    for L, n in zip(g.lengths, g.counts):
        h2 = (L / (n - 1)) ** 2
        A = np.zeros((n, n))
        for j in range(n):
            A[j, j] = -2.0 / h2
            for i in (j - 1, j + 1):
                if 0 <= i < n:
                    A[i, j] += 1.0 / h2
            if j == 1:
                A[0, j] += 1.0 / h2
            if j == n - 2:
                A[n - 1, j] += 1.0 / h2
        per_axis.append(A)
    if g.dim == 1:
        return per_axis[0]
    nx, ny = g.counts
    return np.kron(per_axis[0], np.eye(ny)) + np.kron(np.eye(nx), per_axis[1])


def dense_solve(g: Grid, alpha: float, rhs: np.ndarray) -> np.ndarray:
    A = dense_neumann_laplacian(g)
    x = np.linalg.solve(np.eye(g.n_nodes) - alpha * A, rhs.ravel())
    return x.reshape(g.shape)


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


ORACLE_GRIDS = [
    Grid.interval(1.0, 3),
    Grid.interval(2.5, 14),  # n - 1 = 13 is prime
    Grid.interval(1.0, 257),
    Grid.rectangle(1.0, 1.7, 7, 12),
    Grid.rectangle(2.0, 0.7, 14, 3),  # nx != ny, nx - 1 = 13 prime, 3-node axis
    Grid.rectangle(3.0, 0.4, 262, 4),  # one axis on each side of DENSE_AXIS_MAX
]
GRID_IDS = lambda g: "x".join(map(str, g.counts))  # noqa: E731

BLAS_BITS_SCRIPT = """
import hashlib, numpy as np
from polarsim.grid import Grid
from polarsim.solver import _NeumannSolve
for g in (Grid.rectangle(1.0, 1.3, 128, 128), Grid.interval(1.0, 256)):
    solve = _NeumannSolve(g)
    rhs = np.random.default_rng(21).uniform(0.1, 1.0, size=(2, 2, *g.shape))
    out = solve(rhs, solve.factors([(0.004, 0.002), (0.3, 0.05)]))
    print(hashlib.sha256(out.tobytes()).hexdigest())
"""


class _SolveOracles:
    """The spectral solve against a dense assembly of the stencil."""

    @pytest.mark.parametrize("g", ORACLE_GRIDS, ids=GRID_IDS)
    def test_matches_dense_solve(self, g):
        rng = np.random.default_rng(11)
        rhs = rng.uniform(0.1, 1.0, size=(2, *g.shape))
        alphas = (0.004, 0.3)
        solve = _NeumannSolve(g)
        got = solve(rhs, solve.factors(alphas))
        assert got.shape == rhs.shape
        for i, alpha in enumerate(alphas):
            assert rel_err(got[i], dense_solve(g, alpha, rhs[i])) <= 1e-12

    @pytest.mark.parametrize("g", ORACLE_GRIDS, ids=GRID_IDS)
    def test_stacked_solve_equals_single_solves(self, g):
        # sweep members get the bits of their solo runs only if a member's
        # slice of a batched solve does not depend on its batchmates
        rng = np.random.default_rng(17)
        rhs = rng.uniform(0.1, 1.0, size=(3, 2, *g.shape))
        solve = _NeumannSolve(g)
        factors = solve.factors([(0.004, 0.002), (0.05, 0.01), (0.3, 0.2)])
        got = solve(rhs, factors)
        for b in range(3):
            np.testing.assert_array_equal(got[b], solve(rhs[b : b + 1], factors[b : b + 1])[0])

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("g", ORACLE_GRIDS, ids=GRID_IDS)
    def test_step_matches_stencil_form(self, g, scheme):
        # one step from rest of the AB2 history: the reaction enters as
        # r = f(u, v), and CN is S_a(u + a lap u + dt r) with a = dt D / 2
        rng = np.random.default_rng(5)
        u = rng.uniform(0.05, 0.15, size=g.shape)
        v = rng.uniform(0.8, 1.0, size=g.shape)
        dt = 0.01
        cfg = SolverConfig(t_end=dt, dt=dt, scheme=scheme)
        out = run((Field(g, u), Field(g, v)), STD, cfg).final_state
        r = reaction_rhs(STD)(u, v)
        cn = scheme == "imex-cn"
        a = 0.5 * dt if cn else dt
        A = dense_neumann_laplacian(g)
        for got, x, alpha, src in (
            (out.u.values, u, a * STD.D, dt * r),
            (out.v.values, v, a / STD.tau, -(dt / STD.tau) * r),
        ):
            lap_x = (A @ x.ravel()).reshape(g.shape)
            rhs = x + alpha * lap_x + src if cn else x + src
            assert rel_err(got, dense_solve(g, alpha, rhs)) <= 1e-12


class TestNeumannSolve(_SolveOracles):
    """The oracles with each axis kind as ``DENSE_AXIS_MAX`` chooses it, and the choice itself."""

    def test_dense_stencil_matches_grid_laplacian(self):
        # guards the oracle itself: same operator as the grid's stencil
        for g in ORACLE_GRIDS:
            f = np.random.default_rng(3).uniform(size=g.shape)
            want = (dense_neumann_laplacian(g) @ f.ravel()).reshape(g.shape)
            assert rel_err(g.laplacian(f), want) <= 1e-12

    def test_axis_kind_follows_the_grid_shape(self):
        # the dense product costs O(n^2) per row: at n = 4097 it would take
        # test_drift_flat_at_large_n from seconds to minutes; a square grid
        # has as many rows per member as columns, and stays dense
        n = solver.DENSE_AXIS_MAX
        for counts, dense in (
            ((4097,), [False]),
            ((n,), [True]),
            ((n + 1,), [False]),
            ((n + 1, n), [False, True]),
            ((3, 4 * n), [True, False]),
            ((n + 44, n + 44), [True, True]),
        ):
            axes = _NeumannSolve(Grid((1.0,) * len(counts), counts)).forward_axes
            assert [a.dense for a in sorted(axes, key=lambda a: a.axis)] == dense

    def test_2d_solve_bits_independent_of_blas_threads(self):
        # reruns are bit-identical only if the dense products are: compare
        # fresh interpreters with one, two and the default BLAS threads, on
        # a 2-D grid and on a dense 1-D axis
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        digests = set()
        for threads in ("1", "2", None):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = subprocess.run(
                [sys.executable, "-c", BLAS_BITS_SCRIPT],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1, digests


class TestNeumannSolveForcedAxisKind(_SolveOracles):
    """The oracles with every axis dense, then with every axis on the rfft
    that can be: a 1-D axis, and the longer axis of a 2-D grid."""

    @pytest.fixture(autouse=True, params=["dense", "fft"])
    def axis_kind(self, request, monkeypatch):
        monkeypatch.setattr(solver, "DENSE_AXIS_MAX", {"dense": 10**9, "fft": 0}[request.param])


def manufactured_setup(g: Grid):
    """Exact fields, and the source that makes them solve the system."""
    L = g.lengths[0]
    x = g.coords()[0]
    c1, c2 = np.cos(np.pi * x / L), np.cos(2 * np.pi * x / L)
    k1, k2 = (math.pi / L) ** 2, (2 * math.pi / L) ** 2
    f = reaction_rhs(MMS)

    def exact(t):
        return 0.6 + 0.25 * c1 * math.exp(-t), 0.5 + 0.2 * c2 * math.exp(-0.5 * t)

    def source(t):
        e1, e2 = math.exp(-t), math.exp(-0.5 * t)
        u = 0.6 + 0.25 * c1 * e1
        v = 0.5 + 0.2 * c2 * e2
        fv = f(u, v)
        su = -0.25 * c1 * e1 - MMS.D * (-k1 * 0.25 * c1 * e1) - fv
        sv = MMS.tau * (-0.1 * c2 * e2) - (-k2 * 0.2 * c2 * e2) + fv
        return su, sv

    return exact, source


class TestManufacturedOrders:
    def test_spatial_order(self):
        errs = []
        for n in (17, 33, 65):
            g = Grid.interval(1.0, n)
            exact, source = manufactured_setup(g)
            u0, v0 = exact(0.0)
            cfg = SolverConfig(t_end=0.05, dt=1e-4, scheme="imex-be", stride=1000)
            res = run((Field(g, u0), Field(g, v0)), MMS, cfg, source=source)
            ue, ve = exact(0.05)
            errs.append(
                max(
                    np.max(np.abs(res.final_state.u.values - ue)),
                    np.max(np.abs(res.final_state.v.values - ve)),
                )
            )
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 1.9

    def test_backward_euler_time_order(self):
        g = Grid.interval(1.0, 129)
        exact, source = manufactured_setup(g)
        errs = []
        for dt in (0.02, 0.01, 0.005):
            u0, v0 = exact(0.0)
            cfg = SolverConfig(t_end=0.2, dt=dt, scheme="imex-be", stride=1000)
            res = run((Field(g, u0), Field(g, v0)), MMS, cfg, source=source)
            ue, ve = exact(0.2)
            errs.append(
                max(
                    np.max(np.abs(res.final_state.u.values - ue)),
                    np.max(np.abs(res.final_state.v.values - ve)),
                )
            )
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(0.9 < o < 1.1 for o in orders)

    def test_trapezoid_time_order(self):
        # Successive-dt differences on one grid cancel the fixed spatial
        # error, isolating the temporal order of the trapezoid/AB2 pairing.
        g = Grid.interval(1.0, 129)
        exact, source = manufactured_setup(g)
        sols = {}
        for dt in (0.04, 0.02, 0.01, 0.005):
            u0, v0 = exact(0.0)
            cfg = SolverConfig(t_end=0.2, dt=dt, scheme="imex-cn", stride=1000)
            res = run((Field(g, u0), Field(g, v0)), MMS, cfg, source=source)
            sols[dt] = res.final_state.u.values.copy()
        ds = [0.04, 0.02, 0.01, 0.005]
        diffs = [float(np.max(np.abs(sols[a] - sols[b]))) for a, b in zip(ds, ds[1:])]
        orders = [math.log2(diffs[i] / diffs[i + 1]) for i in range(2)]
        assert min(orders) > 1.9


class TestSymmetryAndPositivity:
    def test_mirror_symmetry_preserved(self):
        # Data even about x = L/2 stays even: the stencil and the solves
        # commute with the reflection up to round-off.
        g = Grid.interval(1.0, 64)
        x = g.coords()[0]
        u0 = Field(g, 0.1 * (1.0 + 0.1 * np.cos(2 * np.pi * x)))
        v0 = Field(g, np.full(64, 0.9))
        res = run((u0, v0), STD, SolverConfig(t_end=1.0, dt=0.002, stride=100))
        u = res.final_state.u.values
        v = res.final_state.v.values
        assert np.max(np.abs(u - u[::-1])) < 1e-11
        assert np.max(np.abs(v - v[::-1])) < 1e-11

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_negativity_triggers_step_bisection(self, scheme):
        # delta dt = 2 would annihilate u in one explicit step; bisected
        # substeps keep the state in the admissible cone and the run
        # completes with the mass intact.
        g = Grid.interval(1.0, 33)
        x = g.coords()[0]
        u0 = Field(g, 1e-6 * (1.0 + 0.5 * np.cos(np.pi * x)))
        v0 = Field(g, np.zeros(33))
        p = Model4Params(D=1.0, tau=1.0, b=1.0, gamma=1.0, k=1.0, k0=0.1, delta=1.0)
        cfg = SolverConfig(t_end=4.0, dt=2.0, scheme=scheme, retry_limit=20, stride=1)
        res = run((u0, v0), p, cfg)
        scale = max(1.0, float(np.max(np.abs(res.final_state.u.values))))
        assert float(np.min(res.final_state.u.values)) >= -1e-9 * scale
        lam = [r.lam for r in res.records]
        assert max(abs(x - res.lam0) for x in lam) / abs(res.lam0) < 1e-9

    def test_retry_exhaustion_raises_with_partial_output(self):
        g = Grid.interval(1.0, 33)
        x = g.coords()[0]
        u0 = Field(g, 1e-6 * (1.0 + 0.5 * np.cos(np.pi * x)))
        v0 = Field(g, np.zeros(33))
        p = Model4Params(D=1.0, tau=1.0, b=1.0, gamma=1.0, k=1.0, k0=0.1, delta=1.0)
        cfg = SolverConfig(t_end=4.0, dt=2.0, retry_limit=0, stride=1)
        with pytest.raises(SolverError, match="negativity") as exc_info:
            run((u0, v0), p, cfg)
        exc = exc_info.value
        assert hasattr(exc, "partial_records")
        assert len(exc.partial_records) >= 1
        assert exc.partial_records[0].t == 0.0

    def test_failure_carries_last_recorded_state(self):
        # a sink that drives u negative from t = 0.05 on stops the run there
        g = Grid.interval(1.0, 17)
        ic = cosine_ic(g, 0.1, 0.9)
        sink = np.full(17, -1e3)

        def source(t):
            return (sink if t >= 0.05 - 1e-12 else np.zeros(17)), np.zeros(17)

        seen = []
        cfg = SolverConfig(t_end=0.1, dt=0.01, retry_limit=0, stride=2)
        with pytest.raises(SolverError, match="negativity") as exc_info:
            run(ic, STD, cfg, on_record=lambda state, rec: seen.append(state), source=source)
        exc = exc_info.value
        assert [r.t for r in exc.partial_records] == [s.t for s in seen] == [0.0, 0.02, 0.04]
        assert exc.partial_state is seen[-1]
        assert np.min(exc.partial_state.u.values) > 0.0

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nonfinite_state_detected(self):
        g = Grid.interval(1.0, 17)
        ic = cosine_ic(g, 0.1, 0.9)

        def bad_source(t):
            return np.full(17, np.inf), np.zeros(17)

        cfg = SolverConfig(t_end=0.1, dt=0.05, stride=1)
        with pytest.raises(SolverError, match="non-finite"):
            run(ic, STD, cfg, source=bad_source)

    @pytest.mark.parametrize(
        "bad,ok", [(np.nan, False), (np.inf, False), (-np.inf, False), (-1e-3, False), (-1e-10, True)]
    )
    def test_guard_rejects_only_the_member_with_a_bad_entry(self, bad, ok):
        # floor = -1e-9 * max(1, max|start state|) = -2e-9 for the middle member
        x = np.full((3, 2, 5), 0.5)
        x[1, 0, 0] = 2.0
        x2 = x.copy()
        x2[1, 1, 3] = bad
        assert _accepted(_extrema(x), _extrema(x2)).tolist() == [True, ok, True]

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_one_nonfinite_entry_exhausts_retries(self, bad):
        g = Grid.interval(1.0, 17)
        ic = cosine_ic(g, 0.1, 0.9)

        def source(t):
            su = np.zeros(17)
            su[5] = bad
            return su, np.zeros(17)

        cfg = SolverConfig(t_end=0.1, dt=0.05, stride=1, retry_limit=2)
        with pytest.raises(SolverError, match=r"^state turned non-finite at t = 0 \(dt-halving"):
            run(ic, STD, cfg, source=source)

    def test_one_negative_entry_halves_the_step(self):
        # one node pushed down at t = 0 only: below the floor after dt, not after dt/2
        g = Grid.interval(1.0, 17)
        ic = cosine_ic(g, 0.1, 0.9)

        def source(t):
            su = np.zeros(17)
            if t == 0.0:
                su[5] = -30.0
            return su, np.zeros(17)

        def cfg(dt, retry_limit):
            return SolverConfig(t_end=0.05, dt=dt, stride=1, retry_limit=retry_limit)

        with pytest.raises(SolverError, match=r"^negativity persisted at t = 0 "):
            run(ic, STD, cfg(0.05, 0), source=source)
        halved = run(ic, STD, cfg(0.05, 1), source=source).final_state
        two_steps = run(ic, STD, cfg(0.025, 0), source=source).final_state
        np.testing.assert_array_equal(halved.u.values, two_steps.u.values)
        np.testing.assert_array_equal(halved.v.values, two_steps.v.values)


    @pytest.mark.parametrize(
        "g", [Grid.interval(1.0, 16), Grid.rectangle(1.0, 1.5, 6, 9)], ids=["1d", "2d"]
    )
    def test_member_out_of_retries_after_a_rejoin_spares_its_batchmates(self, g):
        # imex-cn, one retry: delta = 20 halves its step at t = 0.08 and rejoins;
        # a sink pulse on [0.4, 0.44) makes 30 and 26 halve, and 30 runs out of
        # retries while 26 rejoins with an Euler bootstrap of its AB2 history
        X = g.meshgrid()[0]
        ic = (Field(g, 0.5 + 0.2 * np.cos(np.pi * X)), Field(g, np.full(g.shape, 0.5)))
        zero, sink = np.zeros(g.shape), np.full(g.shape, -0.11)

        def source(t):
            return (sink if 0.4 <= t < 0.44 else zero), zero

        cfg = SolverConfig(t_end=0.8, dt=0.04, scheme="imex-cn", stride=5, retry_limit=1)
        ps = [replace(STD, delta=d) for d in (0.5, 20.0, 1.5, 30.0, 26.0)]
        batch = run([ic] * len(ps), ps, cfg, source=source)
        assert isinstance(batch[3], SolverError)
        assert str(batch[3]).startswith("negativity persisted at t = 0.42 ")
        for p, got in zip(ps[:3] + ps[4:], batch[:3] + batch[4:]):
            want = run(ic, p, cfg, source=source)
            np.testing.assert_array_equal(got.final_state.u.values, want.final_state.u.values)
            np.testing.assert_array_equal(got.final_state.v.values, want.final_state.v.values)
            np.testing.assert_array_equal(
                [r.row() for r in got.records], [r.row() for r in want.records]
            )


class TestStepAndResult:
    def test_run_result_contents(self):
        g = Grid.interval(1.0, 33)
        ic = cosine_ic(g, 0.0989, 0.9)
        res = run(ic, STD, SolverConfig(t_end=0.1, dt=0.01, stride=5))
        assert isinstance(res, RunResult)
        # records at t = 0, 0.05, 0.1
        assert [pytest.approx(r.t, abs=1e-12) for r in res.records] == [0.0, 0.05, 0.1]
        assert res.equilibrium is not None
        assert res.lam0 == pytest.approx(
            g.mean(ic[0].values + STD.tau * ic[1].values), rel=1e-14
        )
        assert list(res.pairing.times) == [r.t for r in res.records]
        assert len(res.pairing.running) == len(res.records)
        assert math.isnan(res.v_norm_sup)  # no record at t >= 1

    def test_heat_run_has_no_equilibrium(self):
        g = Grid.interval(1.0, 17)
        ic = cosine_ic(g, 1.0, 0.5)
        res = run(ic, HEAT, SolverConfig(t_end=0.1, dt=0.01, stride=5))
        assert res.equilibrium is None

    def test_on_record_callback_sees_every_emission(self):
        g = Grid.interval(1.0, 17)
        ic = cosine_ic(g, 0.1, 0.9)
        seen = []
        run(
            ic,
            STD,
            SolverConfig(t_end=0.1, dt=0.01, stride=2),
            on_record=lambda state, rec: seen.append(state.t),
        )
        assert len(seen) == 6  # t = 0 plus every 2nd of 10 steps
        assert seen[0] == 0.0


def loop_write_snapshot(path, state, p, meta=None):
    """The per-value loop writer: the byte-level reference for write_snapshot."""
    fmt = "%.17g"
    g = state.grid
    u, v = state.u.values, state.v.values
    w = p.D * u + v
    lines = ["# polarsim snapshot"]
    for key in sorted(meta or {}):
        lines.append(f"# {key} = {meta[key]}")
    lines.append(f"# model = {p.name}")
    lines.append("# t = " + fmt % state.t)
    if g.dim == 1:
        lines.append(f"# grid = interval {fmt % g.lengths[0]} {g.counts[0]}")
        lines.append("# columns = x u v w")
        x = g.coords()[0]
        for i in range(g.counts[0]):
            lines.append(" ".join(fmt % val for val in (x[i], u[i], v[i], w[i])))
    else:
        lines.append(
            f"# grid = rectangle {fmt % g.lengths[0]} {fmt % g.lengths[1]} "
            f"{g.counts[0]} {g.counts[1]}"
        )
        lines.append("# columns = x y u v w")
        xs, ys = g.coords()
        for ix in range(g.counts[0]):
            for iy in range(g.counts[1]):
                vals = (xs[ix], ys[iy], u[ix, iy], v[ix, iy], w[ix, iy])
                lines.append(" ".join(fmt % val for val in vals))
    Path(path).write_text("\n".join(lines) + "\n")


class TestSnapshots:
    @pytest.mark.parametrize(
        "g, meta",
        [
            (Grid.interval(1.5, 33), None),
            (Grid.rectangle(1.0, 2.0, 6, 9), None),
            (Grid.rectangle(0.3, 1.1, 11, 4), {"note": "bytes", "b_key": 2.5}),
            (Grid.rectangle(0.3, 1.1, 37, 5), None),
            (Grid.rectangle(0.7, 1.3, 3, 10), None),
            (Grid.rectangle(2.9, 0.1, 12, 3), {"note": "three"}),
            (Grid.interval(1.0, 257), None),
        ],
        ids=["1d", "2d", "2d-meta", "2d-37x5", "2d-3-rows", "2d-3-cols", "1d-257"],
    )
    def test_bytes_equal_loop_writer(self, tmp_path, g, meta):
        rng = np.random.default_rng(23)
        u = rng.uniform(0, 1, g.shape) * 10.0 ** rng.integers(-30, 30, g.shape)
        u.flat[0] = 0.0
        state = SimState(1.0 / 3.0, Field(g, u), Field(g, rng.uniform(0, 1, g.shape)))
        write_snapshot(tmp_path / "new.txt", state, STD, meta=meta)
        loop_write_snapshot(tmp_path / "ref.txt", state, STD, meta=meta)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()

    def test_roundtrip_1d(self, tmp_path):
        g = Grid.interval(1.5, 33)
        rng = np.random.default_rng(9)
        state = SimState(
            2.25, Field(g, rng.uniform(0, 1, 33)), Field(g, rng.uniform(0, 1, 33))
        )
        path = tmp_path / "snap.txt"
        write_snapshot(path, state, STD, meta={"note": "roundtrip"})
        t, g2, u, v = read_snapshot(path)
        assert t == 2.25
        assert g2 == g
        np.testing.assert_array_equal(u, state.u.values)
        np.testing.assert_array_equal(v, state.v.values)

    def test_roundtrip_2d(self, tmp_path):
        g = Grid.rectangle(1.0, 2.0, 6, 9)
        rng = np.random.default_rng(10)
        state = SimState(
            0.5,
            Field(g, rng.uniform(0, 1, g.shape)),
            Field(g, rng.uniform(0, 1, g.shape)),
        )
        path = tmp_path / "snap2d.txt"
        write_snapshot(path, state, STD)
        t, g2, u, v = read_snapshot(path)
        assert t == 0.5
        assert g2 == g
        np.testing.assert_array_equal(u, state.u.values)
        np.testing.assert_array_equal(v, state.v.values)

    @pytest.mark.parametrize(
        "g",
        [Grid.interval(2.0, 2 * BLOCK_ROWS + 3), Grid.rectangle(1.0, 0.5, 37, 61)],
        ids=["1d", "2d"],
    )
    def test_roundtrip_across_blocks(self, tmp_path, g):
        assert g.n_nodes % BLOCK_ROWS != 0  # the last block is a partial one
        rng = np.random.default_rng(11)
        u = rng.uniform(0, 1, g.shape) * 10.0 ** rng.integers(-300, 300, g.shape)
        state = SimState(0.75, Field(g, u), Field(g, rng.uniform(0, 1, g.shape)))
        path = tmp_path / "snap.txt"
        write_snapshot(path, state, STD)
        t, g2, u2, v2 = read_snapshot(path)
        assert (t, g2) == (0.75, g)
        assert np.array_equal(u2.view(np.uint64), state.u.values.view(np.uint64))
        assert np.array_equal(v2.view(np.uint64), state.v.values.view(np.uint64))

    def test_header_layout(self, tmp_path):
        g = Grid.interval(1.0, 5)
        state = SimState(0.0, Field(g, np.full(5, 0.25)), Field(g, np.full(5, 0.5)))
        path = tmp_path / "snap.txt"
        write_snapshot(path, state, STD)
        lines = path.read_text().splitlines()
        assert lines[0] == "# polarsim snapshot"
        assert any(line.startswith("# model = model4") for line in lines)
        assert any(line.startswith("# columns = x u v w") for line in lines)
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == 5
        # w column is D u + v
        first = [float(tok) for tok in data[0].split()]
        assert first[3] == pytest.approx(STD.D * first[1] + first[2], rel=1e-15)
