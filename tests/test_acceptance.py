"""Acceptance suite: the headline guarantees of the package, one test each.

Every test prints a single ``PASS criterion N: ...`` or ``FAIL criterion N:
...`` line (visible with ``pytest -s`` or in failure reports), so a run of
this file doubles as a checklist.  Tolerances are part of the contract and
are asserted exactly as stated in the test bodies; oracles (grid scans,
dense eigensolves, closed forms) are implemented inline so they share no
code with the package internals they certify.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from scipy.linalg import eigh

from polarsim import (
    Field,
    Grid,
    Model1Params,
    Model2Params,
    Model4Params,
    solve_equilibrium,
)
from polarsim.cli import EXIT_OK, run_scenario
from polarsim.config import build_initial_condition, load_scenario
from polarsim.diagnostics import (
    check_contraction_condition,
    check_coupling_condition,
    check_sigma_condition,
    estimate_decay_rate,
    omega_limit_check,
)
from polarsim.equilibrium import integrate_homogeneous_ode
from polarsim.linearization import (
    mode_eigenpair,
    mode_matrix,
    scan_degeneracy,
)
from polarsim.solver import SolverConfig, run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

STD = Model4Params(D=4.0, tau=1.0, b=1.0, gamma=1.0, k=1.0, k0=0.1, delta=1.0)
U_STAR_STD = 0.09883419099615151  # root of the mass balance for lam = 1


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {label}")
        raise
    print(f"PASS criterion {num}: {label}")


def hill_mass_balance(b, gamma, k, k0, delta, tau, lam, u, m=2.0):
    """Hand-written net production at the homogeneous state (u, (lam-u)/tau)."""
    a = b * (gamma * u**m / (k**m + u**m) + k0)
    return (lam - u) / tau * a - delta * u


def oracle_equilibrium(b, gamma, k, k0, delta, tau, lam):
    """Grid-scan the balance on 1e6 interior points, then bisect the bracket.

    Returns (root, number of sign changes seen on the scan grid).
    """
    uu = np.linspace(0.0, lam, 1_000_002)[1:-1]
    phi = hill_mass_balance(b, gamma, k, k0, delta, tau, lam, uu)
    flips = np.nonzero(np.diff(np.sign(phi)) != 0)[0]
    if len(flips) != 1:
        return math.nan, len(flips)
    j = int(flips[0])
    lo, hi = float(uu[j]), float(uu[j + 1])
    flo = hill_mass_balance(b, gamma, k, k0, delta, tau, lam, lo)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fm = hill_mass_balance(b, gamma, k, k0, delta, tau, lam, mid)
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi), 1


def cosine_equilibrium_ic(p, g, lam, amplitude):
    eq = solve_equilibrium(p, lam)
    x = g.coords()[0]
    u0 = Field(g, eq.u_star * (1.0 + amplitude * np.cos(math.pi * x / g.lengths[0])))
    v0 = Field(g, np.full(g.counts[0], eq.v_star))
    return u0, v0


def test_01_mass_conservation():
    label = "relative mass drift <= 1e-10 over t_end=100 on n=256, runtime < 10 s"
    with criterion(1, label):
        g = Grid.interval(1.0, 256)
        ic = cosine_equilibrium_ic(STD, g, 1.0, 0.1)
        cfg = SolverConfig(t_end=100.0, dt=0.01, scheme="imex-be", stride=100)
        t0 = time.monotonic()
        result = run(ic, STD, cfg)
        elapsed = time.monotonic() - t0
        drift = max(abs(r.lam - result.lam0) for r in result.records) / result.lam0
        assert drift <= 1e-10, f"mass drift {drift:.3e}"
        assert elapsed < 10.0, f"runtime {elapsed:.2f} s"


def test_02_equilibrium_oracle_equivalence():
    label = "solver matches 1e6-point scan + bisection oracle on 100 draws"
    with criterion(2, label):
        rng = np.random.default_rng(20260823)
        for _ in range(100):
            b = rng.uniform(0.2, 2.0)
            gamma = rng.uniform(0.2, 2.0)
            k = rng.uniform(0.3, 3.0)
            k0 = rng.uniform(0.01, 1.0)
            delta = rng.uniform(0.2, 2.0)
            tau = rng.uniform(0.5, 2.0)
            D = rng.uniform(0.2, 5.0)
            # stay inside the regime where the balance has a single root
            lam = 0.9 * rng.uniform(0.05, 1.0) * k * math.sqrt(tau * delta / (b * gamma))
            root, n_changes = oracle_equilibrium(b, gamma, k, k0, delta, tau, lam)
            assert n_changes == 1, f"{n_changes} sign changes on the scan grid"
            p = Model4Params(D=D, tau=tau, b=b, gamma=gamma, k=k, k0=k0, delta=delta)
            eq = solve_equilibrium(p, lam)
            assert abs(eq.u_star - root) / root <= 1e-10
            residual = abs(
                hill_mass_balance(b, gamma, k, k0, delta, tau, lam, eq.u_star)
            )
            assert residual <= 1e-12 * max(1.0, delta * lam)


def test_03_constant_activation_closed_form():
    label = "gamma=0 runs land on a*lam/(a + tau*delta) to 1e-8 at t=200"
    with criterion(3, label):
        for D, tau, b, k0, delta, lam in [
            (4.0, 1.0, 1.0, 0.5, 1.0, 1.0),
            (0.7, 2.0, 0.8, 0.25, 0.5, 0.8),
        ]:
            p = Model4Params(D=D, tau=tau, b=b, gamma=0.0, k=1.0, k0=k0, delta=delta)
            g = Grid.interval(1.0, 64)
            x = g.coords()[0]
            u0 = 0.5 * lam * (1.0 + 0.2 * np.cos(math.pi * x))
            v0 = (lam - u0) / tau
            cfg = SolverConfig(t_end=200.0, dt=0.05, scheme="imex-cn", stride=400)
            result = run((Field(g, u0), Field(g, v0)), p, cfg)
            a = b * k0
            u_closed = a * result.lam0 / (a + tau * delta)
            err = float(np.max(np.abs(result.final_state.u.values - u_closed)))
            assert err <= 1e-8, f"gap to closed form {err:.3e}"


def test_04_ode_reduction():
    label = "50 starting points reach u* to 1e-8 at T=50/min(delta, a0/tau); G monotone"
    with criterion(4, label):
        lam = 1.0
        T = 50.0 / min(STD.delta, STD.a0 / STD.tau)
        rng = np.random.default_rng(42)
        starts = [0.0, lam] + list(rng.uniform(0.0, lam, 48))
        for u0 in starts:
            traj = integrate_homogeneous_ode(STD, lam, float(u0), T, 0.1)
            assert abs(traj.U[-1] - U_STAR_STD) <= 1e-8
            violation = float(max(0.0, -np.min(np.diff(traj.G))))
            assert violation <= 1e-12, f"G decreased by {violation:.3e} in one step"


def test_05_convergent_scenario(tmp_path):
    label = "checked-condition scenario flattens to u* (1e-6 by t=200, rate > 0), < 30 s"
    with criterion(5, label):
        scn = load_scenario(str(CONFIGS / "model4_convergent.cfg"), out=str(tmp_path))
        p = scn.params
        mu2 = math.pi**2  # continuum second Neumann eigenvalue, L = 1
        reports = [
            check_coupling_condition(p, mu2, "continuum"),
            check_contraction_condition(p, 1.0, mu2, scn.c4, "continuum"),
            check_sigma_condition(p, 1.0, mu2, scn.sigma, scn.c4, "continuum"),
        ]
        assert all(r.satisfied for r in reports), "scenario must satisfy all conditions"
        ic = build_initial_condition(scn)
        t0 = time.monotonic()
        result = run(ic, p, scn.solver)
        elapsed = time.monotonic() - t0
        assert result.records[-1].u_dev_linf <= 1e-6
        est = estimate_decay_rate(result.records, "u_dev_linf")
        assert est.rate > 0.0
        om = omega_limit_check(
            result.final_state, p, result.lam0, tol=1e-6, equilibrium=result.equilibrium
        )
        assert om.converged
        assert elapsed < 30.0, f"runtime {elapsed:.2f} s"


def test_06_heat_limit_decay_rate(tmp_path):
    label = "reaction-free decay rate within 2 percent of D*mu2h"
    with criterion(6, label):
        scn = load_scenario(str(CONFIGS / "heat_decay.cfg"), out=str(tmp_path))
        ic = build_initial_condition(scn)
        result = run(ic, scn.params, scn.solver)
        est = estimate_decay_rate(result.records, "u_dev_linf")
        (L,), (n,) = scn.grid.lengths, scn.grid.counts
        h = L / (n - 1)
        mu2h = 2.0 / h**2 * (1.0 - math.cos(math.pi * h / L))
        target = scn.params.D * mu2h
        assert abs(est.rate - target) / target <= 0.02


def test_07_mode_analysis():
    label = "constant-activation mode spectra real; single zero at mu=0, rest negative"
    with criterion(7, label):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = float(10.0 ** rng.uniform(-1, 1))
            D = float(10.0 ** rng.uniform(-1, 1))
            tau = float(10.0 ** rng.uniform(-0.5, 0.5))
            delta = float(10.0 ** rng.uniform(-1, 1))
            n_zero = 0
            for j in range(1, 51):
                mu = ((j - 1) * math.pi) ** 2
                M, eigs = mode_matrix(-delta, a, D, tau, mu)
                dense = np.linalg.eigvals(M)
                scale = D * mu + delta + a
                assert np.max(np.abs(dense.imag)) == 0.0
                assert all(not isinstance(e, complex) for e in eigs)
                np.testing.assert_allclose(
                    np.sort(dense.real),
                    np.sort([float(e) for e in eigs]),
                    rtol=1e-9,
                    atol=1e-9 * scale,
                )
                for e in dense.real:
                    if abs(e) <= 1e-12 * scale:
                        n_zero += 1
                    else:
                        assert e < -1e-10 * scale
                pair = mode_eigenpair(-delta, a, D, tau, j, mu)
                assert pair.classification == ("neutral" if j == 1 else "stable")
            assert n_zero == 1


def test_08_degeneracy_scanner():
    label = "diffusivity scan recovers the closed-form root; gamma=0 scans are empty"
    with criterion(8, label):
        p = Model4Params(D=1.0, tau=1.0, b=1.0, gamma=1.0, k=1.0, k0=0.05, delta=0.22)
        lam, mu = 1.0, 0.25
        u_star, n_changes = oracle_equilibrium(
            p.b, p.gamma, p.k, p.k0, p.delta, p.tau, lam
        )
        assert n_changes == 1
        a_val = p.b * (p.gamma * u_star**2 / (p.k**2 + u_star**2) + p.k0)
        a_prime = 2.0 * p.b * p.gamma * p.k**2 * u_star / (p.k**2 + u_star**2) ** 2
        # the mode residual is linear in D, so its root has a closed form
        D_star = -(p.delta + a_prime / p.tau * (u_star - lam)) / (mu + a_val)
        reports = scan_degeneracy(p, lam, 2, mu, "D", 0.02, 1.0, 400)
        assert len(reports) == 1
        root = reports[0].root
        assert abs(root - D_star) / D_star <= 1e-8
        residual = abs(root * (mu + a_val) + p.delta + a_prime / p.tau * (u_star - lam))
        assert residual <= 1e-6 * (root * mu + p.delta)
        flat = Model4Params(
            D=1.0, tau=1.0, b=1.0, gamma=0.0, k=1.0, k0=0.05, delta=0.22
        )
        assert scan_degeneracy(flat, lam, 2, mu, "D", 0.02, 1.0, 400) == []


def test_09_lyapunov_identities():
    label = "energies non-increasing; identity residuals shrink at order >= 1.9"
    with criterion(9, label):
        g = Grid.interval(1.0, 64)
        x = g.coords()[0]
        ic = (
            Field(g, 0.6 + 0.2 * np.cos(math.pi * x)),
            Field(g, 0.5 - 0.1 * np.cos(math.pi * x)),
        )
        models = [
            Model1Params(D=0.4, tau=1.0, a=1.0, b=1.0, k=1.0),  # xi = 0.6 > 0
            Model2Params(D=0.4, tau=2.0, alpha1=1.0, alpha2=1.0),  # xi, alpha > 0
        ]
        for p in models:
            cfg = SolverConfig(t_end=2.0, dt=1e-3, scheme="imex-cn", stride=20)
            result = run(ic, p, cfg)
            L = np.array([r.lyapunov for r in result.records])
            increases = np.diff(L) - (1e-8 * np.abs(L[:-1]) + cfg.dt**2)
            assert np.max(increases) <= 0.0, f"energy rose for {type(p).__name__}"

            maxima = []
            for dt in (2e-3, 1e-3, 5e-4):
                cfg = SolverConfig(t_end=0.5, dt=dt, scheme="imex-cn", stride=1)
                result = run(ic, p, cfg)  # attaches the identity residuals
                window = [
                    r.identity_residual
                    for r in result.records
                    if 0.1 - 1e-9 <= r.t <= 0.4 + 1e-9
                ]
                assert all(math.isfinite(v) for v in window)
                maxima.append(max(window))
            order_coarse = math.log2(maxima[0] / maxima[1])
            order_fine = math.log2(maxima[1] / maxima[2])
            assert order_coarse >= 1.9 and order_fine >= 1.9, (
                f"observed orders {order_coarse:.2f}, {order_fine:.2f}"
            )


def test_10_discrete_analysis_layer():
    label = "self-adjointness <= 1e-12; Poincare-Wirtinger on 1000 fields; mu2h ratios"
    with criterion(10, label):
        g = Grid.interval(1.7, 33)
        rng = np.random.default_rng(10)
        for _ in range(10):
            f = Field(g, rng.standard_normal(33))
            q = Field(g, rng.standard_normal(33))
            a = g.inner(g.laplacian(f.values), q.values)
            b = g.inner(f.values, g.laplacian(q.values))
            assert abs(a - b) <= 1e-12 * (1.0 + abs(a) + abs(b))

        n = 48
        g = Grid.interval(1.0, n)
        h = 1.0 / (n - 1)
        A = np.zeros((n, n))
        for i in range(n):
            A[i, i] = -2.0
        A[0, 1] = A[n - 1, n - 2] = 2.0
        for i in range(1, n - 1):
            A[i, i - 1] = A[i, i + 1] = 1.0
        A /= h * h
        W = np.diag(g.weights)
        S = -0.5 * (W @ A + A.T @ W)
        mu2h = float(eigh(S, W, eigvals_only=True)[1])
        for _ in range(1000):
            f = rng.standard_normal(n)
            lhs = mu2h * g.l2_norm(g.deviation(f)) ** 2
            rhs = g.dirichlet_form(f, f)
            assert lhs <= rhs + 1e-12 * max(1.0, rhs)

        errors = []
        for n2 in (17, 33, 65):
            h2 = 1.0 / (n2 - 1)
            errors.append(math.pi**2 - 2.0 / h2**2 * (1.0 - math.cos(math.pi * h2)))
        assert 3.7 <= errors[0] / errors[1] <= 4.3
        assert 3.7 <= errors[1] / errors[2] <= 4.3


def test_11_determinism(tmp_path):
    label = "seeded scenario rerun produces bit-identical outputs"
    with criterion(11, label):
        out = tmp_path / "run"
        path = str(CONFIGS / "model4_seeded.cfg")
        code, _ = run_scenario(load_scenario(path, out=str(out)))
        assert code == EXIT_OK
        names = ("diagnostics.txt", "final_state.txt", "summary.txt")
        first = {name: (out / name).read_bytes() for name in names}
        code, _ = run_scenario(load_scenario(path, out=str(out)))
        assert code == EXIT_OK
        for name in names:
            assert (out / name).read_bytes() == first[name], name
