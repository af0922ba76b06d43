"""Streamed run monitors against whole-run oracles, and run memory.

The oracles are the whole-run formulas over stacked record fields: the
identity residual from ``np.gradient`` along the record axis, the pairing
integral as a vectorised trapezoid plus ``cumsum``, and the sup of
||v||_2 / lam as a loop.  The streamed values must equal them bit for bit,
including on record times whose spacings are not all exactly equal, where
numpy.gradient switches formula for the whole array.
"""

import math
import tracemalloc

import numpy as np
import pytest

from polarsim import Field, Grid, Model1Params, Model2Params
from polarsim.diagnostics import lyapunov_model1, lyapunov_model2
from polarsim.solver import SolverConfig, run

P1 = Model1Params(D=0.4, tau=1.0, a=1.0, b=1.0, k=1.0)
P2 = Model2Params(D=0.4, tau=2.0, alpha1=1.0, alpha2=1.0)


def oracle_residuals(g, t, us, vs, p):
    n = len(t)
    ws = p.D * us + vs
    out = np.full(n, np.nan)
    if isinstance(p, Model1Params):
        L = np.array([lyapunov_model1(Field(g, us[i]), Field(g, ws[i]), p) for i in range(n)])
        dL = np.gradient(L, t)
        u_t = np.gradient(us, t, axis=0)
        for i in range(1, n - 1):
            diss = p.xi * g.inner(u_t[i], u_t[i]) + p.k * g.dirichlet_form(ws[i], ws[i])
            out[i] = abs(dL[i] + diss)
        return out
    zs = us + vs
    L = np.array([lyapunov_model2(Field(g, zs[i]), Field(g, ws[i]), p) for i in range(n)])
    dL = np.gradient(L, t)
    z_t = np.gradient(zs, t, axis=0)
    w_t = np.gradient(ws, t, axis=0)
    for i in range(1, n - 1):
        lap_w = g.laplacian(ws[i])
        diss = (
            p.xi * g.inner(z_t[i], z_t[i])
            + g.inner(w_t[i], w_t[i])
            + p.alpha * p.D * g.inner(lap_w, lap_w)
            + p.alpha * p.alpha1 * g.dirichlet_form(ws[i], ws[i])
        )
        out[i] = abs(dL[i] + diss)
    return out


def oracle_pairing(g, t, us, vs, p, lam):
    vals = np.empty(len(t))
    for i in range(len(t)):
        w = p.D * us[i] + vs[i]
        vals[i] = g.inner(g.deviation(w), us[i] + p.tau * vs[i] - lam)
    increments = 0.5 * (vals[1:] + vals[:-1]) * np.diff(t)
    return np.concatenate([[0.0], np.cumsum(increments)])


def oracle_v_sup(g, t, vs, lam, t_min=1.0):
    best = math.nan
    for i, ti in enumerate(t):
        if ti < t_min:
            continue
        val = g.l2_norm(vs[i]) / lam
        if math.isnan(best) or val > best:
            best = val
    return best


def cosine_ic(g):
    if g.dim == 1:
        (x,) = g.coords()
        return Field(g, 0.6 + 0.2 * np.cos(np.pi * x)), Field(g, 0.5 - 0.1 * np.cos(np.pi * x))
    x, y = g.meshgrid()
    return (
        Field(g, 0.6 + 0.2 * np.cos(np.pi * x) * np.cos(np.pi * y / 1.5)),
        Field(g, 0.5 - 0.1 * np.cos(2 * np.pi * x)),
    )


G1 = Grid.interval(1.0, 33)
CASES = {
    # dt = 1e-3: i * dt rounds, so the record spacings differ in the last bit
    "cn-1e-3-stride10": (G1, SolverConfig(t_end=1.5, dt=1e-3, scheme="imex-cn", stride=10), False),
    # dt = 2**-10: every record time is exact, every spacing equal
    "dyadic-stride4": (G1, SolverConfig(t_end=1.25, dt=2.0**-10, stride=4), True),
    # as above, but 1282 steps leave a last stride of 2: one unequal spacing
    "dyadic-short-last": (G1, SolverConfig(t_end=1282 * 2.0**-10, dt=2.0**-10, stride=4), False),
    "2d-9x12": (Grid.rectangle(1.0, 1.5, 9, 12), SolverConfig(t_end=1.2, dt=1e-3, stride=10), False),
}


RUNS = [(case, p) for case in CASES for p in (P1, P2) if case != "2d-9x12" or p is P2]


@pytest.mark.parametrize(
    "case, p", RUNS, ids=[f"{case}-{type(p).__name__}" for case, p in RUNS]
)
def test_streamed_monitors_equal_whole_run_oracles(case, p):
    g, cfg, uniform = CASES[case]
    states = []
    res = run(cosine_ic(g), p, cfg, on_record=lambda state, rec: states.append(state))
    t = np.array([s.t for s in states])
    gaps = np.diff(t)
    assert bool((gaps == gaps[0]).all()) is uniform  # the case takes the intended branch
    us = np.stack([s.u.values for s in states])
    vs = np.stack([s.v.values for s in states])

    got = np.array([r.identity_residual for r in res.records])
    want = oracle_residuals(g, t, us, vs, p)
    assert np.isnan(got[0]) and np.isnan(got[-1])
    assert np.array_equal(got[1:-1], want[1:-1])

    running = oracle_pairing(g, t, us, vs, p, res.lam0)
    assert np.array_equal(res.pairing.times, t)
    assert np.array_equal(res.pairing.running, running)
    assert res.pairing.sup == float(np.max(running))

    vsup = oracle_v_sup(g, t, vs, res.lam0)
    assert not math.isnan(vsup)
    assert res.v_norm_sup == vsup


def _traced_peak(ic, steps):
    tracemalloc.start()
    try:
        run(ic, P2, SolverConfig(t_end=steps * 1e-3, dt=1e-3, stride=1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_does_not_grow_with_records():
    g = Grid.rectangle(1.0, 1.0, 65, 65)
    ic = cosine_ic(g)
    short = _traced_peak(ic, 10)
    long = _traced_peak(ic, 160)
    assert long <= 2.0 * short, f"peak {long / 1e6:.1f} MB over 160 records, {short / 1e6:.1f} MB over 10"
