"""IMEX time integration of the mass-conserved reaction-diffusion systems.

Diffusion is implicit (backward Euler or Crank-Nicolson per config), the
reaction is explicit and evaluated once per step, entering both equations
with opposite signs:

    (I - dt D lap) u^{n+1}      = u^n + dt R^n
    (I - (dt/tau) lap) v^{n+1}  = v^n - (dt/tau) R^n        (backward Euler)

so the quadrature mean of u + tau v is conserved up to round-off.  The
explicit term is the one array R, which the signed coefficients (dt, -dt/tau)
carry into both equations.  The Crank-Nicolson variant pairs the
trapezoidal diffusion update with a two-step Adams-Bashforth extrapolation
of the same reaction value (Euler bootstrap on the first step), which is
second order in time and keeps the identical-R antisymmetry, hence exact
conservation, intact.

The implicit solves (I - alpha lap)^-1 are exact and direct in any
dimension: the mirror-ghost Laplacian is diagonalised by the DCT-I, so each
step is one stacked transform pair for both species, applied axis by axis.
The Crank-Nicolson step needs no Laplacian evaluation.  An axis of at most
``DENSE_AXIS_MAX`` nodes takes the DCT-I as a dense matrix product, whose
cost does not depend on how n - 1 factors; a longer one takes the FFT of the
even extension, of length 2(n - 1), so there n - 1 a product of small primes
(e.g. n = 513, 1025) is faster than n - 1 prime.

:func:`run` steps a batch of B runs as one state of shape (B, 2, *shape),
one reaction call and one transform pair per step for all of them; a single
run is the batch B = 1.  Runs can share a batch when they share the grid,
the resolved dt, t_end, scheme, stride, retry limit and source, the model
and the Hill exponent (:func:`batch_key`); the other parameters may differ.
Each member gets the bits of its own single run: a member whose positivity
guard fails redoes that step alone, halved, and rejoins the batch; only a
member whose retries run out leaves it.

Snapshots are tables of :mod:`polarsim.tables`, read back by ``file`` ICs.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import reduce
from pathlib import Path
from typing import Callable

import numpy as np

from . import diagnostics, equilibrium, tables
from .equilibrium import check_km, has_homogeneous_equilibrium
from .errors import ConfigError, EquilibriumError, ParameterError, PolarsimError, SolverError
from .grid import Field, Grid, SimState, _axis_discrete_eigenvalues, transform_w
from .kinetics import Model4Params, ModelParams, StackedParams, reaction_rhs

__all__ = [
    "SolverConfig",
    "RunResult",
    "default_dt",
    "run",
    "write_snapshot",
    "read_snapshot",
]

SCHEMES = ("imex-be", "imex-cn")
NEGATIVITY_TRIGGER = 1e-9  # relative to the state scale


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping configuration.

    dt = None selects the conservative default step
    0.125 * min(h^2/(2D), tau h^2 / 2); shipped scenarios set dt explicitly.
    """

    t_end: float
    dt: float | None = None
    scheme: str = "imex-be"
    stride: int = 10
    retry_limit: int = 20

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheme", str(self.scheme).lower())
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not (0 < self.t_end < math.inf):
            raise ConfigError(f"t_end must be positive and finite, got {self.t_end}")
        if self.dt is not None and not (0 < self.dt < math.inf):
            raise ConfigError(f"dt must be positive and finite when given, got {self.dt}")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if self.retry_limit < 0:
            raise ConfigError(f"retry_limit must be >= 0, got {self.retry_limit}")


def default_dt(g: Grid, p: ModelParams) -> float:
    """Accuracy-motivated default step for the explicit reaction part."""
    h2 = min(h * h for h in g.spacings)
    return 0.125 * min(h2 / (2.0 * p.D), p.tau * h2 / 2.0)


# -- implicit solves ---------------------------------------------------


# An axis takes the dense DCT-I product when it has at most this many nodes,
# or no more nodes than the other axes hold together (then each product
# has at least as many rows as C has columns, which BLAS runs efficiently);
# otherwise it takes the rfft of its even extension.  So at most one axis of a grid is an rfft axis.  The rule
# reads the grid only: an axis kind chosen by batch size B would give a
# sweep member other bits than its single run.  Measured on a 2-vCPU x86-64
# VM (numpy 2.4.6, OpenBLAS 0.3.31), dense / rfft time of one 1-D solve of a
# (B, 2, n) stack:
#
#     n     B = 1   B = 16   B = 256
#     64    0.16    0.40     0.32
#     128   0.20    0.24     0.22
#     256   0.79    1.66     1.19
#     512   2.02    2.62     2.25
#
# and of one solve of both species on an n x n grid, all-dense / all-rfft:
# 14 / 63 ms at n = 384, 20 / 94 ms at n = 450, 27 / 40 ms at n = 513.
DENSE_AXIS_MAX = 256


class _Dct1Axis:
    """The DCT-I along one axis of a stacked array, unnormalised.

    With C[k, j] = w_j cos(pi j k / (n-1)) (w = 1/2 at both ends, 1
    elsewhere), a dense axis applies C as a matrix product each way, and
    C C = (n-1)/2 I.  An rfft axis takes the rfft of the even extension, of
    length 2(n-1), and returns with irfft, which inverts it exactly; its
    cost follows that FFT length, so n - 1 with small prime factors is
    fastest.
    """

    def __init__(self, axis: int, n: int, dense: bool) -> None:
        self.axis = axis  # counted from the end: -1 is the last
        self.n = n
        self.dense = dense
        if dense:
            self.c = _dct1_matrix(n)
        else:
            inner = (slice(None),) * (-axis - 1)
            self.mirror = (Ellipsis, slice(-2, 0, -1), *inner)
            self.head = (Ellipsis, slice(0, n), *inner)

    def _product(self, x: np.ndarray) -> np.ndarray:
        if self.axis == -1:
            return x @ self.c.T
        return np.moveaxis(self.c @ np.moveaxis(x, self.axis, -2), -2, self.axis)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.dense:
            return self._product(x)
        return np.fft.rfft(np.concatenate((x, x[self.mirror]), axis=self.axis), axis=self.axis)

    def inverse(self, spec: np.ndarray) -> np.ndarray:
        if self.dense:
            return self._product(spec)
        return np.fft.irfft(spec, 2 * (self.n - 1), axis=self.axis)[self.head]


class _NeumannSolve:
    """S_alpha = (I - alpha lap)^-1 on a stack of fields, exact and direct.

    The mirror-ghost Laplacian is diagonalised by the DCT-I, with
    eigenvalues mu_k per axis, so S_alpha is a multiply by
    1/(1 + alpha sum mu) between a forward and an inverse DCT-I, applied axis
    by axis (:class:`_Dct1Axis`) in any dimension; ``DENSE_AXIS_MAX`` says
    which axes are dense.  The 2/(n-1) of each dense axis is folded into the
    multipliers.  The spectrum of the rfft axis, if any, is complex, so it
    goes last forward and first back.  The zero mode passes through
    untouched, so the solve moves the quadrature mean by round-off only.
    """

    def __init__(self, g: Grid) -> None:
        mu = [_axis_discrete_eigenvalues(L, n) for L, n in zip(g.lengths, g.counts)]
        self.mu = reduce(np.add.outer, mu)
        axes = [
            _Dct1Axis(ax - g.dim, n, n <= DENSE_AXIS_MAX or n <= g.n_nodes // n)
            for ax, n in enumerate(g.counts)
        ]
        dense = [a for a in axes if a.dense]
        fft = [a for a in axes if not a.dense]
        self.scale = 2.0 ** len(dense) / math.prod(a.n - 1 for a in dense)
        self.forward_axes = dense + fft
        self.inverse_axes = fft + dense

    def factors(self, alphas) -> np.ndarray:
        """Spectral multipliers scale/(1 + alpha mu_k), with the leading axes of ``alphas``."""
        return self.scale / (1.0 + np.multiply.outer(alphas, self.mu))

    def __call__(self, rhs: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """Apply S to a stacked (..., *shape) array, each field with its row of factors."""
        spec = rhs
        for a in self.forward_axes:
            spec = a.forward(spec)
        spec *= factors
        for a in self.inverse_axes:
            spec = a.inverse(spec)
        return spec


def _dct1_matrix(n: int) -> np.ndarray:
    """C[k, j] = w_j cos(pi j k / (n-1)); C @ C = (n-1)/2 I.

    j k is reduced modulo 2(n-1) before scaling, so every cosine argument
    lies in [0, 2 pi) and the entries are accurate to round-off at any n.
    """
    k = np.arange(n)
    c = np.cos(np.pi * (np.multiply.outer(k, k) % (2 * (n - 1))) / (n - 1))
    c[:, [0, -1]] *= 0.5
    return c


def batch_key(g: Grid, p: ModelParams, cfg: SolverConfig) -> tuple:
    """Members with equal keys can share one call of :func:`run`.

    They must share the grid, the resolved dt and the rest of the solver
    config, the model and, for model 4, the Hill exponent m (see
    :class:`StackedParams`).
    """
    dt = cfg.dt if cfg.dt is not None else default_dt(g, p)
    return (g, replace(cfg, dt=dt), type(p), getattr(p, "m", None))


def _extrema(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-member min and max of a stacked (B, 2, *shape) state.

    NaN propagates through both and +-inf shows in one of them, so these two
    reductions carry the whole positivity guard.
    """
    axes = tuple(range(1, x.ndim))
    return x.min(axis=axes), x.max(axis=axes)


def _accepted(before: tuple[np.ndarray, np.ndarray], after: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Guard per member: finite, and no entry below -trigger * max(1, max|start state|)."""
    scale = np.maximum(1.0, np.maximum(before[1], -before[0]))
    return (after[0] >= -NEGATIVITY_TRIGGER * scale) & (after[1] < np.inf)


class _Stepper:
    """One-dt advancement of B members stacked as (B, 2, *shape).

    Spectral multipliers and the coefficients dt, dt/tau are cached per dt,
    one row per member.  A stepper holds no AB2 history: :func:`_march`
    passes the explicit terms of the previous nominal step to
    :meth:`attempt`, and :meth:`bisect` steps from a cleared history.
    """

    def __init__(
        self,
        g: Grid,
        ps: list[ModelParams],
        cfg: SolverConfig,
        dt: float,
        source: Callable[[float], tuple[np.ndarray, np.ndarray]] | None = None,
        solve: _NeumannSolve | None = None,
    ) -> None:
        self.g = g
        self.ps = ps
        self.cfg = cfg
        self.dt = dt
        self.source = source
        self.f = reaction_rhs(StackedParams(ps, g.dim))
        self._solve = solve if solve is not None else _NeumannSolve(g)
        self._cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def take(self, idx) -> "_Stepper":
        """The stepper of members ``idx``, sharing this one's spectral solve."""
        return _Stepper(self.g, [self.ps[i] for i in idx], self.cfg, self.dt, self.source, self._solve)

    def _constants(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """Multipliers of S_au, S_av and signed coefficients dt, -dt/tau; a = theta dt D, theta dt/tau."""
        if dt not in self._cache:
            a = 0.5 * dt if self.cfg.scheme == "imex-cn" else dt
            factors = self._solve.factors([(a * p.D, a / p.tau) for p in self.ps])
            coefs = np.array([(dt, -dt / p.tau) for p in self.ps])
            self._cache[dt] = factors, coefs.reshape(coefs.shape + (1,) * self.g.dim)
        return self._cache[dt]

    def attempt(
        self, t: float, x: np.ndarray, dt: float, prev: np.ndarray | None = None, fresh: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One unguarded step of dt; returns the new state and its explicit terms.

        The explicit term is one row per member, the reaction f of shape
        (B, 1, *shape): the signed coefficients (dt, -dt/tau) put +f into u
        and -f into v by broadcasting.  With a source it is the pair
        (f + s_u, f - s_v).  Under imex-cn, ``prev`` holds the explicit terms
        of the previous step of dt (None: Euler bootstrap for every row) and
        ``fresh`` marks the rows that bootstrap with Euler all the same
        (None: no row).
        """
        fv = self.f(x[:, 0], x[:, 1])
        if self.source is None:
            e = fv[:, None]
        else:
            su, sv = self.source(t)
            e = np.stack((fv + su, fv - sv), axis=1)
        factors, coefs = self._constants(dt)
        if self.cfg.scheme == "imex-cn":
            if prev is None:
                r = e
            else:
                r = 1.5 * e - 0.5 * prev
                if fresh is not None:
                    r[fresh] = e[fresh]
            # S_a(u + a lap u + dt r) = S_a(2u + dt r) - u, as I + a lap = 2I - (I - a lap)
            return self._solve(2.0 * x + coefs * r, factors) - x, e
        return self._solve(x + coefs * e, factors), e

    def bisect(self, t: float, x: np.ndarray, stats, dt: float, budget: int, x2: np.ndarray, stats2):
        """Replace a rejected step x -> x2 of a lone member by two halved substeps.

        Each substep starts from a cleared AB2 history and is bisected in
        turn when it fails the guard, at most ``budget`` times deep.
        """
        if budget <= 0:
            if not (np.isfinite(stats2[0][0]) and np.isfinite(stats2[1][0])):
                raise SolverError(
                    f"state turned non-finite at t = {t:.6g} "
                    "(dt-halving retries exhausted)"
                )
            raise SolverError(
                f"negativity persisted at t = {t:.6g} after exhausting dt-halving "
                f"retries (min u = {float(np.min(x2[0, 0])):.3e}, min v = {float(np.min(x2[0, 1])):.3e})"
            )
        for ts in (t, t + 0.5 * dt):
            xs, _ = self.attempt(ts, x, 0.5 * dt)
            ss = _extrema(xs)
            if not _accepted(stats, ss)[0]:
                xs, ss = self.bisect(ts, x, stats, 0.5 * dt, budget - 1, xs, ss)
            x, stats = xs, ss
        return x, stats


@dataclass
class RunResult:
    """Everything a finished run exposes to diagnostics and writers.

    ``pairing`` is the run's :class:`~polarsim.diagnostics.PairingMonitor`
    and ``v_norm_sup`` the sup of ||v||_2 / lam0 over records at t >= 1.
    """

    final_state: SimState
    records: list
    pairing: object
    v_norm_sup: float
    lam0: float
    equilibrium: object | None
    dt: float
    n_steps: int


class _Member:
    """One run of a batch: validated initial data, mass, equilibrium and records."""

    def __init__(
        self,
        ic: tuple[Field, Field],
        p: ModelParams,
        cfg: SolverConfig,
        on_record: Callable[[SimState, object], None] | None,
    ) -> None:
        u0, v0 = ic
        g = u0.grid
        if v0.grid != g:
            raise ParameterError("initial fields must share one grid")
        if float(np.min(u0.values)) < 0.0 or float(np.min(v0.values)) < 0.0:
            raise ParameterError("initial data must be nonnegative")
        if float(np.max(u0.values)) == 0.0 and float(np.max(v0.values)) == 0.0:
            raise ParameterError("initial data must not vanish identically")
        if isinstance(p, Model4Params):
            check_km(p)  # before StackedParams takes k^m, and the Hill term 0/k^m

        self.g = g
        self.p = p
        self.lam0 = g.mean(u0.values + p.tau * v0.values)
        self.dt = cfg.dt if cfg.dt is not None else default_dt(g, p)
        steps = cfg.t_end / self.dt
        if not steps <= equilibrium.MAX_STEPS:  # an inf step count too
            raise ConfigError(f"t_end / dt = {steps:.3g} steps, past the bound of {equilibrium.MAX_STEPS:.0e} per run")
        self.n_steps = max(1, int(round(steps)))
        if abs(self.n_steps * self.dt - cfg.t_end) > 1e-8 * cfg.t_end:
            raise ConfigError(
                f"t_end = {cfg.t_end} is not an integer number of steps of dt = {self.dt}"
            )

        self.equilibrium = None
        if has_homogeneous_equilibrium(p):
            try:
                self.equilibrium = equilibrium.solve_equilibrium(p, self.lam0)
            except EquilibriumError:
                self.equilibrium = None

        # numpy.gradient's spacing branch for the whole run, from the planned
        # record times (emitted at step 0, every stride steps and the last)
        gaps = np.diff([i * self.dt for i in [*range(0, self.n_steps, cfg.stride), self.n_steps]])
        uniform = bool((gaps == gaps[0]).all())
        self.builder = diagnostics.RecordBuilder(p, self.lam0, self.equilibrium, uniform)
        self.records: list = []
        self.last_state: SimState | None = None
        self.on_record = on_record
        self.outcome: RunResult | SolverError | None = None

    def emit(self, t: float, x: np.ndarray) -> None:
        state = SimState(t, Field(self.g, x[0].copy()), Field(self.g, x[1].copy()))
        rec = self.builder.build(state)
        self.records.append(rec)
        self.last_state = state
        if self.on_record is not None:
            self.on_record(state, rec)

    def fail(self, exc: SolverError) -> None:
        exc.partial_records = self.records
        exc.partial_state = self.last_state
        self.outcome = exc

    def finish(self, x: np.ndarray) -> None:
        b = self.builder
        if len(self.records) >= 3:
            diagnostics.attach_identity_residuals(self.records, b.dissipation, self.p)
        times = [r.t for r in self.records]
        final = SimState(self.n_steps * self.dt, Field(self.g, x[0]), Field(self.g, x[1]))
        self.outcome = RunResult(
            final_state=final,
            records=self.records,
            pairing=diagnostics.deviation_pairing_integral(times, b.pairing),
            v_norm_sup=diagnostics.v_norm_sup(times, b.v_norms, self.lam0),
            lam0=self.lam0,
            equilibrium=self.equilibrium,
            dt=self.dt,
            n_steps=self.n_steps,
        )


def _rows(stats: tuple[np.ndarray, np.ndarray], idx) -> tuple[np.ndarray, np.ndarray]:
    """The per-member (min, max) pair of members ``idx``."""
    return stats[0][idx], stats[1][idx]


def _march(members: list[_Member], stepper: _Stepper, x: np.ndarray) -> None:
    """Step the stacked members through their nominal steps.

    A member whose attempt fails the guard redoes that step alone, bisected
    from its pre-step state on a lone stepper, and the result is written back
    into its row; its next step bootstraps AB2 with Euler, as in its single
    run.  Only a member whose retries run out leaves the batch, so no
    trajectory depends on its batchmates.
    """
    dt, n_steps, stride = stepper.dt, members[0].n_steps, stepper.cfg.stride
    stats = _extrema(x)
    prev = fresh = None
    for i in range(1, n_steps + 1):
        t = (i - 1) * dt
        x2, prev = stepper.attempt(t, x, dt, prev, fresh)
        stats2 = _extrema(x2)
        ok = _accepted(stats, stats2)
        fresh = None if ok.all() else ~ok
        if fresh is not None:
            for b in np.flatnonzero(fresh):
                row = slice(b, b + 1)
                try:
                    x2[row], (stats2[0][row], stats2[1][row]) = stepper.take([b]).bisect(
                        t, x[row], _rows(stats, row), dt, stepper.cfg.retry_limit,
                        x2[row], _rows(stats2, row),
                    )
                except SolverError as exc:
                    members[b].fail(exc)
            keep = [b for b, m in enumerate(members) if m.outcome is None]
            if not keep:
                return
            if len(keep) < len(members):
                members = [members[b] for b in keep]
                stepper = stepper.take(keep)
                x2, stats2, prev, fresh = x2[keep], _rows(stats2, keep), prev[keep], fresh[keep]
        x, stats = x2, stats2
        if i % stride == 0 or i == n_steps:
            for b, m in enumerate(members):
                m.emit(i * dt, x[b])
    for b, m in enumerate(members):
        m.finish(x[b])


def run(
    ic: tuple[Field, Field] | list[tuple[Field, Field]],
    p: ModelParams | list[ModelParams],
    cfg: SolverConfig,
    on_record: Callable[[SimState, object], None] | list | None = None,
    source: Callable[[float], tuple[np.ndarray, np.ndarray]] | None = None,
) -> RunResult | list[RunResult | PolarsimError]:
    """Advance the pair (u, v) from t = 0 to cfg.t_end.

    Emits a diagnostics record at t = 0, every cfg.stride steps and at the
    final time.  The run monitors (energy-identity residuals, the pairing
    integral, the sup of ||v||) are reduced record by record and folded at
    the end, so run memory does not grow with the number of records.  The
    conserved mass is recomputed from the initial data, never trusted from
    a config.

    Batch form: with ``p`` a list of parameter objects, ``ic`` a list of
    initial pairs and ``on_record`` a list of callbacks (or None), the
    members are stepped as one stacked state of shape (B, 2, *grid.shape)
    and a list is returned holding, per member, its RunResult or the
    PolarsimError that stopped it.  Members must share :func:`batch_key`;
    each gets the bits of its own single run.

    Raises
    ------
    SolverError
        If negativity retries are exhausted or the state turns non-finite.
        The partial records and the last recorded state are attached to the
        exception as ``partial_records`` and ``partial_state``.
    """
    if not isinstance(p, list):
        (outcome,) = run([ic], [p], cfg, [on_record], source)
        if isinstance(outcome, PolarsimError):
            raise outcome
        return outcome

    callbacks = on_record if on_record is not None else [None] * len(p)
    if not (len(ic) == len(p) == len(callbacks)):
        raise ParameterError("a batch needs one initial pair and one callback per member")
    members: list[_Member] = []
    outcomes: list = []
    for pair, params, callback in zip(ic, p, callbacks):
        try:
            members.append(_Member(pair, params, cfg, callback))
        except PolarsimError as exc:
            outcomes.append(exc)
        else:
            outcomes.append(members[-1])
    if members:
        keys = {batch_key(m.g, m.p, cfg) for m in members}
        if len(keys) > 1:
            raise ParameterError("members of one run must share grid, dt, model and Hill exponent")
        x = np.stack([(u.values, v.values) for (u, v), o in zip(ic, outcomes) if isinstance(o, _Member)])
        for b, m in enumerate(members):
            m.emit(0.0, x[b])
        stepper = _Stepper(members[0].g, [m.p for m in members], cfg, members[0].dt, source)
        _march(members, stepper, x)
    return [o.outcome if isinstance(o, _Member) else o for o in outcomes]


# -- plain-text snapshots ----------------------------------------------

_GRID_KINDS = ("interval", "rectangle")  # grid spec name by dimension


def write_snapshot(path: str | Path, state: SimState, p: ModelParams, meta: dict | None = None) -> None:
    """Write one state as a table of columns x [y] u v w, one row per node in row-major order.

    The header holds the sorted ``meta`` pairs, then ``model`` unless ``meta``
    has it, ``t`` and the grid spec.
    """
    g = state.grid
    meta = meta or {}
    spec = " ".join([_GRID_KINDS[g.dim - 1], *map(tables.fmt, g.lengths), *map(str, g.counts)])
    header = sorted(meta.items())
    if "model" not in meta:
        header.append(("model", p.name))
    # each coordinate is formatted once and its string repeated down its
    # column: the outermost axis as it is read, an inner one cycled
    coords = []
    for ax, c in enumerate(g.coords()):
        inner = itertools.repeat(math.prod(g.counts[ax + 1 :]))
        strings = map(tables.fmt, c)
        strings = strings if ax == 0 else itertools.cycle(strings)
        coords.append(itertools.chain.from_iterable(map(itertools.repeat, strings, inner)))
    values = [f.values.ravel() for f in (state.u, state.v, transform_w(state, p))]
    columns = ("x", "y")[: g.dim] + ("u", "v", "w")
    meta_lines = [*header, ("t", tables.fmt(state.t)), ("grid", spec)]
    tables.write_table(path, "snapshot", meta_lines, columns, tables.row_blocks(values, coords))


def read_snapshot(path: str | Path) -> tuple[float, Grid, np.ndarray, np.ndarray]:
    """Read back a snapshot written by :func:`write_snapshot`; ConfigError names a bad file."""
    meta, rows = tables.read_table(path)
    if "t" not in meta or "grid" not in meta or rows.size == 0:
        raise ConfigError(f"snapshot file {path} is missing its header or data")
    kind, *nums = meta["grid"].split() or [""]
    dim = len(nums) // 2
    try:
        if kind not in _GRID_KINDS or len(nums) != 2 * (_GRID_KINDS.index(kind) + 1):
            raise ValueError(f"unknown grid spec {meta['grid']!r}")
        t = float(meta["t"])
        g = Grid(tuple(map(float, nums[:dim])), tuple(map(int, nums[dim:])))
    except (ValueError, ParameterError) as exc:
        raise ConfigError(f"snapshot file {path} has a bad header: {exc}") from None
    if rows.shape != (g.n_nodes, dim + 3):
        raise ConfigError(
            f"snapshot file {path} has {rows.shape[0]} rows of {rows.shape[1]} values; "
            f"its grid needs {g.n_nodes} rows of {dim + 3}"
        )
    return t, g, rows[:, dim].reshape(g.shape), rows[:, dim + 1].reshape(g.shape)
