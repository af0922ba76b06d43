"""IMEX time integration of the mass-conserved reaction-diffusion systems.

Diffusion is implicit (backward Euler or Crank-Nicolson per config), the
reaction is explicit and evaluated once per step, entering both equations
with opposite signs:

    (I - dt D lap) u^{n+1}      = u^n + dt R^n
    (I - (dt/tau) lap) v^{n+1}  = v^n - (dt/tau) R^n        (backward Euler)

so the quadrature mean of u + tau v is conserved up to round-off.  The
Crank-Nicolson variant pairs the trapezoidal diffusion update with a two-step
Adams-Bashforth extrapolation of the same reaction value (Euler bootstrap on
the first step), which is second order in time and keeps the identical-R
antisymmetry, hence exact conservation, intact.

The implicit solves (I - alpha lap)^-1 are exact and direct in 1-D and 2-D
alike: the mirror-ghost Laplacian is diagonalised by the FFT of the even
extension (a DCT-I), so each step is one stacked transform pair for both
species.  The Crank-Nicolson step needs no Laplacian evaluation.  The FFT
length is 2(n - 1) per axis, so grids with n - 1 a product of small primes
(e.g. n = 129, 257) are markedly faster than n - 1 prime (n = 128).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError, ParameterError, SolverError
from .grid import Field, Grid, _axis_discrete_eigenvalues
from .kinetics import Model4Params, ModelParams, model_name, reaction_rhs

__all__ = [
    "SolverConfig",
    "SimState",
    "RunResult",
    "transform_w",
    "transform_z",
    "default_dt",
    "step",
    "run",
    "write_snapshot",
    "read_snapshot",
]

SCHEMES = ("imex-be", "imex-cn")
NEGATIVITY_TRIGGER = 1e-9  # relative to the state scale
FMT = "%.17g"


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
        if not (self.t_end > 0):
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        if self.dt is not None and not (self.dt > 0):
            raise ConfigError(f"dt must be positive when given, got {self.dt}")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if self.retry_limit < 0:
            raise ConfigError(f"retry_limit must be >= 0, got {self.retry_limit}")


@dataclass
class SimState:
    """Time level with both species on a shared grid."""

    t: float
    u: Field
    v: Field

    def __post_init__(self) -> None:
        if self.u.grid != self.v.grid:
            raise ParameterError("u and v must live on the same grid")

    @property
    def grid(self) -> Grid:
        return self.u.grid

    def copy(self) -> "SimState":
        return SimState(self.t, self.u.copy(), self.v.copy())


def transform_w(state: SimState, p: ModelParams) -> Field:
    """Diffusion-weighted combination w = D u + v."""
    return Field(state.grid, p.D * state.u.values + state.v.values)


def transform_z(state: SimState) -> Field:
    """Total local density z = u + v (model-2 working variable)."""
    return Field(state.grid, state.u.values + state.v.values)


def default_dt(g: Grid, p: ModelParams) -> float:
    """Accuracy-motivated default step for the explicit reaction part."""
    h2 = min(h * h for h in g.spacings)
    return 0.125 * min(h2 / (2.0 * p.D), p.tau * h2 / 2.0)


# -- implicit solves ---------------------------------------------------


class _NeumannSolve:
    """S_alpha = (I - alpha lap)^-1 on a stack of fields in one FFT call.

    The mirror-ghost Laplacian is the periodic Laplacian restricted to even
    extensions of length 2(n-1) per axis, so S_alpha is exact and diagonal
    in Fourier space: extend, rfft, multiply by 1/(1 + alpha mu_k), invert,
    truncate.  The zero mode passes through untouched, so the solve moves
    the quadrature mean by round-off only and the drift does not build up
    with n or the step count.  Cost follows the FFT length: prefer n - 1
    with small prime factors.
    """

    def __init__(self, g: Grid) -> None:
        self.counts = g.counts
        self.ext = tuple(2 * (n - 1) for n in g.counts)
        mu = [_axis_discrete_eigenvalues(L, n) for L, n in zip(g.lengths, g.counts)]
        if g.dim == 1:
            self.mu = mu[0]
        else:  # rfft2 keeps the full length on the first axis
            self.mu = np.add.outer(np.concatenate((mu[0], mu[0][-2:0:-1])), mu[1])

    def factors(self, alphas: tuple[float, ...]) -> np.ndarray:
        """Fourier multipliers 1/(1 + alpha mu_k), one leading row per alpha."""
        return 1.0 / (1.0 + np.multiply.outer(alphas, self.mu))

    def __call__(self, rhs: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """Apply S to a stacked (k, *shape) array, row i with factors[i]."""
        if len(self.counts) == 1:
            spec = np.fft.rfft(np.concatenate((rhs, rhs[..., -2:0:-1]), axis=-1))
            spec *= factors
            return np.fft.irfft(spec, self.ext[0])[..., : self.counts[0]]
        ext = np.concatenate((rhs, rhs[..., -2:0:-1, :]), axis=-2)
        ext = np.concatenate((ext, ext[..., -2:0:-1]), axis=-1)
        spec = np.fft.rfft2(ext)
        spec *= factors
        nx, ny = self.counts
        return np.fft.irfft2(spec, self.ext)[..., :nx, :ny]


class _Stepper:
    """One-dt advancement with per-dt cached Fourier multipliers and AB2 state."""

    def __init__(
        self,
        g: Grid,
        p: ModelParams,
        cfg: SolverConfig,
        dt: float,
        source: Callable[[float], tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> None:
        self.p = p
        self.cfg = cfg
        self.dt = dt
        self.source = source
        self.f = reaction_rhs(p)
        self._solve = _NeumannSolve(g)
        self._factors: dict[float, np.ndarray] = {}
        self._prev_explicit: tuple[float, np.ndarray, np.ndarray] | None = None

    def _factors_for(self, dt: float) -> np.ndarray:
        """Multipliers of S_au and S_av; a = theta dt D and theta dt / tau."""
        if dt not in self._factors:
            a = 0.5 * dt if self.cfg.scheme == "imex-cn" else dt
            self._factors[dt] = self._solve.factors((a * self.p.D, a / self.p.tau))
        return self._factors[dt]

    def _explicit_terms(self, t: float, u: np.ndarray, v: np.ndarray):
        fv = self.f(u, v)
        eu = fv
        ev = -fv
        if self.source is not None:
            su, sv = self.source(t)
            eu = fv + su
            ev = -fv + sv
        return eu, ev

    def _single(self, t: float, u: np.ndarray, v: np.ndarray, dt: float):
        p = self.p
        eu, ev = self._explicit_terms(t, u, v)
        factors = self._factors_for(dt)
        if self.cfg.scheme == "imex-cn":
            prev = self._prev_explicit
            if prev is not None and prev[0] == dt:
                ru = 1.5 * eu - 0.5 * prev[1]
                rv = 1.5 * ev - 0.5 * prev[2]
            else:  # Euler bootstrap (first step / after a dt change)
                ru, rv = eu, ev
            self._prev_explicit = (dt, eu, ev)
            # S_a(u + a lap u + dt r) = S_a(2u + dt r) - u, as I + a lap = 2I - (I - a lap)
            rhs = np.stack((2.0 * u + dt * ru, 2.0 * v + (dt / p.tau) * rv))
            u2, v2 = self._solve(rhs, factors)
            return u2 - u, v2 - v
        self._prev_explicit = (dt, eu, ev)
        u2, v2 = self._solve(np.stack((u + dt * eu, v + (dt / p.tau) * ev)), factors)
        return u2, v2

    def advance(self, t: float, u: np.ndarray, v: np.ndarray):
        """Advance one nominal dt, bisecting the step on negativity."""
        return self._try(t, u, v, self.dt, self.cfg.retry_limit)

    def _try(self, t: float, u: np.ndarray, v: np.ndarray, dt: float, budget: int):
        scale = max(1.0, float(np.max(np.abs(u))), float(np.max(np.abs(v))))
        u2, v2 = self._single(t, u, v, dt)
        floor = -NEGATIVITY_TRIGGER * scale
        finite = bool(np.all(np.isfinite(u2)) and np.all(np.isfinite(v2)))
        if finite and float(np.min(u2)) >= floor and float(np.min(v2)) >= floor:
            return u2, v2
        if budget <= 0:
            if not finite:
                raise SolverError(
                    f"state turned non-finite at t = {t:.6g} "
                    "(dt-halving retries exhausted)"
                )
            raise SolverError(
                f"negativity persisted at t = {t:.6g} after exhausting dt-halving "
                f"retries (min u = {float(np.min(u2)):.3e}, min v = {float(np.min(v2)):.3e})"
            )
        # replace the step by two halved substeps; AB2 history is stale now
        self._prev_explicit = None
        um, vm = self._try(t, u, v, 0.5 * dt, budget - 1)
        self._prev_explicit = None
        out = self._try(t + 0.5 * dt, um, vm, 0.5 * dt, budget - 1)
        self._prev_explicit = None
        return out


def step(state: SimState, p: ModelParams, cfg: SolverConfig) -> SimState:
    """Advance a state by one step of cfg.dt (or the default dt).

    Convenience single-shot entry point; repeated stepping should go through
    :func:`run`, which reuses the cached Fourier multipliers.
    """
    dt = cfg.dt if cfg.dt is not None else default_dt(state.grid, p)
    stepper = _Stepper(state.grid, p, cfg, dt)
    u2, v2 = stepper.advance(state.t, state.u.values, state.v.values)
    return SimState(state.t + dt, Field(state.grid, u2), Field(state.grid, v2))


@dataclass
class RunResult:
    """Everything a finished run exposes to diagnostics and writers."""

    final_state: SimState
    records: list
    history: object
    lam0: float
    equilibrium: object | None
    dt: float
    n_steps: int


def run(
    ic: tuple[Field, Field],
    p: ModelParams,
    cfg: SolverConfig,
    on_record: Callable[[SimState, object], None] | None = None,
    source: Callable[[float], tuple[np.ndarray, np.ndarray]] | None = None,
) -> RunResult:
    """Advance the pair (u, v) from t = 0 to cfg.t_end.

    Emits a diagnostics record at t = 0, every cfg.stride steps and at the
    final time; snapshots of the fields at record times are retained so that
    energy-identity residuals can be attached after the run.  The conserved
    mass is recomputed from the initial data, never trusted from a config.

    Raises
    ------
    SolverError
        If negativity retries are exhausted or the state turns non-finite.
        Partial records/history are attached to the exception.
    """
    from . import diagnostics  # local import: diagnostics imports this module

    u0, v0 = ic
    g = u0.grid
    if v0.grid != g:
        raise ParameterError("initial fields must share one grid")
    if float(np.min(u0.values)) < 0.0 or float(np.min(v0.values)) < 0.0:
        raise ParameterError("initial data must be nonnegative")
    if float(np.max(u0.values)) == 0.0 and float(np.max(v0.values)) == 0.0:
        raise ParameterError("initial data must not vanish identically")

    lam0 = g.mean(u0.values + p.tau * v0.values)
    dt = cfg.dt if cfg.dt is not None else default_dt(g, p)
    n_steps = max(1, int(round(cfg.t_end / dt)))
    if abs(n_steps * dt - cfg.t_end) > 1e-8 * cfg.t_end:
        raise ConfigError(
            f"t_end = {cfg.t_end} is not an integer number of steps of dt = {dt}"
        )

    equilibrium = None
    if isinstance(p, Model4Params) and p.b > 0 and p.delta > 0:
        from .equilibrium import solve_equilibrium
        from .errors import EquilibriumError

        try:
            equilibrium = solve_equilibrium(p, lam0)
        except EquilibriumError:
            equilibrium = None

    builder = diagnostics.RecordBuilder(p, lam0, equilibrium)
    history = diagnostics.FieldHistory(g)
    records: list = []

    def emit(state: SimState) -> None:
        if not (np.all(np.isfinite(state.u.values)) and np.all(np.isfinite(state.v.values))):
            raise SolverError(f"state turned non-finite at t = {state.t:.6g}")
        rec = builder.build(state)
        records.append(rec)
        history.append(state)
        if on_record is not None:
            on_record(state, rec)

    stepper = _Stepper(g, p, cfg, dt, source)
    u = u0.values.copy()
    v = v0.values.copy()
    state = SimState(0.0, Field(g, u.copy()), Field(g, v.copy()))
    try:
        emit(state)
        for i in range(1, n_steps + 1):
            t_prev = (i - 1) * dt
            u, v = stepper.advance(t_prev, u, v)
            if i % cfg.stride == 0 or i == n_steps:
                state = SimState(i * dt, Field(g, u.copy()), Field(g, v.copy()))
                emit(state)
    except SolverError as exc:
        exc.partial_records = records  # type: ignore[attr-defined]
        exc.partial_history = history  # type: ignore[attr-defined]
        raise
    if len(records) >= 3:
        diagnostics.attach_identity_residuals(records, history, p)
    final = SimState(n_steps * dt, Field(g, u), Field(g, v))
    return RunResult(
        final_state=final,
        records=records,
        history=history,
        lam0=lam0,
        equilibrium=equilibrium,
        dt=dt,
        n_steps=n_steps,
    )


# -- plain-text snapshots ----------------------------------------------


def write_snapshot(path: str | Path, state: SimState, p: ModelParams, meta: dict | None = None) -> None:
    """Write one state as a plain-text table (columns x [y] u v w)."""
    g = state.grid
    w = transform_w(state, p).values
    lines = ["# polarsim snapshot"]
    for key in sorted(meta or {}):
        lines.append(f"# {key} = {meta[key]}")
    lines.append(f"# model = {model_name(p)}")
    lines.append("# t = " + FMT % state.t)
    if g.dim == 1:
        lines.append(f"# grid = interval {FMT % g.lengths[0]} {g.counts[0]}")
        lines.append("# columns = x u v w")
        x = g.coords()[0]
        for i in range(g.counts[0]):
            lines.append(
                " ".join(FMT % val for val in (x[i], state.u.values[i], state.v.values[i], w[i]))
            )
    else:
        lines.append(
            f"# grid = rectangle {FMT % g.lengths[0]} {FMT % g.lengths[1]} "
            f"{g.counts[0]} {g.counts[1]}"
        )
        lines.append("# columns = x y u v w")
        xs, ys = g.coords()
        for ix in range(g.counts[0]):
            for iy in range(g.counts[1]):
                lines.append(
                    " ".join(
                        FMT % val
                        for val in (
                            xs[ix],
                            ys[iy],
                            state.u.values[ix, iy],
                            state.v.values[ix, iy],
                            w[ix, iy],
                        )
                    )
                )
    Path(path).write_text("\n".join(lines) + "\n")


def read_snapshot(path: str | Path) -> tuple[float, Grid, np.ndarray, np.ndarray]:
    """Read back a snapshot written by :func:`write_snapshot`."""
    t = None
    g: Grid | None = None
    data: list[list[float]] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("# ").strip()
            if body.startswith("t ="):
                t = float(body.split("=", 1)[1])
            elif body.startswith("grid ="):
                parts = body.split("=", 1)[1].split()
                if parts[0] == "interval":
                    g = Grid.interval(float(parts[1]), int(parts[2]))
                elif parts[0] == "rectangle":
                    g = Grid.rectangle(float(parts[1]), float(parts[2]), int(parts[3]), int(parts[4]))
                else:
                    raise ConfigError(f"unknown grid spec in snapshot: {body!r}")
            continue
        data.append([float(tok) for tok in line.split()])
    if t is None or g is None or not data:
        raise ConfigError(f"snapshot file {path} is missing its header or data")
    arr = np.asarray(data)
    ncoord = g.dim
    u = arr[:, ncoord].reshape(g.shape)
    v = arr[:, ncoord + 1].reshape(g.shape)
    return t, g, u, v
