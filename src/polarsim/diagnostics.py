"""Measurements over simulation runs.

Covers the conserved mass, deviation norms, the two energy (Lyapunov)
functionals with their dissipation-identity residuals, the variational
energies whose critical points are the stationary states, the sufficient
convergence conditions, decay-rate estimation, and limit-set membership
checks.  The run monitors stream: :class:`RecordBuilder` reduces each
recorded state to scalars as it is made, keeping the fields of the last two
records only, and the fold functions combine those scalars at the end of
the run.  Nothing here feeds back into time stepping.

All integrals, norms, and inner products are volume-normalized, as in the
grid module; the continuum identities are homogeneous in that normalization,
so they hold verbatim for the normalized quantities.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tables
from .errors import DiagnosticsError, ParameterError
from .grid import Field, Grid, SimState, transform_z
from .kinetics import (
    Model1Params,
    Model2Params,
    Model4Params,
    ModelParams,
    alpha_sup,
    drift_primitive_model1,
    drift_primitive_model2,
)

__all__ = [
    "RECORD_COLUMNS",
    "DiagnosticsRecord",
    "RecordBuilder",
    "attach_identity_residuals",
    "ConditionReport",
    "check_coupling_condition",
    "check_contraction_condition",
    "sufficient_sigma",
    "check_sigma_condition",
    "lyapunov_model1",
    "lyapunov_model2",
    "variational_energy_model1",
    "variational_energy_model2",
    "DecayEstimate",
    "fit_decay_rate",
    "estimate_decay_rate",
    "OmegaLimitReport",
    "omega_limit_check",
    "PairingMonitor",
    "deviation_pairing_integral",
    "v_norm_sup",
    "write_diagnostics_table",
]

DEFAULT_C4 = 1.0
DECAY_FLOOR = 1e-13


@dataclass
class DiagnosticsRecord:
    """One row of run measurements.

    ``lyapunov`` and ``identity_residual`` are NaN where no energy
    functional is defined (the Hill-kinetics model) and at the first/last
    record (centered time differences need both neighbours); ``dist_star``
    is NaN when no homogeneous equilibrium is available.  Everything else
    is finite on a healthy run.
    """

    t: float
    lam: float
    u_mean: float
    v_mean: float
    w_mean: float
    u_dev_l2: float
    u_dev_linf: float
    v_dev_linf: float
    w_dev_l2: float
    lyapunov: float
    identity_residual: float
    dist_star: float

    def row(self) -> tuple[float, ...]:
        """The values in :data:`RECORD_COLUMNS` order."""
        return _record_row(self)


# the record field of each table column; the mass ``lam`` is written as ``lambda``
_COLUMN_FIELDS = {{"lam": "lambda"}.get(f.name, f.name): f.name for f in fields(DiagnosticsRecord)}
RECORD_COLUMNS = tuple(_COLUMN_FIELDS)
_record_row = operator.attrgetter(*_COLUMN_FIELDS.values())


# -- energy functionals ------------------------------------------------


def lyapunov_model1(u: Field, w: Field, p: Model1Params) -> float:
    """Energy xi*[ (D/2)||grad u||^2 - mean(Q(u)) ] + (tau k / 2)||w||^2.

    Along solutions of the (u, w) form of the bistable-drift model this is
    non-increasing, dissipating at rate xi*||u_t||^2 + k*||grad w||^2; the
    semi-discrete analogue holds exactly because the quadrature pairs the
    mirror-image Laplacian with the cellwise gradient form.
    """
    g = u.grid
    if w.grid != g:
        raise ParameterError("u and w must share one grid")
    grad_part = 0.5 * p.D * g.dirichlet_form(u.values, u.values)
    drift_part = g.mean(drift_primitive_model1(p, u.values))
    return p.xi * (grad_part - drift_part) + 0.5 * p.tau * p.k * g.inner(w.values, w.values)


def lyapunov_model2(z: Field, w: Field, p: Model2Params) -> float:
    """Energy for the saturating-exchange model in (z, w) variables.

    (alpha+D)/2 ||grad w||^2 + (k/2)||w||^2 + (xi D/2)||grad z||^2 - xi mean(G(z)),
    with the coupling constant k set to alpha1; it dissipates at rate
    xi||z_t||^2 + ||w_t||^2 + alpha D ||lap w||^2 + alpha k ||grad w||^2.
    """
    g = z.grid
    if w.grid != g:
        raise ParameterError("z and w must share one grid")
    k = p.alpha1
    return (
        0.5 * (p.alpha + p.D) * g.dirichlet_form(w.values, w.values)
        + 0.5 * k * g.inner(w.values, w.values)
        + 0.5 * p.xi * p.D * g.dirichlet_form(z.values, z.values)
        - p.xi * g.mean(drift_primitive_model2(p, z.values))
    )


def variational_energy_model1(v: Field, p: Model1Params, lam: float) -> float:
    """Functional whose critical points are the stationary u-profiles.

    (D/2)||grad v||^2 - mean(Q(v)) - (k/tau) lam mean(v) + (k xi / (2 tau)) mean(v)^2.
    The sign of the nonlocal squared-mean term is fixed by requiring the
    Gateaux derivative to reproduce the nonlocal stationary equation
    -D lap u = q(u) + (k/tau)(lam - xi*mean(u)); see the directional
    derivative test for the verification.
    """
    g = v.grid
    m = g.mean(v.values)
    return (
        0.5 * p.D * g.dirichlet_form(v.values, v.values)
        - g.mean(drift_primitive_model1(p, v.values))
        - (p.k / p.tau) * lam * m
        + (p.k * p.xi / (2.0 * p.tau)) * m * m
    )


def variational_energy_model2(z: Field, p: Model2Params, lam: float) -> float:
    """Functional whose critical points are the stationary z-profiles.

    (D/2)||grad z||^2 - mean(G(z)) - k lam mean(z) + (k xi / 2) mean(z)^2,
    with k = alpha1 and lam the conserved combination mean(xi z + w).
    """
    g = z.grid
    k = p.alpha1
    m = g.mean(z.values)
    return (
        0.5 * p.D * g.dirichlet_form(z.values, z.values)
        - g.mean(drift_primitive_model2(p, z.values))
        - k * lam * m
        + 0.5 * k * p.xi * m * m
    )


# -- records -----------------------------------------------------------


class RecordBuilder:
    """Builds the DiagnosticsRecords of one run (fixed params and mass).

    Each :meth:`build` also streams the scalars the run monitors fold at the
    end: the deviation pairing integrand (``pairing``), ``||v||_2``
    (``v_norms``) and, for the models with an energy, the dissipation rate
    at the previous record (``dissipation``, one per interior record), from
    centered time differences over the last three records.  The builder
    keeps the fields of the last two records for that and nothing more, so
    a run's memory does not grow with its length.

    ``uniform_times`` selects numpy.gradient's equal-spacing formula for
    those differences.  numpy takes it when every spacing of the whole time
    array is exactly equal, which a three-record window cannot tell, so the
    run passes its choice (from its planned record times) and the streamed
    values equal whole-run ``np.gradient`` bit for bit.
    """

    def __init__(
        self, p: ModelParams, lam0: float, equilibrium=None, uniform_times: bool = False
    ) -> None:
        self.p = p
        self.lam0 = lam0
        self.equilibrium = equilibrium
        self.uniform_times = uniform_times
        self.pairing: list[float] = []
        self.v_norms: list[float] = []
        self.dissipation: list[float] = []
        self._window: list[tuple[float, np.ndarray, np.ndarray]] = []

    def build(self, state: SimState) -> DiagnosticsRecord:
        p = self.p
        g = state.grid
        u = state.u.values
        v = state.v.values
        w = p.D * u + v
        mass = u + p.tau * v
        lam_t = g.mean(mass)
        u_mean, v_mean, w_mean = g.mean(u), g.mean(v), g.mean(w)
        ud = u - u_mean
        vd = v - v_mean
        wd = w - w_mean
        if isinstance(p, Model1Params):
            lyap = lyapunov_model1(state.u, Field(g, w), p)
            self._slide(g, state.t, u, w)
        elif isinstance(p, Model2Params):
            z = transform_z(state)
            lyap = lyapunov_model2(z, Field(g, w), p)
            self._slide(g, state.t, z.values, w)
        else:
            lyap = math.nan
        self.pairing.append(g.inner(wd, mass - self.lam0))
        self.v_norms.append(g.l2_norm(v))
        if self.equilibrium is not None:
            dist = max(
                g.linf_norm(u - self.equilibrium.u_star),
                g.linf_norm(v - self.equilibrium.v_star),
            )
        else:
            dist = math.nan
        return DiagnosticsRecord(
            t=state.t,
            lam=lam_t,
            u_mean=u_mean,
            v_mean=v_mean,
            w_mean=w_mean,
            u_dev_l2=g.l2_norm(ud),
            u_dev_linf=g.linf_norm(ud),
            v_dev_linf=g.linf_norm(vd),
            w_dev_l2=g.l2_norm(wd),
            lyapunov=lyap,
            identity_residual=math.nan,
            dist_star=dist,
        )

    def _slide(self, g: Grid, t: float, a: np.ndarray, w: np.ndarray) -> None:
        """Window in (t, a, w), a = u (model 1) or z (model 2); rate at its middle."""
        win = self._window
        win.append((t, a, w))
        if len(win) < 3:
            return
        (t0, a0, w0), (t1, a1, w1), (t2, a2, w2) = win
        del win[0]
        times = (t0, t1, t2)
        p = self.p
        a_t = _centered_difference(times, (a0, a1, a2), self.uniform_times)
        if isinstance(p, Model1Params):
            diss = p.xi * g.inner(a_t, a_t) + p.k * g.dirichlet_form(w1, w1)
        else:
            w_t = _centered_difference(times, (w0, w1, w2), self.uniform_times)
            lap_w = g.laplacian(w1)
            diss = (
                p.xi * g.inner(a_t, a_t)
                + g.inner(w_t, w_t)
                + p.alpha * p.D * g.inner(lap_w, lap_w)
                + p.alpha * p.alpha1 * g.dirichlet_form(w1, w1)
            )
        self.dissipation.append(diss)


def _centered_difference(t, f, uniform: bool) -> np.ndarray:
    """Time derivative at the middle of three records, as numpy.gradient forms it.

    ``uniform`` is numpy's branch for the whole run's time array; the
    non-uniform weights and their evaluation order are numpy's.
    """
    (t0, t1, t2), (f0, f1, f2) = t, f
    if uniform:
        return (f2 - f0) / (2.0 * (t1 - t0))
    dx1 = t1 - t0
    dx2 = t2 - t1
    a = -dx2 / (dx1 * (dx1 + dx2))
    b = (dx2 - dx1) / (dx1 * dx2)
    c = dx1 / (dx2 * (dx1 + dx2))
    return a * f0 + b * f1 + c * f2


def attach_identity_residuals(
    records: Sequence[DiagnosticsRecord], dissipation: Sequence[float], p: ModelParams
) -> None:
    """Fill the identity_residual column from the streamed dissipation rates.

    The residual at an interior record i is the violation of the energy
    dissipation identity, |dL/dt + dissipation[i - 1]|, with dL/dt the
    centered difference of the ``lyapunov`` column over the record times and
    the dissipation rates of :class:`RecordBuilder` (second order on the
    record spacing; for first-order accuracy tie the record stride to dt).
    First and last records keep NaN.  For the Hill-kinetics model, which has
    no energy functional here, all residuals stay NaN.
    """
    if isinstance(p, Model4Params):
        return
    n = len(records)
    if n < 3:
        raise DiagnosticsError(f"need at least 3 records for residuals, got {n}")
    if len(dissipation) != n - 2:
        raise DiagnosticsError("records and dissipation rates are out of step")
    t = np.array([r.t for r in records])
    dL = np.gradient(np.array([r.lyapunov for r in records]), t)
    for i, diss in enumerate(dissipation, start=1):
        records[i].identity_residual = abs(dL[i] + diss)


# -- sufficient conditions ---------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one inequality check, with everything needed to audit it."""

    name: str
    lhs: float
    rhs: float
    satisfied: bool
    mu2: float
    mu2_mode: str
    sigma: float | None = None
    sigma_source: str | None = None
    C4: float | None = None
    alt_lhs: float | None = None
    alt_satisfied: bool | None = None
    note: str = ""


def _require_positive(name: str, val: float) -> None:
    if not (0 < val < math.inf):
        raise ParameterError(f"{name} must be positive and finite, got {val}")


def _finite_sides(name: str):
    """Refuse a verdict whose sides leave the float range: ParameterError, not a report on inf."""

    def wrap(check):
        @functools.wraps(check)
        def checked(*args, **kwargs) -> ConditionReport:
            try:
                r = check(*args, **kwargs)
            except OverflowError:  # a float power out of range
                r = None
            sides = () if r is None else (r.lhs, r.rhs, r.alt_lhs, r.sigma)
            if r is None or not all(math.isfinite(x) for x in sides if x is not None):
                raise ParameterError(f"the {name} condition overflows the float range for these parameters")
            return r

        return checked

    return wrap


@_finite_sides("coupling")
def check_coupling_condition(
    p: Model4Params, mu2: float, mu2_mode: str = "continuum"
) -> ConditionReport:
    """Check 2|xi| a1 < tau^3 (mu2 D + delta).

    This is the smallness-of-coupling hypothesis under which the energy
    estimates close.  The squared variant 2 xi^2 a1 < tau^3 (mu2 D + delta)
    arises from an alternative reading of the underlying estimate chain and
    differs in dimensions; both are evaluated and reported, the printed
    |xi| form decides ``satisfied``.
    """
    _require_positive("mu2", mu2)
    rhs = p.tau**3 * (mu2 * p.D + p.delta)
    lhs = 2.0 * abs(p.xi) * p.a1
    alt_lhs = 2.0 * p.xi**2 * p.a1
    return ConditionReport(
        name="coupling",
        lhs=lhs,
        rhs=rhs,
        satisfied=lhs < rhs,
        mu2=mu2,
        mu2_mode=mu2_mode,
        alt_lhs=alt_lhs,
        alt_satisfied=alt_lhs < rhs,
        note="alt_* entries use the squared-coupling variant 2 xi^2 a1",
    )


@_finite_sides("contraction")
def check_contraction_condition(
    p: Model4Params,
    lam: float,
    mu2: float,
    C4: float = DEFAULT_C4,
    mu2_mode: str = "continuum",
) -> ConditionReport:
    """Check a1 (1 + 1/(2 tau)) + (4/D) (alpha_sup C4 lam / mu2)^2 <= (D mu2 + delta)/2.

    C4 is the embedding/semigroup constant that the underlying analysis
    never pins down numerically; it must be supplied (default 1) and is
    echoed in the report so no check silently depends on a hidden constant.
    """
    _require_positive("mu2", mu2)
    _require_positive("C4", C4)
    _require_positive("lam", lam)
    sup = alpha_sup(p)
    lhs = p.a1 * (1.0 + 1.0 / (2.0 * p.tau)) + (4.0 / p.D) * (sup * C4 * lam / mu2) ** 2
    rhs = 0.5 * (p.D * mu2 + p.delta)
    return ConditionReport(
        name="contraction",
        lhs=lhs,
        rhs=rhs,
        satisfied=lhs <= rhs,
        mu2=mu2,
        mu2_mode=mu2_mode,
        C4=C4,
    )


def sufficient_sigma(p: Model4Params, mu2: float, C4: float = DEFAULT_C4) -> float:
    """A sigma making the aggregated condition imply the contraction one.

    Take sigma = max(2 a1 (1 + 1/(2 tau)), 8 (alpha_sup C4 / mu2)^2).  If
    sigma (1 + lam^2/D) <= D mu2 + delta then, writing the left side as
    sigma + sigma lam^2/D and bounding each term by the corresponding
    component of the max,

        2 a1 (1 + 1/(2 tau))          <= sigma,
        8 (alpha_sup C4 / mu2)^2 lam^2/D <= sigma lam^2/D,

    so their sum is at most D mu2 + delta; dividing by two gives exactly
    the contraction inequality.  The second component's 1/mu2^2 scaling is
    forced by the lam/mu2 pairing in the contraction term (a single 1/mu2
    would break the implication whenever mu2 < 1).
    """
    _require_positive("mu2", mu2)
    _require_positive("C4", C4)
    return max(
        2.0 * p.a1 * (1.0 + 1.0 / (2.0 * p.tau)),
        8.0 * (alpha_sup(p) * C4 / mu2) ** 2,
    )


@_finite_sides("sigma")
def check_sigma_condition(
    p: Model4Params,
    lam: float,
    mu2: float,
    sigma: float | None = None,
    C4: float = DEFAULT_C4,
    mu2_mode: str = "continuum",
) -> ConditionReport:
    """Check sigma (1 + lam^2/D) <= D mu2 + delta.

    With sigma omitted, the constructed :func:`sufficient_sigma` is used and
    the report marks the provenance as "derived"; a user-supplied sigma is
    marked "user".  Satisfaction with the derived sigma implies the
    contraction condition (property-tested).
    """
    _require_positive("mu2", mu2)
    _require_positive("C4", C4)
    _require_positive("lam", lam)
    if sigma is None:
        sigma_val = sufficient_sigma(p, mu2, C4)
        source = "derived"
    else:
        _require_positive("sigma", sigma)
        sigma_val = float(sigma)
        source = "user"
    lhs = sigma_val * (1.0 + lam**2 / p.D)
    rhs = p.D * mu2 + p.delta
    return ConditionReport(
        name="sigma",
        lhs=lhs,
        rhs=rhs,
        satisfied=lhs <= rhs,
        mu2=mu2,
        mu2_mode=mu2_mode,
        sigma=sigma_val,
        sigma_source=source,
        C4=C4,
    )


# -- decay estimation --------------------------------------------------


@dataclass(frozen=True)
class DecayEstimate:
    """Exponential decay rate fitted over the trailing record window.

    rate = +inf with converged = True is the sentinel for "already at
    round-off everywhere in the window"; otherwise rate is minus the
    least-squares slope of log(value) vs t (positive when decaying).
    """

    rate: float
    converged: bool
    t_window: tuple[float, float]
    n_fit: int


def fit_decay_rate(
    times: Sequence[float],
    values: Sequence[float],
    window_frac: float = 0.5,
    floor: float = DECAY_FLOOR,
) -> DecayEstimate:
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise DiagnosticsError("times and values must be equal-length 1-D sequences")
    if t.size < 10:
        raise DiagnosticsError(f"need at least 10 records to fit a rate, got {t.size}")
    if not (0 < window_frac <= 1):
        raise DiagnosticsError(f"window_frac must be in (0, 1], got {window_frac}")
    start = int(round(t.size * (1.0 - window_frac)))
    start = min(start, t.size - 2)
    tw = t[start:]
    yw = y[start:]
    if np.any(~np.isfinite(yw)) or np.any(yw < 0):
        raise DiagnosticsError("decay window contains negative or non-finite values")
    mask = yw > floor
    if int(mask.sum()) < 2:
        return DecayEstimate(
            rate=math.inf,
            converged=True,
            t_window=(float(tw[0]), float(tw[-1])),
            n_fit=0,
        )
    slope = float(np.polyfit(tw[mask], np.log(yw[mask]), 1)[0])
    return DecayEstimate(
        rate=-slope,
        converged=False,
        t_window=(float(tw[0]), float(tw[-1])),
        n_fit=int(mask.sum()),
    )


def estimate_decay_rate(
    records: Sequence[DiagnosticsRecord],
    column: str = "u_dev_linf",
    window_frac: float = 0.5,
    floor: float = DECAY_FLOOR,
) -> DecayEstimate:
    """Fit the decay rate of one record column over the trailing window."""
    if column not in _COLUMN_FIELDS:
        raise DiagnosticsError(f"unknown record column {column!r}")
    times = [r.t for r in records]
    values = [getattr(r, _COLUMN_FIELDS[column]) for r in records]
    return fit_decay_rate(times, values, window_frac=window_frac, floor=floor)


# -- limit-set and estimate monitors -----------------------------------


@dataclass(frozen=True)
class OmegaLimitReport:
    """Final-state placement relative to the homogeneous line and equilibrium."""

    mass_gap: float
    tol: float
    u_gap: float
    v_gap: float
    converged: bool


def omega_limit_check(
    state: SimState,
    p: ModelParams,
    lam: float,
    tol: float = 1e-6,
    equilibrium=None,
) -> OmegaLimitReport:
    """Assert membership of the mean state in the conserved-mass line.

    Raises DiagnosticsError when |mean(u) + tau mean(v) - lam| > tol*lam —
    on a completed run that indicates broken conservation, not slow mixing.
    Distances to the given homogeneous equilibrium are reported, not
    asserted: outside the convergent regime the limit set may contain other
    states.  Without an equilibrium (none exists, or it is not unique) the
    distances are NaN.
    """
    g = state.grid
    um = g.mean(state.u.values)
    vm = g.mean(state.v.values)
    mass_gap = abs(um + p.tau * vm - lam)
    _require_positive("lam", lam)
    if mass_gap > tol * lam:
        raise DiagnosticsError(
            f"mean state left the conserved-mass line: |u_mean + tau v_mean - lam| = "
            f"{mass_gap:.3e} > {tol:g} * {lam:g}"
        )
    if equilibrium is not None:
        u_gap = abs(um - equilibrium.u_star)
        v_gap = abs(vm - equilibrium.v_star)
        converged = u_gap <= tol and v_gap <= tol
    else:
        u_gap = math.nan
        v_gap = math.nan
        converged = False
    return OmegaLimitReport(
        mass_gap=mass_gap, tol=tol, u_gap=u_gap, v_gap=v_gap, converged=converged
    )


@dataclass(frozen=True)
class PairingMonitor:
    """Running time integral of the deviation pairing (w - mean w, u + tau v - lam).

    The integrand pairs the diffusion-weighted deviation with the local mass
    deviation; its time integral is the quantity bounded a priori in the
    convergence analysis.  ``running`` is the cumulative trapezoid value at
    each record time and ``sup`` its maximum over the run.
    """

    times: np.ndarray
    integrand: np.ndarray
    running: np.ndarray
    sup: float


def deviation_pairing_integral(
    times: Sequence[float], integrand: Sequence[float]
) -> PairingMonitor:
    """Integrate the per-record pairing integrand (``RecordBuilder.pairing``) in time."""
    if len(times) < 2:
        raise DiagnosticsError("need at least 2 records to integrate in time")
    if len(integrand) != len(times):
        raise DiagnosticsError("times and integrand values are out of step")
    t = np.asarray(times, dtype=float)
    vals = np.asarray(integrand, dtype=float)
    increments = 0.5 * (vals[1:] + vals[:-1]) * np.diff(t)
    running = np.concatenate([[0.0], np.cumsum(increments)])
    return PairingMonitor(times=t, integrand=vals, running=running, sup=float(np.max(running)))


def v_norm_sup(
    times: Sequence[float], v_norms: Sequence[float], lam: float, t_min: float = 1.0
) -> float:
    """Empirical sup of ||v||_2 / lam over record times t >= t_min.

    ``v_norms`` are the per-record ``||v||_2`` (``RecordBuilder.v_norms``).
    Monitors the a priori bound that keeps the slow species proportional to
    the conserved mass after an initial smoothing interval.  NaN when no
    record lies in the window.
    """
    _require_positive("lam", lam)
    vals = [norm / lam for t, norm in zip(times, v_norms) if t >= t_min]
    return max(vals) if vals else math.nan


# -- output ------------------------------------------------------------


def write_diagnostics_table(
    path: str | Path, records: Sequence[DiagnosticsRecord], meta: dict | None = None
) -> None:
    """Write records as a plain-text table, one row per record.

    Header lines carry the run metadata (params, grid, solver config, seed,
    sigma/C4 provenance) as '# key = value' pairs in sorted key order, then
    the column list.  Full double precision; bit-stable for identical
    inputs.
    """
    rows = tables.format_rows([rec.row() for rec in records])
    tables.write_table(path, "diagnostics", sorted((meta or {}).items()), RECORD_COLUMNS, rows)
