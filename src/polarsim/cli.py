"""Command-line entry points: simulate, equilibrium, ode, check, scan, sweep.

Exit codes are a stable contract: 0 on success, 2 for configuration or
usage errors, 3 for runtime failures (solver breakdown, failed invariant,
a stdout closed before the output was delivered).
Every output file starts with provenance headers including the config hash;
reruns with identical inputs produce bit-identical files (no timestamps,
fixed float formatting).  Files and printed tables are laid out by
:mod:`polarsim.tables`.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import diagnostics as diag
from .config import (
    ScenarioConfig,
    build_initial_condition,
    load_scenario,
)
from .equilibrium import (
    constant_a_equilibrium,
    integrate_homogeneous_ode,
    solve_equilibrium,
)
from .errors import (
    ConfigError,
    DiagnosticsError,
    ParameterError,
    PolarsimError,
    SolverError,
)
from .grid import EIGENVALUE_MODES, Grid, second_eigenvalue
from .kinetics import Model4Params
from .linearization import scan_degeneracy
from .solver import RunResult, batch_key, run, write_snapshot
from .tables import fmt, format_rows, format_table, write_table

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
CONDITION_COLUMNS = ("name", "satisfied", "lhs", "rhs", "extras")


# -- shared argument groups --------------------------------------------


def _add_model4_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--D", type=float, default=4.0, help="diffusivity of the fast species (default 4)")
    sp.add_argument("--tau", type=float, default=1.0, help="time-scale ratio (default 1)")
    sp.add_argument("--b", type=float, default=1.0, help="activation scale (default 1)")
    sp.add_argument("--gamma", type=float, default=1.0, help="Hill gain (default 1)")
    sp.add_argument("--k", type=float, default=1.0, help="Hill half-saturation (default 1)")
    sp.add_argument("--k0", type=float, default=0.1, help="basal activation (default 0.1)")
    sp.add_argument("--delta", type=float, default=1.0, help="deactivation rate (default 1)")
    sp.add_argument("--m", type=float, default=2.0, help="Hill exponent (default 2)")
    sp.add_argument("--lam", type=float, default=1.0, help="conserved mass (default 1)")


def _params_from_args(args: argparse.Namespace) -> Model4Params:
    return Model4Params(**{f.name: getattr(args, f.name) for f in fields(Model4Params)})


def _add_mu2_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--length", type=float, default=1.0, help="interval length for mu_j (default 1)")
    sp.add_argument("--n", type=int, default=256, help="grid points for discrete mu_j (default 256)")
    sp.add_argument(
        "--mu2",
        choices=EIGENVALUE_MODES,
        default="continuum",
        help="use the continuum (j pi/L)^2 eigenvalues or their grid counterparts",
    )


def _add_override_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, help="override the random-IC seed")
    sp.add_argument("--c4", type=float, help="override the C4 constant")
    sp.add_argument("--sigma", type=float, help="override sigma (default: derived)")
    sp.add_argument("--mu2", choices=EIGENVALUE_MODES, help="override mu2 mode")


def _scenario_from_args(args: argparse.Namespace, config: str | Path, out: str | None) -> ScenarioConfig:
    return load_scenario(config, out=out, seed=args.seed, c4=args.c4, sigma=args.sigma, mu2=args.mu2)


# -- condition reporting -----------------------------------------------


def _condition_reports(
    p: Model4Params,
    lam: float,
    mu2: float,
    mu2_mode: str,
    c4: float,
    sigma: float | None,
) -> list[diag.ConditionReport]:
    return [
        diag.check_coupling_condition(p, mu2, mu2_mode),
        diag.check_contraction_condition(p, lam, mu2, c4, mu2_mode),
        diag.check_sigma_condition(p, lam, mu2, sigma, c4, mu2_mode),
    ]


def _condition_rows(reports: list[diag.ConditionReport]) -> str:
    """One line per report, in the order of CONDITION_COLUMNS."""
    lines = []
    for r in reports:
        extras = [f"mu2={fmt(r.mu2)}", f"mu2_mode={r.mu2_mode}"]
        if r.C4 is not None:
            extras.append(f"c4={fmt(r.C4)}")
        if r.sigma is not None:
            extras.append(f"sigma={fmt(r.sigma)}")
            extras.append(f"sigma_source={r.sigma_source}")
        if r.alt_lhs is not None:
            extras.append(f"alt_lhs={fmt(r.alt_lhs)}")
            extras.append(f"alt_satisfied={'yes' if r.alt_satisfied else 'no'}")
        lines.append(
            f"{r.name} {'yes' if r.satisfied else 'no'} {fmt(r.lhs)} {fmt(r.rhs)} "
            + " ".join(extras)
        )
    return "\n".join(lines)


def _report(exc: PolarsimError, where: str | None = None) -> int:
    """Print an error on stderr, prefixed by its kind and ``where``; returns its exit code."""
    if isinstance(exc, ConfigError):
        kind, code = "config error", EXIT_CONFIG
    elif isinstance(exc, ParameterError):
        kind, code = "parameter error", EXIT_CONFIG
    else:
        kind, code = "error", EXIT_RUNTIME
    if where is not None:
        kind += f" in {where}"
    print(f"{kind}: {exc}", file=sys.stderr)
    return code


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from None


# -- scenario execution (simulate + sweep members) --------------------


class _Scenario:
    """One scenario's initial condition, output headers and record callback."""

    def __init__(self, scn: ScenarioConfig) -> None:
        self.scn = scn
        _make_dir(scn.out_dir)
        self.ic = build_initial_condition(scn)
        p = scn.params
        self.meta = {
            "config": scn.config_hash,
            "model": p.name,
            "params": repr(p),
            "scheme": scn.solver.scheme,
            "stride": scn.solver.stride,
            "c4": fmt(scn.c4),
            "sigma": "derived" if scn.sigma is None else fmt(scn.sigma),
            "mu2_mode": scn.mu2_mode,
            "seed": "none" if scn.seed is None else str(scn.seed),
        }
        self.record_index = 0
        self.write_error: ConfigError | None = None  # a snapshot that could not be written

    def on_record(self, state, rec) -> None:
        idx = self.record_index
        self.record_index += 1
        every = self.scn.snapshot_every
        if every > 0 and idx % every == 0 and self.write_error is None:
            try:
                write_snapshot(self.scn.out_dir / f"state_{idx:05d}.txt", state, self.scn.params, self.meta)
            except ConfigError as exc:  # ends this scenario only, not its batch
                self.write_error = exc


def _write_outputs(
    job: _Scenario, result: RunResult | SolverError, where: str | None
) -> tuple[int, dict]:
    """Write all outputs of a finished run; returns (exit code, summary metrics).

    A solver failure keeps the partial diagnostics table and the last
    recorded state, and is printed with ``where`` as :func:`_report` does.
    """
    scn, meta = job.scn, job.meta
    p = scn.params
    out = scn.out_dir
    metrics: dict = {"status": "ok"}
    if isinstance(result, SolverError):
        if result.partial_records:
            diag.write_diagnostics_table(out / "diagnostics.txt", result.partial_records, meta)
        if result.partial_state is not None:
            write_snapshot(out / "last_state.txt", result.partial_state, p, meta)
        metrics["status"] = f"failed: {result}"
        _write_summary(out / "summary.txt", meta, [("status", metrics["status"])])
        kind = "run failed" if where is None else f"run failed in {where}"
        print(f"{kind}: {result}", file=sys.stderr)
        return EXIT_RUNTIME, metrics

    records = result.records
    meta_run = dict(meta)
    meta_run["lam"] = fmt(result.lam0)
    meta_run["dt"] = fmt(result.dt)
    meta_run["n_steps"] = str(result.n_steps)
    diag.write_diagnostics_table(out / "diagnostics.txt", records, meta_run)
    write_snapshot(out / "final_state.txt", result.final_state, p, meta_run)

    pairs: list[tuple[str, str]] = [
        ("model", p.name),
        ("lam", fmt(result.lam0)),
        ("dt", fmt(result.dt)),
        ("n_steps", str(result.n_steps)),
        ("n_records", str(len(records))),
    ]
    if result.equilibrium is not None:
        pairs.append(("u_star", fmt(result.equilibrium.u_star)))
        pairs.append(("v_star", fmt(result.equilibrium.v_star)))

    lam_drift = max(abs(r.lam - result.lam0) for r in records) / result.lam0
    final = records[-1]
    pairs.append(("mass_drift_rel_max", fmt(lam_drift)))
    pairs.append(("u_dev_linf_final", fmt(final.u_dev_linf)))
    pairs.append(("w_dev_l2_final", fmt(final.w_dev_l2)))
    metrics["u_dev_linf_final"] = final.u_dev_linf

    rate_str = "n/a"
    metrics["decay_rate"] = math.nan
    try:
        est = diag.estimate_decay_rate(records, "u_dev_linf")
        rate_str = fmt(est.rate)
        metrics["decay_rate"] = est.rate
        pairs.append(("decay_rate_u_dev_linf", rate_str))
        pairs.append(("decay_window_converged", "yes" if est.converged else "no"))
    except DiagnosticsError:
        pairs.append(("decay_rate_u_dev_linf", rate_str))

    exit_code = EXIT_OK
    try:
        om = diag.omega_limit_check(
            result.final_state, p, result.lam0, tol=1e-6, equilibrium=result.equilibrium
        )
        pairs.append(("mass_line_gap", fmt(om.mass_gap)))
        pairs.append(("mass_line_check", "pass"))
        if not math.isnan(om.u_gap):
            pairs.append(("omega_u_gap", fmt(om.u_gap)))
            pairs.append(("omega_v_gap", fmt(om.v_gap)))
            pairs.append(("omega_converged", "yes" if om.converged else "no"))
    except DiagnosticsError as exc:
        pairs.append(("mass_line_check", f"FAIL: {exc}"))
        metrics["status"] = "failed: mass conservation"
        exit_code = EXIT_RUNTIME

    pairs.append(("pairing_integral_final", fmt(result.pairing.running[-1])))
    pairs.append(("pairing_integral_sup", fmt(result.pairing.sup)))
    vsup = result.v_norm_sup
    pairs.append(("v_norm_sup_from_t1", fmt(vsup) if not math.isnan(vsup) else "n/a"))

    header = [("config", scn.config_hash)]
    if isinstance(p, Model4Params):
        mu2 = second_eigenvalue(scn.grid, scn.mu2_mode)
        reports = _condition_reports(p, result.lam0, mu2, scn.mu2_mode, scn.c4, scn.sigma)
        rows = _condition_rows(reports)
        write_table(out / "conditions.txt", "conditions", header, CONDITION_COLUMNS, rows)
        for r in reports:
            pairs.append((f"condition_{r.name}", "pass" if r.satisfied else "fail"))
    else:
        note = "# the sufficient conditions are defined for the Hill-kinetics model only"
        write_table(out / "conditions.txt", "conditions", header, body=note)

    pairs.append(("status", metrics["status"]))
    _write_summary(out / "summary.txt", meta, pairs)
    return exit_code, metrics


def _run_scenarios(jobs: list[tuple[str | None, ScenarioConfig]]) -> list[tuple[int, dict]]:
    """Execute scenarios; returns (exit code, summary metrics) per scenario.

    Each is paired with where :func:`_report` places its errors, and all are
    set up before those sharing a :func:`batch_key` go through one call of
    :func:`run`.  An error at set-up, in the run or while writing ends that
    scenario only; a solver failure keeps its partial outputs.
    """
    results: list = [None] * len(jobs)
    batches: dict[tuple, list[tuple[int, _Scenario]]] = {}
    for i, (where, scn) in enumerate(jobs):
        try:
            job = _Scenario(scn)
        except PolarsimError as exc:
            results[i] = _report(exc, where), {"status": f"failed: {exc}"}
            continue
        batches.setdefault(batch_key(scn.grid, scn.params, scn.solver), []).append((i, job))
    for members in batches.values():
        outcomes = run(
            [job.ic for _, job in members],
            [job.scn.params for _, job in members],
            members[0][1].scn.solver,
            on_record=[job.on_record for _, job in members],
        )
        for (i, job), outcome in zip(members, outcomes):
            try:
                if not isinstance(outcome, (RunResult, SolverError)):
                    raise outcome  # a set-up error found by run
                if job.write_error is not None:
                    raise job.write_error
                results[i] = _write_outputs(job, outcome, jobs[i][0])
            except PolarsimError as exc:
                results[i] = _report(exc, jobs[i][0]), {"status": f"failed: {exc}"}
    return results


def run_scenario(scn: ScenarioConfig) -> tuple[int, dict]:
    """Execute one scenario: :func:`_run_scenarios` of it alone."""
    return _run_scenarios([(None, scn)])[0]


def _write_summary(path: Path, meta: dict, pairs: list[tuple[str, str]]) -> None:
    body = "\n".join(f"{key} = {val}" for key, val in pairs)
    write_table(path, "summary", [("config", meta["config"])], body=body)


# -- subcommands -------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    scn = _scenario_from_args(args, args.config, args.out)
    code, metrics = run_scenario(scn)
    if code == EXIT_OK:
        print(f"completed; outputs in {scn.out_dir}")
        print(f"status = {metrics['status']}")
    return code


def cmd_equilibrium(args: argparse.Namespace) -> int:
    p = _params_from_args(args)
    trace: list = []
    eq = solve_equilibrium(p, args.lam, trace=trace)
    print(f"model = {p.name}")
    print(f"lam = {fmt(args.lam)}")
    print(f"u_star = {fmt(eq.u_star)}")
    print(f"v_star = {fmt(eq.v_star)}")
    print(f"residual = {fmt(eq.residual)}")
    if p.gamma == 0.0:
        closed = constant_a_equilibrium(p.a0, p.tau, p.delta, args.lam)
        print(f"constant_a_u_star = {fmt(closed)}")
        print(f"constant_a_gap = {fmt(abs(closed - eq.u_star))}")
    print("# bisection trace: iter lo hi F_mid")
    if trace:
        print(format_rows(trace))
    return EXIT_OK


def cmd_ode(args: argparse.Namespace) -> int:
    p = _params_from_args(args)
    u0 = args.u0 if args.u0 is not None else 0.5 * args.lam
    traj = integrate_homogeneous_ode(p, args.lam, u0, args.t_end, args.dt)
    print(f"# model = {p.name}")
    print(f"# lam = {fmt(args.lam)}  U0 = {fmt(u0)}  dt = {fmt(traj.dt)}")
    n = len(traj.t)
    stride = max(1, n // 200)
    idx = list(range(0, n, stride))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    rows = format_rows(list(zip(traj.t[idx], traj.U[idx], traj.V[idx], traj.G[idx])))
    print(format_table(columns=("t", "U", "V", "G"), body=rows))
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    p = _params_from_args(args)
    g = Grid.interval(args.length, args.n)
    mu2 = second_eigenvalue(g, args.mu2)
    reports = _condition_reports(p, args.lam, mu2, args.mu2, args.c4, args.sigma)
    print(format_table(columns=CONDITION_COLUMNS, body=_condition_rows(reports)))
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    p = _params_from_args(args)
    g = Grid.interval(args.length, args.n)
    mu_j = EIGENVALUE_MODES[args.mu2](g, args.j)
    reports = scan_degeneracy(
        p, args.lam, args.j, mu_j, args.param, args.lo, args.hi, args.samples
    )
    print(f"# scan param = {args.param}  j = {args.j}  mu_j = {fmt(mu_j)} ({args.mu2})")
    print(f"# range = [{fmt(args.lo)}, {fmt(args.hi)}]  samples = {args.samples}")
    if not reports:
        print("no degeneracy points found")
        return EXIT_OK
    rows = format_rows([(r.root, r.residual_at_root, *r.bracket) for r in reports])
    print(format_table(columns=("root", "residual", "bracket_lo", "bracket_hi"), body=rows))
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    tokens = [tok.strip() for tok in args.values.split(",") if tok.strip()]
    if not tokens:
        raise ConfigError("--values must list at least one value")
    if len(set(tokens)) != len(tokens):
        raise ConfigError("--values contains duplicates")
    if "." not in args.param:
        raise ConfigError(f"--param must look like section.key, got {args.param!r}")
    section, key = args.param.split(".", 1)

    template = Path(args.config)
    if not template.exists():
        raise ConfigError(f"config file {template} does not exist")
    try:
        base_text = template.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {template}: {exc}") from None
    if args.out is not None and not args.out.strip():
        raise ConfigError("--out must name a directory, got an empty value")
    root = Path(args.out) if args.out is not None else Path("sweep_out")
    _make_dir(root)

    # materialize and validate every scenario before launching any run, so
    # structural config errors abort the sweep as a whole (exit 2)
    jobs: list[tuple[str, ScenarioConfig]] = []
    for tok in tokens:
        try:
            float(tok)
        except ValueError:
            raise ConfigError(f"sweep value {tok!r} is not a number") from None
        subdir = root / f"{section}.{key}={tok}"
        _make_dir(subdir)
        cfg_path = subdir / "scenario.cfg"
        cfg_path.write_text(_override_config_text(base_text, section, key, tok))
        scn = _scenario_from_args(args, cfg_path, str(subdir))
        jobs.append((f"sweep member {args.param}={tok}", scn))
    results = dict(zip(tokens, _run_scenarios(jobs)))

    lines = []
    for tok in sorted(tokens, key=float):
        code, metrics = results[tok]
        rate = metrics.get("decay_rate", math.nan)
        dev = metrics.get("u_dev_linf_final", math.nan)
        lines.append(f"{tok} {'ok' if code == EXIT_OK else 'failed'} {fmt(rate)} {fmt(dev)}")
    columns = ("value", "status", "decay_rate", "u_dev_linf_final")
    rows = "\n".join(lines)
    write_table(root / "sweep_summary.txt", "sweep summary", [("param", args.param)], columns, rows)
    n_ok = sum(code == EXIT_OK for code, _ in results.values())
    print(f"sweep finished: {n_ok}/{len(tokens)} runs succeeded; summary in {root}")
    if n_ok > 0:
        return EXIT_OK
    # every member failed; all at set-up on a config or parameter error is a config error
    return EXIT_CONFIG if all(code == EXIT_CONFIG for code, _ in results.values()) else EXIT_RUNTIME


def _override_config_text(text: str, section: str, key: str, value: str) -> str:
    """Return config text with [section] key set to value, appending if new."""
    import configparser
    import io

    cp = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed template config: {exc}") from None
    if not cp.has_section(section):
        cp.add_section(section)
    cp.set(section, key, value)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


# -- parser ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarsim",
        description="Numerical laboratory for mass-conserved reaction-diffusion systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="run one configured scenario")
    sp.add_argument("--config", required=True, help="scenario file (INI format)")
    sp.add_argument("--out", help="output directory (overrides [output] dir)")
    _add_override_flags(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("equilibrium", help="solve the homogeneous balance equation")
    _add_model4_flags(sp)
    sp.set_defaults(func=cmd_equilibrium)

    sp = sub.add_parser("ode", help="integrate the well-mixed reduction")
    _add_model4_flags(sp)
    sp.add_argument("--u0", type=float, default=None, help="initial U (default lam/2)")
    sp.add_argument("--t-end", dest="t_end", type=float, default=50.0)
    sp.add_argument("--dt", type=float, default=0.01)
    sp.set_defaults(func=cmd_ode)

    sp = sub.add_parser("check", help="evaluate the sufficient convergence conditions")
    _add_model4_flags(sp)
    _add_mu2_flags(sp)
    sp.add_argument("--c4", type=float, default=diag.DEFAULT_C4)
    sp.add_argument("--sigma", type=float, default=None)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("scan", help="scan a parameter for mode degeneracy")
    _add_model4_flags(sp)
    _add_mu2_flags(sp)
    sp.add_argument("--j", type=int, default=2, help="mode index (default 2)")
    sp.add_argument("--param", choices=("D", "lambda", "delta"), required=True)
    sp.add_argument("--lo", type=float, required=True)
    sp.add_argument("--hi", type=float, required=True)
    sp.add_argument("--samples", type=int, default=200)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("sweep", help="run a scenario across parameter values")
    sp.add_argument("--config", required=True, help="template scenario file")
    sp.add_argument("--param", required=True, help="section.key to vary, e.g. model.d")
    sp.add_argument("--values", required=True, help="comma-separated values")
    sp.add_argument("--out", help="sweep root directory (default sweep_out)")
    _add_override_flags(sp)
    sp.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except PolarsimError as exc:
        return _report(exc)
    except BrokenPipeError:
        # the reader closed stdout: the output was not delivered; point stdout
        # at the null device so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
