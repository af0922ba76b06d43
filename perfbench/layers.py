"""Per-layer metrics of one traced repetition, computed from its spans.

A ``*_s`` metric of a layer call sums the durations of its outermost spans
(a ``Grid.mean`` inside ``Grid.deviation`` is counted once, in the
deviation); ``*_calls`` counts the same spans.  A ``*_self_s`` metric is the
self time: a span's duration minus the part of it covered by its child
spans, taking the union when children in sweep worker threads overlap.
"""
from __future__ import annotations

from pathlib import Path

from workloads import Rep

# metric name -> unit, in the order they are printed
UNITS = {
    "grid.laplacian_s": "s",
    "grid.laplacian_calls": "count",
    "grid.reduce_s": "s",
    "grid.reduce_calls": "count",
    "kinetics.reaction_s": "s",
    "kinetics.reaction_calls": "count",
    "solver.steps": "count",
    "solver.attempts_per_step": "ratio",
    "solver.laplacians_per_attempt": "ratio",
    "solver.run_self_s": "s",
    "solver.run_self_us_per_step": "us",
    "solver.snapshot_write_s": "s",
    "solver.snapshot_writes": "count",
    "solver.snapshot_bytes": "B",
    "solver.snapshot_read_s": "s",
    "solver.snapshot_read_bytes": "B",
    "solver.mass_drift_rel_max": "ratio",
    "diagnostics.record_build_s": "s",
    "diagnostics.records": "count",
    "diagnostics.postrun_s": "s",
    "diagnostics.history_bytes": "B-computed",
    "diagnostics.table_write_s": "s",
    "diagnostics.table_bytes": "B",
    "config.load_s": "s",
    "config.loads": "count",
    "config.ic_s": "s",
    "equilibrium.solve_s": "s",
    "equilibrium.solves": "count",
    "equilibrium.ode_s": "s",
    "equilibrium.ode_steps": "count",
    "linearization.scan_s": "s",
    "linearization.residual_evals": "count",
    "cli.run_scenario_self_s": "s",
    "cli.sweep_self_s": "s",
    "cli.sweep_parallelism": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.untraced_s": "s",
    "failed_frac": "ratio",
}

_GROUPS = {
    "grid.reduce": {
        "grid.mean", "grid.integral", "grid.inner", "grid.deviation",
        "grid.l2_norm", "grid.linf_norm", "grid.dirichlet_form",
    },
    "diagnostics.postrun": {
        "diagnostics.attach_identity_residuals", "diagnostics.deviation_pairing_integral",
        "diagnostics.v_norm_sup", "diagnostics.estimate_decay_rate", "diagnostics.omega_limit_check",
    },
}
_GROUP_OF = {name: group for group, names in _GROUPS.items() for name in names}

# metric prefix -> span group whose outermost spans it sums and counts
_TIMED = {
    "grid.laplacian": "grid.laplacian",
    "grid.reduce": "grid.reduce",
    "kinetics.reaction": "kinetics.reaction",
    "solver.snapshot_write": "solver.write_snapshot",
    "solver.snapshot_read": "solver.read_snapshot",
    "diagnostics.record_build": "diagnostics.record_build",
    "diagnostics.postrun": "diagnostics.postrun",
    "diagnostics.table_write": "diagnostics.write_diagnostics_table",
    "config.load": "config.load_scenario",
    "config.ic": "config.build_initial_condition",
    "equilibrium.solve": "equilibrium.solve_equilibrium",
    "equilibrium.ode": "equilibrium.integrate_homogeneous_ode",
    "linearization.scan": "linearization.scan_degeneracy",
}
_COUNTS = {
    "grid.laplacian_calls": "grid.laplacian",
    "grid.reduce_calls": "grid.reduce",
    "kinetics.reaction_calls": "kinetics.reaction",
    "solver.snapshot_writes": "solver.write_snapshot",
    "diagnostics.records": "diagnostics.record_build",
    "config.loads": "config.load_scenario",
    "equilibrium.solves": "equilibrium.solve_equilibrium",
    "linearization.residual_evals": "linearization.degeneracy_residual",
}
_SELF = {
    "solver.run_self_s": "solver.run",
    "cli.run_scenario_self_s": "cli.run_scenario",
    "cli.sweep_self_s": "cli.cmd_sweep",
}
_TOLERANCE_S = 1e-6  # clock reads of nested spans differ by less


class AccountingError(Exception):
    """Spans that do not nest, or that fall outside their process."""


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class _Totals:
    def __init__(self) -> None:
        self.time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.attr: dict[str, list] = {}
        self.attempts = 0  # reaction calls inside solver.run
        self.solve_laplacians = 0  # laplacian calls inside solver.run, outside diagnostics
        self.member_s = 0.0  # run_scenario spans inside cli.cmd_sweep
        self.sweep_s = 0.0
        self.roots_s = 0.0

    def add_process(self, spans: list[list], spawned: float, wall_s: float) -> None:
        children: list[list[int]] = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                children[s[3]].append(i)
        for i, (name, start, end, parent, _tid, _rep, attr) in enumerate(spans):
            group = _GROUP_OF.get(name, name)
            outermost, in_run, in_diag, in_sweep = True, False, False, False
            p = parent
            while p >= 0:
                pname = spans[p][0]
                outermost &= _GROUP_OF.get(pname, pname) != group
                in_run |= pname == "solver.run"
                in_diag |= pname.startswith("diagnostics.")
                in_sweep |= pname == "cli.cmd_sweep"
                p = spans[p][3]
            if parent >= 0:
                pstart, pend = spans[parent][1], spans[parent][2]
                if start < pstart - _TOLERANCE_S or end > pend + _TOLERANCE_S:
                    raise AccountingError(f"span {name} is not inside its parent {spans[parent][0]}")
            else:
                if start < spawned or end > spawned + wall_s:
                    raise AccountingError(f"root span {name} lies outside its process")
                self.roots_s += end - start
            dur = end - start
            kids = [(spans[c][1], spans[c][2]) for c in children[i]]
            own = dur - _union_length(kids)  # >= 0, since every child nests inside
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            if outermost:
                self.time[group] = self.time.get(group, 0.0) + dur
                self.calls[group] = self.calls.get(group, 0) + 1
                if attr is not None:
                    self.attr.setdefault(group, []).append(attr)
            if name == "kinetics.reaction" and in_run:
                self.attempts += 1
            if name == "grid.laplacian" and in_run and not in_diag:
                self.solve_laplacians += 1
            if name == "cli.run_scenario" and in_sweep:
                self.member_s += dur
            if name == "cli.cmd_sweep":
                self.sweep_s += dur


def _bytes(rep_path: Path, paths: list[str]) -> int:
    return sum((rep_path / p).stat().st_size for p in paths if (rep_path / p).is_file())


def rep_metrics(rep: Rep, summaries: list[dict], nodes: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (before its directory is removed)."""
    tot = _Totals()
    for proc in rep.procs:
        spans = proc.report.get("spans") or []
        tot.add_process(spans, proc.spawned, proc.wall_s)
    # With every span inside its parent, the traced wall time splits exactly
    # into the self times of all spans, less the time parallel sweep members
    # cover twice, plus this remainder: interpreter start-up, imports,
    # argument parsing and exit.
    remainder = rep.wall_s - tot.roots_s
    if remainder < 0:
        raise AccountingError(f"root spans exceed the repetition's wall time by {-remainder:g} s")

    out: dict[str, float] = {}
    for prefix, group in _TIMED.items():
        out[f"{prefix}_s"] = tot.time.get(group, 0.0)
    for metric, group in _COUNTS.items():
        out[metric] = float(tot.calls.get(group, 0))
    for metric, name in _SELF.items():
        out[metric] = tot.self_s.get(name, 0.0)

    steps = sum(int(s.get("n_steps", 0)) for s in summaries)
    records = sum(int(s.get("n_records", 0)) for s in summaries)
    drifts = [float(s["mass_drift_rel_max"]) for s in summaries if "mass_drift_rel_max" in s]
    out["solver.steps"] = float(steps)
    out["solver.attempts_per_step"] = tot.attempts / steps if steps else 0.0
    out["solver.laplacians_per_attempt"] = tot.solve_laplacians / tot.attempts if tot.attempts else 0.0
    out["solver.run_self_us_per_step"] = 1e6 * out["solver.run_self_s"] / steps if steps else 0.0
    out["solver.snapshot_bytes"] = float(_bytes(rep.path, tot.attr.get("solver.write_snapshot", [])))
    out["solver.snapshot_read_bytes"] = float(_bytes(rep.path, tot.attr.get("solver.read_snapshot", [])))
    out["solver.mass_drift_rel_max"] = max(drifts, default=0.0)
    out["diagnostics.history_bytes"] = float(records * nodes * 2 * 8)
    out["diagnostics.table_bytes"] = float(
        _bytes(rep.path, tot.attr.get("diagnostics.write_diagnostics_table", []))
    )
    out["equilibrium.ode_steps"] = float(sum(tot.attr.get("equilibrium.integrate_homogeneous_ode", [])))
    out["cli.sweep_parallelism"] = tot.member_s / tot.sweep_s if tot.sweep_s else 0.0
    out["trace.untraced_s"] = remainder
    return out
