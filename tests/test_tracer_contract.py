"""The benchmark tracer's and probe's contract with the package.

``perfbench/spans.py`` wraps polarsim's public calls by looking them up by
name, so renaming or removing one makes every traced benchmark run fail.
Installing the tracer in a fresh interpreter and running a short traced
simulation catches that in the test suite.  ``perfbench/probe.py`` ends the
set-up phase of an untraced run at the first call of ``polarsim.cli.run``,
so a scenario path that stops calling that name loses ``setup_s``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import polarsim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

MODEL1 = """\
[model]
kind = model1
D = 0.4
tau = 1.0
a = 1.0
b = 1.0
k = 1.0

[grid]
length = 1.0
n = 17

[solver]
t_end = 0.05
dt = 0.01
stride = 1

[ic]
kind = expression
u = 0.6 + 0.2*cos(pi*x/L)
v = 0.5
"""

# delta = 30 halves two of its 20 steps (delta dt > 1), the others none
HALVING_SWEEP = """\
[model]
kind = model4
D = 4.0
tau = 1.0
b = 1.0
gamma = 1.0
k = 1.0
k0 = 0.1
delta = 1.0

[grid]
length = 1.0
n = 16

[solver]
t_end = 0.8
dt = 0.04
scheme = imex-be
stride = 5

[ic]
kind = expression
u = 0.5 + 0.2*cos(pi*x/L)
v = 0.5 + 0.1*cos(2*pi*x/L)
"""

SCRIPT = """
import collections, json, sys
sys.path.insert(0, sys.argv[1])
import spans
rec = spans.Recorder(0)
spans.install(rec)
from polarsim.cli import main
code = main(sys.argv[2:])
print(json.dumps({"code": code, "spans": collections.Counter(s[0] for s in rec.spans)}))
"""


def fresh_python(*args, check: bool) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this polarsim."""
    src = str(Path(polarsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
        check=check,
    )


def traced_main(*argv) -> dict:
    """Run the CLI under the benchmark tracer in a fresh interpreter."""
    out = fresh_python("-c", SCRIPT, PERFBENCH, *argv, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def probed_main(report: Path, *argv) -> tuple[int, dict]:
    """Run the CLI under the benchmark probe, untraced; its exit code and report."""
    out = fresh_python(PERFBENCH / "probe.py", report, 0, 0, "--", *argv, check=False)
    return out.returncode, json.loads(report.read_text())


def test_tracer_installs_and_times_the_run_monitors(tmp_path):
    cfg = tmp_path / "model1.cfg"
    cfg.write_text(MODEL1)
    result = traced_main("simulate", "--config", cfg, "--out", tmp_path / "out")
    assert result["code"] == 0
    for name in (
        "cli.cmd_simulate",
        "cli.run_scenario",
        "solver.run",
        "diagnostics.record_build",
        "diagnostics.attach_identity_residuals",
        "diagnostics.deviation_pairing_integral",
        "diagnostics.v_norm_sup",
        "diagnostics.estimate_decay_rate",
        "diagnostics.omega_limit_check",
        "diagnostics.write_diagnostics_table",
        "grid.mean",
    ):
        assert name in result["spans"], name


def test_tracer_counts_the_reactions_of_a_halving_member(tmp_path):
    # 20 batch steps for three members, plus two substeps for each step
    # that delta = 30 redoes alone
    cfg = tmp_path / "halving.cfg"
    cfg.write_text(HALVING_SWEEP)
    result = traced_main(
        "sweep", "--config", cfg, "--param", "model.delta", "--values", "0.5,30,1.5",
        "--out", tmp_path / "sweep",
    )
    assert result["code"] == 0
    assert result["spans"]["kinetics.reaction"] == 24


def test_tracer_counts_the_scan_refinement():
    # the README degeneracy in D: every sample and every halving of the
    # bracket around D = 0.1003 goes through linearization.degeneracy_residual
    result = traced_main(
        "scan", "--param", "D", "--lo", "0.02", "--hi", "1.0", "--samples", "20",
        "--k0", "0.05", "--delta", "0.22", "--length", "6.283185307179586",
    )
    assert result["code"] == 0
    assert "equilibrium.solve_equilibrium" in result["spans"]
    assert result["spans"]["linearization.degeneracy_residual"] > 20


def test_probe_marks_the_end_of_set_up(tmp_path):
    cfg = tmp_path / "model1.cfg"
    cfg.write_text(MODEL1)
    argv = ["simulate", "--config", cfg, "--out", tmp_path / "out"]
    code, report = probed_main(tmp_path / "simulate.json", *argv)
    assert code == 0
    assert report["first_run"] is not None
    # t_end = 0.05 is no whole number of dt = 0.03 steps: the first member fails set-up
    argv = ["sweep", "--config", cfg, "--param", "solver.dt", "--values", "0.03,0.01"]
    code, report = probed_main(tmp_path / "sweep.json", *argv, "--out", tmp_path / "sweep")
    assert code == 0
    assert report["first_run"] is not None
