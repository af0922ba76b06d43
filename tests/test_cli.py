"""End-to-end exercises of the ``polarsim`` command-line interface.

Everything goes through ``main(argv)`` in-process so exit codes and
stdout/stderr can be asserted directly; output-file determinism is checked
byte-for-byte.  Only the import-cost check starts a fresh interpreter.
"""

import argparse
import dataclasses
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import polarsim
from polarsim import Field, Grid, Model4Params, cli, solve_equilibrium, solver
from polarsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from polarsim.equilibrium import integrate_homogeneous_ode
from polarsim.errors import EquilibriumError
from polarsim.grid import second_eigenvalue
from polarsim.linearization import degeneracy_residual, scan_degeneracy

QUICK = """\
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
n = 32

[solver]
t_end = 0.2
dt = 0.002
scheme = imex-cn
stride = 20

[ic]
kind = perturbation
lam = 1.0
amplitude = 0.1
"""

BLOW = """\
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
n = 32

[solver]
t_end = 4.0
dt = 2.0
retry_limit = 0

[ic]
kind = expression
u = 0.000001
v = 0.0
"""


# model 4 with a given Hill exponent and half-saturation k; an expression IC
# needs no equilibrium, so nothing before the run takes k^m
HILL = """\
[model]
kind = model4-general-m
D = 4.0
tau = 1.0
b = 1.0
gamma = 1.0
k = {k}
k0 = 0.1
delta = 1.0
m = {m}

[grid]
length = 1.0
n = 32

[solver]
t_end = 0.2
dt = 0.002

[ic]
kind = expression
u = 0.5 + 0.2*cos(pi*x/L)
v = 0.5
"""


# model 4 with the IC of the study sweep; delta * dt > 1 makes the guard halve dt
HALVING = """\
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
{grid}

[solver]
t_end = 0.8
dt = 0.04
scheme = {scheme}
stride = 5
retry_limit = {retry_limit}

[ic]
kind = expression
u = 0.5 + 0.2*cos(pi*x/L)
v = 0.5 + 0.1*cos(2*pi*x/L)
"""


# nominal steps at which each member of a 0.5,20,1.5,30,26 delta sweep of
# HALVING halves its step under imex-cn, in 1-D and 2-D alike
CN_HALVINGS = {"30": [0.0, 0.04, 0.16, 0.52], "26": [0.0, 0.04, 0.16], "20": [0.08]}


def count_reaction_calls(monkeypatch):
    """Count the reaction evaluations of every stepper built from now on."""
    calls = [0]
    make = solver.reaction_rhs

    def counting_reaction_rhs(p):
        f = make(p)

        def counted(u, v):
            calls[0] += 1
            return f(u, v)

        return counted

    monkeypatch.setattr(solver, "reaction_rhs", counting_reaction_rhs)
    return calls


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_lines(path):
    return path.read_text().splitlines()


def assert_same_data_rows(member, solo):
    """Sweep member and single run agree in every data row of their tables."""
    for name in ("diagnostics.txt", "final_state.txt", "summary.txt"):
        rows = [[l for l in read_lines(d / name) if not l.startswith("#")] for d in (member, solo)]
        assert rows[0] == rows[1], name


def summary_dict(path):
    out = {}
    for line in read_lines(path):
        if line.startswith("#"):
            continue
        key, _, val = line.partition(" = ")
        out[key] = val
    return out


class TestSimulate:
    def test_completes_and_writes_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK)
        out = tmp_path / "run"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        assert "completed" in captured.out
        for name in ("diagnostics.txt", "final_state.txt", "conditions.txt", "summary.txt"):
            assert (out / name).exists(), name
        summary = summary_dict(out / "summary.txt")
        assert summary["status"] == "ok"
        assert summary["mass_line_check"] == "pass"
        assert summary["model"] == "model4"
        assert float(summary["mass_drift_rel_max"]) < 1e-10
        eq = solve_equilibrium(
            Model4Params(D=4.0, tau=1.0, b=1.0, gamma=1.0, k=1.0, k0=0.1, delta=1.0), 1.0
        )
        assert float(summary["u_star"]) == pytest.approx(eq.u_star, rel=1e-12)
        conditions = read_lines(out / "conditions.txt")
        assert conditions[0] == "# polarsim conditions"
        assert any(line.startswith("coupling yes") for line in conditions)

    def test_rerun_is_bit_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, QUICK)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        first = {
            name: (out / name).read_bytes()
            for name in ("diagnostics.txt", "final_state.txt", "conditions.txt", "summary.txt")
        }
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob, name

    def test_snapshot_series(self, tmp_path):
        text = QUICK + "\n[output]\nsnapshot_every = 2\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        # records at steps 0, 20, ..., 100 -> indices 0..5; every 2nd is kept
        snaps = sorted(q.name for q in out.glob("state_*.txt"))
        assert snaps == ["state_00000.txt", "state_00002.txt", "state_00004.txt"]

    def test_config_error_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK.replace("delta = 1.0", "delta = -1.0"))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "delta" in err

    def test_solver_failure_exits_3_and_preserves_partials(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BLOW)
        out = tmp_path / "run"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_RUNTIME
        assert "run failed" in capsys.readouterr().err
        assert (out / "diagnostics.txt").exists()
        assert (out / "last_state.txt").exists()
        summary = summary_dict(out / "summary.txt")
        assert summary["status"].startswith("failed:")
        assert "negativity" in summary["status"]
        assert not (out / "final_state.txt").exists()
        # last_state.txt holds the last recorded state: the initial data,
        # the only record before the first step failed
        rows = [ln.split() for ln in read_lines(out / "diagnostics.txt") if not ln.startswith("#")]
        t, g, u, v = solver.read_snapshot(out / "last_state.txt")
        assert t == float(rows[-1][0]) == 0.0
        assert g.counts == (32,)
        assert np.all(u == 1e-6) and np.all(v == 0.0)


    @pytest.mark.parametrize("name", ["summary.txt", "state_00000.txt"])
    def test_unwritable_output_file_is_one_error_line(self, tmp_path, capsys, name):
        # summary.txt is written after the run, state_00000.txt by the
        # record callback inside it
        cfg = write_cfg(tmp_path, QUICK + "\n[output]\nsnapshot_every = 2\n")
        out = tmp_path / "run"
        (out / name).mkdir(parents=True)
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write table file {out / name}: ")
        assert len(err.splitlines()) == 1


    @pytest.mark.parametrize(
        "k, m, message", [("2", "1100", "k^m overflows"), ("1e-300", "2", "k^m underflows to 0")]
    )
    def test_hill_constant_out_of_float_range_is_one_error_line(self, tmp_path, capsys, k, m, message):
        # k^m = inf would raise in the stacked parameters; k^m = 0 makes the
        # Hill term 0/0 at u = 0
        cfg = write_cfg(tmp_path, HILL.format(k=k, m=m))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_RUNTIME
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith(f"error: {message}: k={float(k)}, m={float(m)}")


class TestEquilibrium:
    def test_default_instance_matches_frozen_root(self, capsys):
        rc = main(["equilibrium", "--lam", "1.0"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        values = {}
        trace_rows = 0
        in_trace = False
        for line in out.splitlines():
            if line.startswith("# bisection trace"):
                in_trace = True
                continue
            if in_trace:
                trace_rows += 1
            elif " = " in line:
                key, _, val = line.partition(" = ")
                values[key] = val
        assert values["model"] == "model4"
        assert float(values["u_star"]) == pytest.approx(0.09883419099615151, rel=1e-12)
        assert float(values["v_star"]) == pytest.approx(1.0 - 0.09883419099615151, rel=1e-12)
        assert float(values["residual"]) <= 1e-10
        assert trace_rows >= 10

    def test_constant_activation_reports_closed_form(self, capsys):
        rc = main(["equilibrium", "--gamma", "0.0", "--lam", "1.0"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert f"constant_a_u_star = {'%.17g' % (0.1 / 1.1)}" in out
        gap_line = next(l for l in out.splitlines() if l.startswith("constant_a_gap"))
        assert float(gap_line.partition(" = ")[2]) <= 1e-14

    def test_invalid_parameter_exits_2(self, capsys):
        rc = main(["equilibrium", "--delta", "-1.0"])
        assert rc == EXIT_CONFIG
        assert "delta" in capsys.readouterr().err

    def test_zero_mass_exits_2(self, capsys):
        rc = main(["equilibrium", "--lam", "0.0"])
        assert rc == EXIT_CONFIG
        assert "lam" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--lam", "1e80"], ["--lam", "1e60", "--m", "3.5"], ["--lam", "1e100", "--m", "3.5"]]
    )
    def test_huge_mass_prints_a_root_or_one_error_line(self, capsys, flags):
        # lam^m at or past the float range: a raised exception fails this test
        rc = main(["equilibrium", *flags])
        out = capsys.readouterr()
        if rc == EXIT_OK:
            residual = next(l for l in out.out.splitlines() if l.startswith("residual = "))
            assert math.isfinite(float(residual.partition(" = ")[2]))
        else:
            assert rc in (EXIT_CONFIG, EXIT_RUNTIME)
            assert len(out.err.splitlines()) == 1

    def test_overflowing_balance_is_one_error_line(self, capsys):
        # tau delta overflows a float, but the well-mixed right side has no
        # pole: its root is u* ~ lam b k0 / (tau delta) = 1e-311
        assert main(["equilibrium", "--tau", "1e300", "--delta", "1e10"]) == EXIT_OK
        out = capsys.readouterr()
        assert out.err == ""
        assert "u_star = 9.9999999999994754e-312" in out.out.splitlines()

    @pytest.mark.parametrize(
        "flags",
        [["--b", "1e200", "--tau", "1e-200"], ["--gamma", "1e300", "--b", "1e10"], ["--delta", "1e200", "--lam", "1e150"]],
    )
    def test_overflowing_term_of_the_right_side_is_one_error_line(self, capsys, flags):
        # numpy would warn on the inf terms of the audit (filterwarnings = error)
        assert main(["equilibrium", *flags]) == EXIT_RUNTIME
        out = capsys.readouterr()
        assert out.out == ""
        assert "overflows" in out.err and len(out.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "flags", [["--k0", "1e-300"], ["--gamma", "0", "--k0", "1e-300"], ["--b", "1e-300"]]
    )
    def test_tiny_parameters_get_their_root(self, capsys, flags):
        # at these sizes a(u*) = b k0, so u* = lam b k0 / (b k0 + tau delta)
        assert main(["equilibrium", *flags]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        values = dict(l.split(" = ", 1) for l in lines if " = " in l and not l.startswith("#"))
        args = dict(zip(flags[::2], map(float, flags[1::2])))
        a0 = args.get("--b", 1.0) * args.get("--k0", 0.1)
        assert float(values["u_star"]) == pytest.approx(a0 / (a0 + 1.0), rel=1e-12, abs=0.0)
        if "constant_a_gap" in values:
            assert float(values["constant_a_gap"]) <= 1e-12 * float(values["u_star"])


class TestOde:
    def test_stride_and_convergence(self, capsys):
        rc = main(["ode", "--lam", "1.0", "--t-end", "50.0", "--dt", "0.01"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "# columns = t U V G"
        data = [line.split() for line in lines if not line.startswith("#")]
        # 5001 samples at stride 25 -> 201 printed rows, last one is t_end
        assert len(data) == 201
        assert float(data[-1][0]) == pytest.approx(50.0, abs=1e-12)
        assert float(data[-1][1]) == pytest.approx(0.09883419099615151, abs=1e-6)
        # the well-mixed potential G is nondecreasing along the trajectory
        g = np.array([float(row[3]) for row in data])
        assert np.all(np.diff(g) >= -1e-12 * max(1.0, np.max(np.abs(g))))

    def test_short_run_prints_final_row(self, capsys):
        rc = main(["ode", "--t-end", "0.1", "--dt", "0.01"])
        assert rc == EXIT_OK
        data = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert len(data) == 11  # stride 1: every step plus t = 0

    @pytest.mark.parametrize("t_end, dt", [("5", "0.03"), ("0.005", "0.01")])
    def test_t_end_off_the_step_grid_exits_2(self, capsys, t_end, dt):
        assert main(["ode", "--t-end", t_end, "--dt", dt]) == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.out == ""
        steps = f"t_end = {float(t_end)} is not an integer number of steps of dt = {float(dt)}"
        assert out.err == f"parameter error: {steps}\n"

    def test_step_count_past_the_float_range_exits_2(self, capsys):
        assert main(["ode", "--t-end", "1e10", "--dt", "1e-300"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("parameter error: t_end / dt is not a finite step count")


@pytest.mark.parametrize("command", ["equilibrium", "ode", "scan"])
def test_hill_term_underflow_is_refused(capsys, command):
    # k^m underflows to 0, and the Hill term at u = 0 would be 0/0; a D scan
    # fails at its one equilibrium solve
    code = main(FLOAT_FLAG_COMMANDS[command] + ["--k", "1e-300"])
    assert code == EXIT_RUNTIME
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1
    assert "k^m underflows to 0" in errors[0]


@pytest.mark.parametrize("param, lo, hi", [("delta", "0.1", "1"), ("lambda", "0.2", "2")])
def test_scan_with_every_sample_failed_is_one_error_line(capsys, caplog, param, lo, hi):
    # no sample was evaluated: "no degeneracy points found" would be a verdict
    # without evidence
    code = main(["scan", "--param", param, "--lo", lo, "--hi", hi, "--samples", "5", "--k", "1e-300"])
    assert code == EXIT_RUNTIME
    out = capsys.readouterr()
    assert "no degeneracy points found" not in out.out
    errors = out.err.splitlines()
    assert len(errors) == 1
    assert errors[0].startswith(f"error: every sample of the {param} scan failed")
    assert "k^m underflows to 0" in errors[0]
    assert len(caplog.messages) == 5 and all("failed" in m for m in caplog.messages)


def test_scan_over_tiny_delta_evaluates_every_sample(capsys, caplog):
    assert main(["scan", "--param", "delta", "--lo", "1e-300", "--hi", "1e-299", "--samples", "5"]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert caplog.messages == []


class TestCheck:
    """The default flag values reproduce the hand-evaluated instance
    D=4, tau=1, b=gamma=k=1, k0=0.1, delta=1, lam=1, mu2=pi^2."""

    def parse(self, out):
        rows = {}
        for line in out.splitlines():
            if line.startswith("#"):
                continue
            toks = line.split()
            extras = dict(tok.split("=", 1) for tok in toks[4:])
            rows[toks[0]] = {
                "satisfied": toks[1],
                "lhs": float(toks[2]),
                "rhs": float(toks[3]),
                **extras,
            }
        return rows

    def test_derived_sigma_instance(self, capsys):
        rc = main(["check", "--mu2", "continuum", "--length", "1.0"])
        assert rc == EXIT_OK
        rows = self.parse(capsys.readouterr().out)
        assert set(rows) == {"coupling", "contraction", "sigma"}
        coup = rows["coupling"]
        assert coup["satisfied"] == "yes"
        assert coup["lhs"] == pytest.approx(6.6, rel=1e-14)
        assert coup["rhs"] == pytest.approx(40.478417604357432, rel=1e-14)
        assert float(coup["alt_lhs"]) == pytest.approx(19.8, rel=1e-14)
        assert coup["alt_satisfied"] == "yes"
        assert float(coup["mu2"]) == pytest.approx(math.pi**2, rel=1e-15)
        cont = rows["contraction"]
        assert cont["satisfied"] == "yes"
        assert cont["lhs"] == pytest.approx(1.6543309612636952, rel=1e-14)
        assert cont["rhs"] == pytest.approx(20.239208802178716, rel=1e-14)
        assert float(cont["c4"]) == 1.0
        sig = rows["sigma"]
        assert sig["satisfied"] == "yes"
        assert sig["sigma_source"] == "derived"
        assert float(sig["sigma"]) == pytest.approx(3.3, rel=1e-14)
        assert sig["lhs"] == pytest.approx(4.125, rel=1e-14)
        assert sig["rhs"] == pytest.approx(40.478417604357432, rel=1e-14)

    def test_user_sigma_echoed(self, capsys):
        rc = main(["check", "--sigma", "50.0"])
        assert rc == EXIT_OK
        sig = self.parse(capsys.readouterr().out)["sigma"]
        assert sig["sigma_source"] == "user"
        assert float(sig["sigma"]) == 50.0
        assert sig["lhs"] == pytest.approx(62.5, rel=1e-14)
        assert sig["satisfied"] == "no"

    def test_discrete_mu2_differs(self, capsys):
        assert main(["check", "--mu2", "discrete", "--n", "16"]) == EXIT_OK
        rows = self.parse(capsys.readouterr().out)
        mu2 = float(rows["coupling"]["mu2"])
        assert mu2 < math.pi**2
        assert rows["coupling"]["mu2_mode"] == "discrete"


class TestScan:
    SCAN_FLAGS = [
        "--tau", "1.0", "--b", "1.0", "--gamma", "1.0", "--k", "1.0",
        "--k0", "0.05", "--delta", "0.22", "--lam", "1.0",
        "--length", repr(2.0 * math.pi), "--mu2", "continuum",
    ]

    def test_degeneracy_root_recovered(self, capsys):
        rc = main(
            ["scan", "--param", "D", "--lo", "0.02", "--hi", "1.0", "--samples", "400"]
            + self.SCAN_FLAGS
        )
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# scan param = D")
        data = [l.split() for l in lines if not l.startswith("#") and l[0].isdigit()]
        roots = [float(row[0]) for row in data]
        assert any(r == pytest.approx(0.10030329819881556, rel=1e-6) for r in roots)
        for row in data:
            assert abs(float(row[1])) <= 1e-6 * (float(row[0]) * 0.25 + 0.22)

    def test_no_roots_message(self, capsys):
        rc = main(
            ["scan", "--param", "D", "--lo", "0.02", "--hi", "1.0", "--gamma", "0.0",
             "--k0", "0.05", "--delta", "0.22", "--length", repr(2.0 * math.pi)]
        )
        assert rc == EXIT_OK
        assert "no degeneracy points found" in capsys.readouterr().out

    def test_scan_requires_param(self, capsys):
        rc = main(["scan", "--lo", "0.0", "--hi", "1.0"])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize(
        "param,lo,hi", [("delta", 0.05, 2.0), ("lambda", 0.2, 5.0), ("D", 0.02, 1.0)]
    )
    def test_scan_matches_direct_residual(self, capsys, param, lo, hi):
        flags = ["--D", "0.1", "--tau", "1.25", "--k0", "0.05", "--delta", "0.22",
                 "--lam", "1.0", "--length", repr(2.0 * math.pi)]
        rc = main(["scan", "--param", param, "--lo", str(lo), "--hi", str(hi)] + flags)
        assert rc == EXIT_OK
        rows = [l.split() for l in capsys.readouterr().out.splitlines() if l[0].isdigit()]
        assert rows
        p = Model4Params(D=0.1, tau=1.25, b=1.0, gamma=1.0, k=1.0, k0=0.05, delta=0.22)
        mu2 = (math.pi / (2.0 * math.pi)) ** 2

        def residual(x):
            if param == "lambda":
                return degeneracy_residual(p, x, 2, mu2)
            if param == "D":
                return degeneracy_residual(dataclasses.replace(p, D=x), 1.0, 2, mu2)
            return degeneracy_residual(dataclasses.replace(p, delta=x), 1.0, 2, mu2)

        for root, res, b_lo, b_hi in (map(float, row) for row in rows):
            assert res == residual(root)
            assert residual(b_lo) * residual(b_hi) < 0

    def test_model_flags_reach_their_fields(self, capsys):
        values = {"D": 3.5, "tau": 1.25, "b": 1.5, "gamma": 0.75, "k": 1.1,
                  "k0": 0.2, "delta": 0.9, "m": 3.0}
        argv = ["equilibrium", "--lam", "1.3"]
        for name, val in values.items():
            argv += [f"--{name}", repr(val)]
        assert main(argv) == EXIT_OK
        out = dict(l.split(" = ") for l in capsys.readouterr().out.splitlines() if " = " in l)
        eq = solve_equilibrium(Model4Params(**values), 1.3)
        assert out["model"] == "model4-general-m"
        assert float(out["u_star"]) == eq.u_star and float(out["v_star"]) == eq.v_star


class TestSweep:
    def test_sweep_matches_single_runs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK)
        root = tmp_path / "sweep"
        rc = main(
            ["sweep", "--config", str(cfg), "--param", "model.d",
             "--values", "4.0,3.5", "--out", str(root)]
        )
        assert rc == EXIT_OK
        assert "2/2 runs succeeded" in capsys.readouterr().out
        summary = read_lines(root / "sweep_summary.txt")
        assert summary[1] == "# param = model.d"
        data = [l.split() for l in summary if not l.startswith("#")]
        assert [row[0] for row in data] == ["3.5", "4.0"]  # sorted by value
        assert all(row[1] == "ok" for row in data)

        # a sweep member agrees with a standalone simulate of the same scenario
        solo_cfg = write_cfg(tmp_path, QUICK.replace("D = 4.0", "D = 3.5"), name="solo.cfg")
        solo_out = tmp_path / "solo"
        assert main(["simulate", "--config", str(solo_cfg), "--out", str(solo_out)]) == EXIT_OK
        capsys.readouterr()

        def data_rows(path):
            return [l for l in read_lines(path) if not l.startswith("#")]

        member = root / "model.d=3.5"
        assert data_rows(member / "diagnostics.txt") == data_rows(solo_out / "diagnostics.txt")
        assert data_rows(member / "final_state.txt") == data_rows(solo_out / "final_state.txt")

    def test_unwritable_snapshot_fails_its_member_only(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK + "\n[output]\nsnapshot_every = 2\n")
        root = tmp_path / "sweep"
        (root / "model.d=3.5" / "state_00000.txt").mkdir(parents=True)
        argv = ["sweep", "--config", str(cfg), "--param", "model.d", "--values", "4.0,3.5"]
        assert main(argv + ["--out", str(root)]) == EXIT_OK
        err = capsys.readouterr().err
        assert err.startswith("config error in sweep member model.d=3.5: cannot write table file")
        assert len(err.splitlines()) == 1
        rows = [l.split()[:2] for l in read_lines(root / "sweep_summary.txt") if not l.startswith("#")]
        assert rows == [["3.5", "failed"], ["4.0", "ok"]]
        assert (root / "model.d=4.0" / "summary.txt").exists()

    def test_overflowing_hill_constant_fails_its_member_only(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, HILL.format(k="2", m="1100"))
        root = tmp_path / "sweep"
        argv = ["sweep", "--config", str(cfg), "--param", "model.k", "--values", "1,2"]
        assert main(argv + ["--out", str(root)]) == EXIT_OK
        out = capsys.readouterr()
        assert out.err.splitlines() == ["error in sweep member model.k=2: k^m overflows: k=2.0, m=1100.0"]
        assert "1/2 runs succeeded" in out.out
        rows = [l.split()[:2] for l in read_lines(root / "sweep_summary.txt") if not l.startswith("#")]
        assert rows == [["1", "ok"], ["2", "failed"]]
        assert summary_dict(root / "model.k=1" / "summary.txt")["status"] == "ok"

    def test_dt_sweep_members_run_alone(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK)
        root = tmp_path / "sweep"
        rc = main(
            ["sweep", "--config", str(cfg), "--param", "solver.dt",
             "--values", "0.002,0.004", "--out", str(root)]
        )
        assert rc == EXIT_OK
        assert (root / "solver.dt=0.002" / "summary.txt").exists()
        assert (root / "solver.dt=0.004" / "summary.txt").exists()

    def test_grid_sweep_members_match_single_runs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK)
        root = tmp_path / "sweep"
        rc = main(
            ["sweep", "--config", str(cfg), "--param", "grid.n", "--values", "17,16",
             "--out", str(root)]
        )
        assert rc == EXIT_OK
        for n in ("16", "17"):
            solo_cfg = write_cfg(tmp_path, QUICK.replace("n = 32", f"n = {n}"), name=f"solo{n}.cfg")
            solo_out = tmp_path / f"solo{n}"
            assert main(["simulate", "--config", str(solo_cfg), "--out", str(solo_out)]) == EXIT_OK
            assert_same_data_rows(root / f"grid.n={n}", solo_out)

    def test_sweep_starts_no_thread(self, tmp_path, monkeypatch, capsys):
        started = []
        start = threading.Thread.start

        def recording_start(self):
            started.append(self)
            start(self)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        cfg = write_cfg(tmp_path, QUICK)
        rc = main(
            ["sweep", "--config", str(cfg), "--param", "model.d", "--values", "3.5,4.0,4.5",
             "--out", str(tmp_path / "s")]
        )
        assert rc == EXIT_OK
        assert started == []

    @pytest.mark.parametrize(
        "grid,scheme,values,halvings",
        [
            ("length = 1.0\nn = 16", "imex-be", "0.5,30,1.5", {"30": [0.0, 0.04]}),
            # members halve at different steps, and 30 halves again after rejoining
            ("length = 1.0\nn = 16", "imex-cn", "0.5,20,1.5,30,26", CN_HALVINGS),
            ("lx = 1.0\nly = 1.5\nnx = 6\nny = 9", "imex-cn", "0.5,20,1.5,30,26", CN_HALVINGS),
        ],
        ids=["1d-be", "1d-cn", "2d-cn"],
    )
    def test_batched_members_match_single_runs(
        self, tmp_path, monkeypatch, capsys, grid, scheme, values, halvings
    ):
        halved = {}
        bisect = solver._Stepper.bisect

        def spy(self, t, x, stats, dt, budget, *args):
            if budget == 20:  # a nominal step, not one of its substeps
                assert len(self.ps) == 1
                halved.setdefault(repr(self.ps[0].delta).removesuffix(".0"), []).append(round(t, 9))
            return bisect(self, t, x, stats, dt, budget, *args)

        monkeypatch.setattr(solver._Stepper, "bisect", spy)
        text = HALVING.format(grid=grid, scheme=scheme, retry_limit=20)
        cfg = write_cfg(tmp_path, text)
        root = tmp_path / "sweep"
        rc = main(
            ["sweep", "--config", str(cfg), "--param", "model.delta",
             "--values", values, "--out", str(root)]
        )
        assert rc == EXIT_OK
        assert halved == halvings
        for delta in values.split(","):
            solo_text = text.replace("delta = 1.0", f"delta = {delta}")
            solo_cfg = write_cfg(tmp_path, solo_text, name=f"solo{delta}.cfg")
            solo_out = tmp_path / f"solo{delta}"
            assert main(["simulate", "--config", str(solo_cfg), "--out", str(solo_out)]) == EXIT_OK
            assert_same_data_rows(root / f"model.delta={delta}", solo_out)

    def test_halving_member_redoes_only_its_step(self, tmp_path, monkeypatch, capsys):
        # 20 nominal steps for the batch, plus two substeps for each of the
        # two steps that delta = 30 halves
        calls = count_reaction_calls(monkeypatch)
        text = HALVING.format(grid="length = 1.0\nn = 16", scheme="imex-be", retry_limit=20)
        cfg = write_cfg(tmp_path, text)
        rc = main(
            ["sweep", "--config", str(cfg), "--param", "model.delta",
             "--values", "0.5,30,1.5", "--out", str(tmp_path / "sweep")]
        )
        assert rc == EXIT_OK
        assert calls == [24]

    def test_failed_member_leaves_batchmates_ok(self, tmp_path, capsys):
        text = HALVING.format(grid="length = 1.0\nn = 16", scheme="imex-be", retry_limit=0)
        cfg = write_cfg(tmp_path, text)
        root = tmp_path / "sweep"
        rc = main(
            ["sweep", "--config", str(cfg), "--param", "model.delta",
             "--values", "0.5,30,1.5", "--out", str(root)]
        )
        assert rc == EXIT_OK
        rows = [l.split() for l in read_lines(root / "sweep_summary.txt") if not l.startswith("#")]
        status = {row[0]: row[1] for row in rows}
        assert status == {"0.5": "ok", "30": "failed", "1.5": "ok"}
        failed = root / "model.delta=30"
        assert summary_dict(failed / "summary.txt")["status"].startswith("failed: negativity persisted")
        assert len([l for l in read_lines(failed / "diagnostics.txt") if not l.startswith("#")]) == 1
        assert (failed / "last_state.txt").exists()
        assert not (failed / "final_state.txt").exists()
        for delta in ("0.5", "1.5"):
            assert summary_dict(root / f"model.delta={delta}" / "summary.txt")["status"] == "ok"

    def test_failed_run_names_its_member(self, tmp_path, capsys):
        text = HALVING.format(grid="length = 1.0\nn = 16", scheme="imex-be", retry_limit=0)
        cfg = write_cfg(tmp_path, text)
        argv = ["sweep", "--config", str(cfg), "--param", "model.delta", "--values", "0.5,30,40"]
        assert main(argv + ["--out", str(tmp_path / "sweep")]) == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        assert [line.partition(": ")[0] for line in err] == [
            "run failed in sweep member model.delta=30",
            "run failed in sweep member model.delta=40",
        ]
        assert all("negativity persisted" in line for line in err)

    @pytest.mark.parametrize(
        "values,message",
        [
            ("1.0,1.0", "duplicates"),
            ("abc", "not a number"),
            ("", "at least one value"),
        ],
    )
    def test_bad_values_exit_2(self, tmp_path, capsys, values, message):
        cfg = write_cfg(tmp_path, QUICK)
        rc = main(
            ["sweep", "--config", str(cfg), "--param", "model.d",
             "--values", values, "--out", str(tmp_path / "s")]
        )
        assert rc == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_param_must_be_dotted(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK)
        rc = main(
            ["sweep", "--config", str(cfg), "--param", "d", "--values", "1.0",
             "--out", str(tmp_path / "s")]
        )
        assert rc == EXIT_CONFIG
        assert "section.key" in capsys.readouterr().err


# a succeeding invocation of each command that takes float flags, kept short
FLOAT_FLAG_COMMANDS = {
    "equilibrium": ["equilibrium"],
    "ode": ["ode", "--t-end", "1"],
    "check": ["check"],
    "scan": ["scan", "--param", "D", "--lo", "0.1", "--hi", "1", "--samples", "5"],
}


def _float_flags(command):
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [a.option_strings[0] for a in sub.choices[command]._actions if a.type is float]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "command, flag", [(cmd, flag) for cmd in FLOAT_FLAG_COMMANDS for flag in _float_flags(cmd)]
)
def test_non_finite_float_flag_is_one_error_line(capsys, command, flag, value):
    assert main(FLOAT_FLAG_COMMANDS[command] + [f"{flag}={value}"]) in (EXIT_CONFIG, EXIT_RUNTIME)
    out = capsys.readouterr()
    assert len(out.err.splitlines()) == 1, out.err


# a finite but huge step count runs for ever: these wait for a bound on run work
RUNAWAY = {("ode", "--t-end", "1e200"), ("ode", "--dt", "1e-300")}


@pytest.mark.parametrize(
    "command, flag, value",
    [
        pytest.param(
            cmd, flag, value,
            marks=[pytest.mark.skip(reason="runs for ever until run work is bounded (ROADMAP item 1)")]
            if (cmd, flag, value) in RUNAWAY else [],
        )
        for cmd in FLOAT_FLAG_COMMANDS
        for flag in _float_flags(cmd)
        for value in ("1e200", "-1e200", "1e-300")
    ],
)
def test_extreme_finite_float_flag_is_an_answer_or_one_error_line(capsys, command, flag, value):
    # an escaped exception or a numpy warning (filterwarnings = error) fails this test
    code = main(FLOAT_FLAG_COMMANDS[command] + [f"{flag}={value}"])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME)
    if code != EXIT_OK:
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err


@pytest.mark.parametrize("command", FLOAT_FLAG_COMMANDS)
def test_float_flag_base_commands_succeed(capsys, command):
    assert main(FLOAT_FLAG_COMMANDS[command]) == EXIT_OK


class TestArgparseBehavior:
    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_missing_required_flag_exits_2(self, capsys):
        assert main(["simulate"]) == EXIT_CONFIG

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "simulate" in capsys.readouterr().out


def test_cli_import_loads_no_scipy():
    # scipy is a test-only oracle; importing it would cost every CLI process
    # a few tenths of a second and tens of MB
    code = (
        "import sys, polarsim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(polarsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    assert out.stdout.strip() == "[]"


# -- the CLI tables against their per-value reference writers ------------
#
# Each reference below is the writer the CLI had before its tables went
# through polarsim.tables; the rewritten writers must keep every byte.

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


P4 = Model4Params(D=4.0, tau=1.0, b=1.0, gamma=1.0, k=1.0, k0=0.1, delta=1.0)


def ref_fmt(x):
    return "%.17g" % x


def ref_summary_text(config_hash, pairs):
    lines = ["# polarsim summary", f"# config = {config_hash}"]
    for key, val in pairs:
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def ref_condition_lines(reports):
    lines = ["# columns = name satisfied lhs rhs extras"]
    for r in reports:
        extras = [f"mu2={ref_fmt(r.mu2)}", f"mu2_mode={r.mu2_mode}"]
        if r.C4 is not None:
            extras.append(f"c4={ref_fmt(r.C4)}")
        if r.sigma is not None:
            extras.append(f"sigma={ref_fmt(r.sigma)}")
            extras.append(f"sigma_source={r.sigma_source}")
        if r.alt_lhs is not None:
            extras.append(f"alt_lhs={ref_fmt(r.alt_lhs)}")
            extras.append(f"alt_satisfied={'yes' if r.alt_satisfied else 'no'}")
        lines.append(
            f"{r.name} {'yes' if r.satisfied else 'no'} {ref_fmt(r.lhs)} {ref_fmt(r.rhs)} "
            + " ".join(extras)
        )
    return lines


def ref_conditions_text(config_hash, reports):
    if reports is None:
        return (
            "# polarsim conditions\n"
            f"# config = {config_hash}\n"
            "# the sufficient conditions are defined for the Hill-kinetics model only\n"
        )
    lines = ["# polarsim conditions", f"# config = {config_hash}"] + ref_condition_lines(reports)
    return "\n".join(lines) + "\n"


def ref_sweep_summary_text(param, rows):
    lines = [
        "# polarsim sweep summary",
        f"# param = {param}",
        "# columns = value status decay_rate u_dev_linf_final",
    ]
    for tok, status, rate, dev in rows:
        lines.append(f"{tok} {status} {ref_fmt(rate)} {ref_fmt(dev)}")
    return "\n".join(lines) + "\n"


def ref_ode_stdout(traj, lam, u0):
    lines = [
        "# model = model4",
        f"# lam = {ref_fmt(lam)}  U0 = {ref_fmt(u0)}  dt = {ref_fmt(traj.dt)}",
        "# columns = t U V G",
    ]
    n = len(traj.t)
    stride = max(1, n // 200)
    idx = list(range(0, n, stride))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    for i in idx:
        row = (traj.t[i], traj.U[i], traj.V[i], traj.G[i])
        lines.append(f"{ref_fmt(row[0])} {ref_fmt(row[1])} {ref_fmt(row[2])} {ref_fmt(row[3])}")
    return "\n".join(lines) + "\n"


def ref_scan_rows(reports):
    lines = ["# columns = root residual bracket_lo bracket_hi"]
    for r in reports:
        lines.append(
            f"{ref_fmt(r.root)} {ref_fmt(r.residual_at_root)} "
            f"{ref_fmt(r.bracket[0])} {ref_fmt(r.bracket[1])}"
        )
    return "\n".join(lines) + "\n"


def config_of(path):
    """The config hash from a table's '# config = ...' header."""
    return read_lines(path)[1].split(" = ", 1)[1]


class TestTableBytes:
    def test_summary(self, tmp_path):
        pairs = [("model", "model4"), ("lam", ref_fmt(1 / 3)), ("status", "failed: x = y")]
        cli._write_summary(tmp_path / "summary.txt", {"config": "abc123"}, pairs)
        assert (tmp_path / "summary.txt").read_text() == ref_summary_text("abc123", pairs)

    @pytest.mark.parametrize(
        "flags",
        [[], ["--sigma", "3.5", "--c4", "0.25", "--mu2", "discrete"]],
        ids=["derived", "user-sigma"],
    )
    def test_simulate_summary_and_model4_conditions(self, tmp_path, capsys, flags):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, QUICK)
        assert main(["simulate", "--config", str(cfg), "--out", str(out)] + flags) == EXIT_OK
        body = [l.split(" = ", 1) for l in read_lines(out / "summary.txt") if not l.startswith("#")]
        config = config_of(out / "summary.txt")
        assert (out / "summary.txt").read_text() == ref_summary_text(config, body)

        lam = float(summary_dict(out / "summary.txt")["lam"])
        mode = "discrete" if flags else "continuum"
        mu2 = second_eigenvalue(Grid.interval(1.0, 32), mode)
        sigma, c4 = (3.5, 0.25) if flags else (None, 1.0)
        reports = cli._condition_reports(P4, lam, mu2, mode, c4, sigma)
        assert (out / "conditions.txt").read_text() == ref_conditions_text(config, reports)

    def test_non_hill_conditions(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_cfg(tmp_path, MODEL1)
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        config = config_of(out / "summary.txt")
        assert (out / "conditions.txt").read_text() == ref_conditions_text(config, None)

    def test_sweep_summary_with_failed_member(self, tmp_path, capsys):
        text = HALVING.format(grid="length = 1.0\nn = 16", scheme="imex-be", retry_limit=0)
        root = tmp_path / "sweep"
        argv = ["sweep", "--config", str(write_cfg(tmp_path, text)), "--param", "model.delta"]
        assert main(argv + ["--values", "1.5,30,0.50", "--out", str(root)]) == EXIT_OK
        rows = []
        for tok in ("0.50", "1.5", "30"):
            summary = summary_dict(root / f"model.delta={tok}" / "summary.txt")
            rate = float(summary.get("decay_rate_u_dev_linf", "nan").replace("n/a", "nan"))
            dev = float(summary.get("u_dev_linf_final", "nan"))
            rows.append((tok, "ok" if summary["status"] == "ok" else "failed", rate, dev))
        assert rows[2][1] == "failed" and math.isnan(rows[2][2])
        expected = ref_sweep_summary_text("model.delta", rows)
        assert (root / "sweep_summary.txt").read_text() == expected

    def test_check_stdout(self, capsys):
        assert main(["check", "--lam", "1.0", "--sigma", "2"]) == EXIT_OK
        reports = cli._condition_reports(P4, 1.0, math.pi**2, "continuum", 1.0, 2.0)
        assert capsys.readouterr().out == "\n".join(ref_condition_lines(reports)) + "\n"

    @pytest.mark.parametrize("t_end, u0", [(50.0, 0.5), (0.1, 0.25)], ids=["strided", "every-step"])
    def test_ode_stdout(self, capsys, t_end, u0):
        argv = ["ode", "--lam", "1.0", "--u0", str(u0), "--t-end", str(t_end), "--dt", "0.01"]
        assert main(argv) == EXIT_OK
        traj = integrate_homogeneous_ode(P4, 1.0, u0, t_end, 0.01)
        assert capsys.readouterr().out == ref_ode_stdout(traj, 1.0, u0)

    def test_scan_stdout(self, capsys):
        flags = ["--k0", "0.05", "--delta", "0.22", "--length", repr(2.0 * math.pi)]
        assert main(["scan", "--param", "D", "--lo", "0.02", "--hi", "1.0"] + flags) == EXIT_OK
        out = capsys.readouterr().out.splitlines(keepends=True)
        p = dataclasses.replace(P4, k0=0.05, delta=0.22)
        reports = scan_degeneracy(p, 1.0, 2, 0.25, "D", 0.02, 1.0, 200)
        assert reports
        assert "".join(out[2:]) == ref_scan_rows(reports)


# -- bad input files and output paths exit 2 -------------------------------

FILE_IC = QUICK.replace("n = 32", "n = 8").replace(
    "kind = perturbation\nlam = 1.0\namplitude = 0.1", "kind = file\npath = {path}"
)


def _snapshot(tmp_path, edit=None):
    """A valid 8-node snapshot at tmp_path/ic.txt, its lines passed through ``edit``."""
    g = Grid.interval(1.0, 8)
    state = solver.SimState(0.0, Field(g, np.full(8, 0.5)), Field(g, np.full(8, 0.25)))
    path = tmp_path / "ic.txt"
    solver.write_snapshot(path, state, P4)
    if edit is not None:
        path.write_text("\n".join(edit(read_lines(path))) + "\n")
    return path


def _ic_case(make_ic):
    """A simulate run whose [ic] file is ``make_ic(tmp_path)``, the path the error must name."""

    def case(tmp_path):
        path = make_ic(tmp_path)
        cfg = write_cfg(tmp_path, FILE_IC.format(path=path))
        return ["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")], path

    return case


def _edited(edit):
    return _ic_case(lambda tmp_path: _snapshot(tmp_path, edit))


def _each_row(edit_row):
    return _edited(lambda lines: [l if l.startswith("#") else edit_row(l) for l in lines])


def _drop_last_value(row):
    return row.rsplit(" ", 1)[0]


def _latin1_snapshot(tmp_path):
    path = _snapshot(tmp_path)
    path.write_bytes("# r\xe9sum\xe9\n".encode("latin-1") + path.read_bytes())
    return path


def _latin1_scenario(*command):
    def case(tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_bytes(("; r\xe9sum\xe9\n" + QUICK).encode("latin-1"))
        return [*command, "--config", str(cfg), "--out", str(tmp_path / "out")], cfg

    return case


def _out_is_file(*command):
    def case(tmp_path):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        return [*command, "--config", str(write_cfg(tmp_path, QUICK)), "--out", str(out)], out

    return case


BAD_INPUTS = {
    "ic-token": _edited(lambda lines: lines[:-1] + ["0.5 abc 0.25 1.5"]),
    "ic-short-row": _edited(lambda lines: lines[:-1] + [_drop_last_value(lines[-1])]),
    "ic-short-rows": _each_row(_drop_last_value),
    "ic-missing-row": _edited(lambda lines: lines[:-1]),
    "ic-extra-row": _edited(lambda lines: lines + [lines[-1]]),
    "ic-grid-count": _edited(lambda lines: [l.replace("interval 1 8", "interval 1 8.5") for l in lines]),
    "ic-grid-kind": _edited(lambda lines: [l.replace("interval 1 8", "segment 1 8") for l in lines]),
    "ic-no-rows": _edited(lambda lines: [l for l in lines if l.startswith("#")]),
    "ic-no-time": _edited(lambda lines: [l for l in lines if not l.startswith("# t =")]),
    "ic-directory": _ic_case(lambda tmp_path: tmp_path),
    "ic-not-utf8": _ic_case(_latin1_snapshot),
    "scenario-not-utf8": _latin1_scenario("simulate"),
    "sweep-template-not-utf8": _latin1_scenario("sweep", "--param", "model.d", "--values", "4.0"),
    "simulate-out-is-file": _out_is_file("simulate"),
    "sweep-out-is-file": _out_is_file("sweep", "--param", "model.d", "--values", "4.0"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_2_naming_the_file(tmp_path, capsys, case):
    argv, named = BAD_INPUTS[case](tmp_path)
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(named) in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "summary.txt").exists()


# -- one model line per snapshot; visible sweep set-up failures -------------


def test_every_snapshot_has_one_model_line(tmp_path):
    ok = write_cfg(tmp_path, QUICK + "\n[output]\nsnapshot_every = 2\n", name="ok.cfg")
    assert main(["simulate", "--config", str(ok), "--out", str(tmp_path / "ok")]) == EXIT_OK
    failing = write_cfg(tmp_path, BLOW, name="blow.cfg")
    assert main(["simulate", "--config", str(failing), "--out", str(tmp_path / "blow")]) == EXIT_RUNTIME
    snaps = sorted(tmp_path.glob("ok/state_*.txt")) + [tmp_path / "ok" / "final_state.txt"]
    snaps.append(tmp_path / "blow" / "last_state.txt")
    assert len(snaps) == 5
    for path in snaps:
        models = [l for l in read_lines(path) if l.startswith("# model = ")]
        assert models == ["# model = model4"], path.name


def _sweep_rows(root):
    return [l.split() for l in read_lines(root / "sweep_summary.txt") if not l.startswith("#")]


def _negative_entry(lines):
    x, u, *rest = lines[-1].split()
    return lines[:-1] + [" ".join([x, f"-{u}", *rest])]


def test_sweep_exits_2_when_every_member_fails_at_set_up(tmp_path, capsys):
    ic = _snapshot(tmp_path, lambda lines: [l if l.startswith("#") else _drop_last_value(l) for l in lines])
    cfg = write_cfg(tmp_path, FILE_IC.format(path=ic))
    root = tmp_path / "sweep"
    argv = ["sweep", "--config", str(cfg), "--param", "model.d", "--values", "3,4", "--out", str(root)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    for tok, line in zip(("3", "4"), err):
        assert line.startswith(f"config error in sweep member model.d={tok}: snapshot file {ic} ")
        assert "has 8 rows of 3 values" in line
    assert len(err) == 2
    assert _sweep_rows(root) == [["3", "failed", "nan", "nan"], ["4", "failed", "nan", "nan"]]

    # set-up errors that run finds, and the one above, read as simulate prints them
    (tmp_path / "negative").mkdir()
    negative = FILE_IC.format(path=_snapshot(tmp_path / "negative", _negative_entry))
    cases = [
        ("unreadable-ic", cfg, "model.d", ("3", "4"), "config error"),
        ("negative-ic", write_cfg(tmp_path, negative, "neg.cfg"), "model.d", ("3", "4"), "parameter error"),
        ("dt-off-t_end", write_cfg(tmp_path, QUICK, "quick.cfg"), "solver.dt", ("0.03", "0.07"), "config error"),
    ]
    for name, cfg, param, toks, kind in cases:
        root = tmp_path / name
        argv = ["sweep", "--config", str(cfg), "--param", param, "--values", ",".join(toks)]
        assert main(argv + ["--out", str(root)]) == EXIT_CONFIG, name
        err = capsys.readouterr().err.splitlines()
        assert len(err) == len(toks), name
        for tok, line in zip(toks, err):
            member = root / f"{param}={tok}"
            solo = ["simulate", "--config", str(member / "scenario.cfg"), "--out", str(member / "s")]
            assert main(solo) == EXIT_CONFIG, name
            message = capsys.readouterr().err.removeprefix(f"{kind}: ")
            assert line + "\n" == f"{kind} in sweep member {param}={tok}: {message}", name
        assert _sweep_rows(root) == [[tok, "failed", "nan", "nan"] for tok in toks], name


@pytest.mark.parametrize("param, values", [("grid.n", "9,8"), ("solver.dt", "0.03,0.002")])
def test_sweep_member_failing_set_up_first_spares_the_next(tmp_path, capsys, param, values):
    # grid.n = 9 fails reading its IC, dt = 0.03 in run; each has a batch of its own
    cfg = write_cfg(tmp_path, FILE_IC.format(path=_snapshot(tmp_path)))
    root = tmp_path / "sweep"
    argv = ["sweep", "--config", str(cfg), "--param", param, "--values", values, "--out", str(root)]
    assert main(argv) == EXIT_OK
    bad, good = values.split(",")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error in sweep member {param}={bad}: ")
    assert {row[0]: row[1] for row in _sweep_rows(root)} == {bad: "failed", good: "ok"}
    assert summary_dict(root / f"{param}={good}" / "summary.txt")["status"] == "ok"
    assert (root / f"{param}={good}" / "final_state.txt").exists()


def test_sweep_member_set_up_failure_is_printed(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FILE_IC.format(path=_snapshot(tmp_path)))
    root = tmp_path / "sweep"
    argv = ["sweep", "--config", str(cfg), "--param", "grid.n", "--values", "8,9", "--out", str(root)]
    assert main(argv) == EXIT_OK
    err = capsys.readouterr().err
    assert err.startswith("config error in sweep member grid.n=9: [ic] snapshot grid ")
    assert "grid.n=8" not in err
    rows = _sweep_rows(root)
    assert [row[:2] for row in rows] == [["8", "ok"], ["9", "failed"]]
    assert rows[1][2:] == ["nan", "nan"]
    assert summary_dict(root / "grid.n=8" / "summary.txt")["status"] == "ok"


# -- the exit-code contract after a finished run, an empty --out, a closed stdout --

# the balance gap has roots near 0.0051, 0.322 and 0.506; the run flattens onto the last
THREE_ROOTS = """\
[model]
kind = model4
D = 4.0
tau = 1.0
b = 1.0
gamma = 1.0
k = 1.0
k0 = 0.001
delta = 0.2

[grid]
length = 1.0
n = 64

[solver]
t_end = 20.0
dt = 0.01
scheme = imex-cn
stride = 100

[ic]
kind = expression
u = 0.5 + 0.01*cos(pi*x/L)
v = 0.5
"""


def test_finished_run_with_several_equilibria_exits_0(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["simulate", "--config", str(write_cfg(tmp_path, THREE_ROOTS)), "--out", str(out)]
    assert main(argv) == EXIT_OK
    summary = summary_dict(out / "summary.txt")
    p = Model4Params(D=4.0, tau=1.0, b=1.0, gamma=1.0, k=1.0, k0=0.001, delta=0.2)
    with pytest.raises(EquilibriumError, match="3 sign changes"):
        solve_equilibrium(p, float(summary["lam"]))
    assert summary["mass_line_check"] == "pass"
    assert summary["status"] == "ok"
    assert not [key for key in summary if key.startswith("omega_")]


@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--param", "model.d", "--values", "4.0"]])
@pytest.mark.parametrize("out", ["", "  "])
def test_empty_out_exits_2(tmp_path, monkeypatch, capsys, command, out):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, QUICK)
    assert main([*command, "--config", str(cfg), "--out", out]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: --out must name a directory")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.cfg"]


def test_closed_stdout_exits_3_without_traceback(tmp_path, capsys):
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as sink, pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stdout", ClosedPipe(sink.fileno()))
        assert main(["equilibrium", "--lam", "1"]) == EXIT_RUNTIME
    assert capsys.readouterr().err == ""
