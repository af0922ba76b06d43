"""The benchmark's three workloads: seeded inputs, CLI invocations and checks.

Each workload writes its inputs once per run into an ``inputs`` directory.
A repetition runs its CLI invocations, one process each and one after the
other, in a fresh directory beside ``inputs``, so every path the program sees
is relative and the same in every repetition (the config hash in the output
headers includes the ``--out`` override).  ``check`` then turns the outputs
into one verdict per operation: a CLI invocation or a sweep member.
"""
from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

MASS_DRIFT_LIMIT = 1e-10  # the README's conservation claim

_MODEL4 = """\
[model]
kind = model4
D = 4.0
tau = 1.0
b = 1.0
gamma = 1.0
k = 1.0
k0 = 0.1
delta = 1.0
"""


@dataclass
class Proc:
    """One finished CLI invocation of a repetition."""

    returncode: int | None  # None when it was killed for running too long
    stdout: str
    spawned: float
    wall_s: float
    rss_kb: int
    report: dict


@dataclass
class Rep:
    """One repetition: its directory and its processes, in order."""

    index: int
    path: Path
    procs: list[Proc] = field(default_factory=list)
    wall_s: float = 0.0


@dataclass
class Op:
    name: str
    failures: list[str]


def read_summary(path: Path) -> dict[str, str] | None:
    if not path.is_file():
        return None
    out = {}
    for line in path.read_text().splitlines():
        if not line.startswith("#") and " = " in line:
            key, val = line.split(" = ", 1)
            out[key] = val
    return out


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def _same_as_first(ref: dict, key: str, digest: str | None, failures: list[str]) -> None:
    """Outputs of one commit must repeat byte for byte; repetition 1 is the reference."""
    if digest is None:
        failures.append(f"{key} missing")
    elif ref.setdefault(key, digest) != digest:
        failures.append(f"{key} differs from the first repetition")


def _process_failures(proc: Proc, nproc: int) -> list[str]:
    failures = []
    if proc.returncode is None:
        failures.append("killed after the time limit")
    elif proc.returncode != 0:
        failures.append(f"exit code {proc.returncode}")
    if proc.report.get("workers_peak", 0) > nproc:
        failures.append(f"{proc.report['workers_peak']} worker threads > nproc = {nproc}")
    return failures


def _scenario_failures(out: Path, label: str, ref: dict) -> tuple[list[str], dict | None]:
    """Checks shared by every simulated scenario (simulate or sweep member)."""
    failures: list[str] = []
    summary = read_summary(out / "summary.txt")
    if summary is None:
        return [f"{label}: no summary.txt"], None
    if summary.get("status") != "ok":
        failures.append(f"{label}: status = {summary.get('status')}")
    try:
        drift = float(summary["mass_drift_rel_max"])
    except (KeyError, ValueError):
        failures.append(f"{label}: no mass_drift_rel_max")
    else:
        if not drift <= MASS_DRIFT_LIMIT:
            failures.append(f"{label}: mass_drift_rel_max = {drift:g} > {MASS_DRIFT_LIMIT:g}")
    for name in ("diagnostics.txt", "final_state.txt"):
        _same_as_first(ref, f"{label}/{name}", _digest(out / name), failures)
    return failures, summary


def _data_rows(text: str) -> list[list[str]]:
    return [line.split() for line in text.splitlines() if line.strip() and not line.startswith("#")]


def _number_rows(text: str) -> list[list[float]]:
    """Data rows made only of numbers; other lines (messages) are skipped."""
    rows = []
    for row in _data_rows(text):
        try:
            rows.append([float(tok) for tok in row])
        except ValueError:
            pass
    return rows


class Workload:
    name = ""
    nodes = 0  # grid nodes of each simulated scenario, for diagnostics.history_bytes

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke

    def prepare(self, inputs: Path, seed: int) -> None:
        """Write the seeded inputs and fix ``self.commands``."""
        raise NotImplementedError

    def check(self, rep: Rep, ref: dict, nproc: int) -> list[Op]:
        raise NotImplementedError

    def summaries(self, rep: Rep) -> list[dict]:
        """summary.txt of every scenario the repetition simulated."""
        raise NotImplementedError


class _Simulate(Workload):
    """One ``simulate`` invocation of ``inputs/<name>.cfg``."""

    def __init__(self, smoke: bool = False) -> None:
        super().__init__(smoke)
        self.commands = [["simulate", "--config", f"../inputs/{self.name}.cfg", "--out", "out"]]

    def check(self, rep: Rep, ref: dict, nproc: int) -> list[Op]:
        failures = _process_failures(rep.procs[0], nproc)
        more, summary = _scenario_failures(rep.path / "out", "simulate", ref)
        failures += more
        if summary is not None:
            failures += self.extra_failures(rep, summary)
        return [Op("simulate", failures)]

    def extra_failures(self, rep: Rep, summary: dict) -> list[str]:
        return []

    def summaries(self, rep: Rep) -> list[dict]:
        return [s for s in [read_summary(rep.path / "out" / "summary.txt")] if s]


class Conv1d(_Simulate):
    name = "conv1d"
    nodes = 256

    def prepare(self, inputs: Path, seed: int) -> None:
        # The convergent scenario of configs/model4_convergent.cfg with t_end
        # shortened from 200; the seed is unused because the run is fixed.
        t_end = 4.0 if self.smoke else 12.0
        (inputs / "conv1d.cfg").write_text(
            _MODEL4
            + "\n[grid]\nlength = 1.0\nn = 256\n"
            + f"\n[solver]\nt_end = {t_end}\ndt = 0.002\nscheme = imex-cn\nstride = 250\n"
            + "\n[ic]\nkind = perturbation\nlam = 1.0\nmode = cosine\namplitude = 0.1\n"
            + "\n[diagnostics]\nc4 = 1.0\nmu2 = continuum\n"
            + "\n[output]\nsnapshot_every = 200\n"
        )

    def extra_failures(self, rep: Rep, summary: dict) -> list[str]:
        failures = []
        if summary.get("omega_converged") != "yes":
            failures.append(f"omega_converged = {summary.get('omega_converged')}")
        for cond in ("coupling", "contraction", "sigma"):
            if summary.get(f"condition_{cond}") != "pass":
                failures.append(f"condition_{cond} = {summary.get(f'condition_{cond}')}")
        return failures


class Field2d(_Simulate):
    name = "field2d"

    def prepare(self, inputs: Path, seed: int) -> None:
        n, steps, every = (32, 10, 5) if self.smoke else (128, 60, 10)
        self.nodes = n * n
        self.snapshots = len(range(0, steps + 1, every))
        _write_random_ic(inputs / "ic2d.txt", n, seed)
        (inputs / "field2d.cfg").write_text(
            "[model]\nkind = model2\nD = 0.4\ntau = 2.0\nalpha1 = 1.0\nalpha2 = 1.0\n"
            + f"\n[grid]\nlx = 1.0\nly = 1.0\nnx = {n}\nny = {n}\n"
            + f"\n[solver]\nt_end = {steps * 0.001!r}\ndt = 0.001\nscheme = imex-be\nstride = 1\n"
            + "\n[ic]\nkind = file\npath = ../inputs/ic2d.txt\n"
            + f"\n[output]\nsnapshot_every = {every}\n"
        )

    def extra_failures(self, rep: Rep, summary: dict) -> list[str]:
        written = len(list((rep.path / "out").glob("state_*.txt")))
        if written != self.snapshots:
            return [f"{written} snapshots written, expected {self.snapshots}"]
        return []


def _write_random_ic(path: Path, n: int, seed: int) -> None:
    """A seeded rough positive field in the snapshot format read by [ic] kind = file."""
    rng = random.Random(seed)
    h = 1.0 / (n - 1)
    lines = ["# polarsim snapshot", "# t = 0", f"# grid = rectangle 1 1 {n} {n}", "# columns = x y u v w"]
    for ix in range(n):
        for iy in range(n):
            u = 0.5 + 0.2 * rng.uniform(-1.0, 1.0)
            v = 0.7 + 0.1 * rng.uniform(-1.0, 1.0)
            lines.append("%.17g %.17g %.17g %.17g %.17g" % (ix * h, iy * h, u, v, 0.4 * u + v))
    path.write_text("\n".join(lines) + "\n")


class Study(Workload):
    name = "study"
    nodes = 64
    dt = 0.04

    def prepare(self, inputs: Path, seed: int) -> None:
        rng = random.Random(seed)
        n_low, steps, samples, ode_t = (3, 200, 40, 10) if self.smoke else (15, 1000, 200, 50)
        # One delta with delta*dt > 1 drives u negative in the first steps,
        # so the positivity guard must halve dt; the rest stay below 0.12.
        low = sorted({round(rng.uniform(0.25, 3.0), 4) for _ in range(4 * n_low)})
        values = rng.sample(low, n_low)
        high = round(rng.uniform(26.0, 40.0), 3)  # delta*dt >= 1.04
        values.insert(rng.randrange(n_low + 1), high)
        self.members = [f"{v:g}" for v in values]
        (inputs / "study.cfg").write_text(
            _MODEL4
            + "\n[grid]\nlength = 1.0\nn = 64\n"
            + f"\n[solver]\nt_end = {steps * self.dt!r}\ndt = {self.dt}\nscheme = imex-be\nstride = 50\n"
            + "\n[ic]\nkind = expression\nu = 0.5 + 0.2*cos(pi*x/L)\nv = 0.5 + 0.1*cos(2*pi*x/L)\n"
        )
        self.scan_range = (round(rng.uniform(0.02, 0.05), 4), round(rng.uniform(0.8, 1.0), 4))
        self.commands = [
            # mode-2 degeneracy in D on an interval of length 2 pi (README example)
            ["scan", "--param", "D", "--lo", str(self.scan_range[0]), "--hi", str(self.scan_range[1]),
             "--samples", str(samples), "--k0", "0.05", "--delta", "0.22", "--length", repr(2 * math.pi)],
            ["check", "--lam", str(round(rng.uniform(0.5, 1.5), 4))],
            ["ode", "--lam", "1.0", "--u0", str(round(rng.uniform(0.1, 0.9), 4)),
             "--t-end", str(ode_t), "--dt", "0.01"],
            ["sweep", "--config", "../inputs/study.cfg", "--param", "model.delta",
             "--values", ",".join(self.members), "--out", "out"],
        ]

    def check(self, rep: Rep, ref: dict, nproc: int) -> list[Op]:
        scan, check, ode, sweep = rep.procs
        ops = []
        for label, proc, content_check in (
            ("scan", scan, self._scan_failures),
            ("check", check, _check_failures),
            ("ode", ode, _ode_failures),
        ):
            failures = _process_failures(proc, nproc)
            if proc.returncode == 0:
                failures += content_check(proc.stdout)
                _same_as_first(ref, f"{label}/stdout", hashlib.sha256(proc.stdout.encode()).hexdigest(), failures)
            ops.append(Op(label, failures))

        failures = _process_failures(sweep, nproc)
        rows = _data_rows(_read(rep.path / "out" / "sweep_summary.txt"))
        if sorted(row[0] for row in rows) != sorted(self.members):
            failures.append("sweep_summary.txt does not list every member")
        ops.append(Op("sweep", failures))
        status = {row[0]: row[1] for row in rows}
        for tok in self.members:
            member = _scenario_failures(rep.path / "out" / f"model.delta={tok}", f"delta={tok}", ref)[0]
            if status.get(tok) != "ok":
                member.append(f"delta={tok}: sweep status {status.get(tok)}")
            ops.append(Op(f"member delta={tok}", member))
        return ops

    def _scan_failures(self, stdout: str) -> list[str]:
        lo, hi = self.scan_range
        roots = [row[0] for row in _number_rows(stdout) if len(row) == 4]
        if not any(lo <= r <= hi for r in roots):
            return ["scan bracketed no degeneracy point"]
        return []

    def summaries(self, rep: Rep) -> list[dict]:
        out = rep.path / "out"
        found = [read_summary(out / f"model.delta={tok}" / "summary.txt") for tok in self.members]
        return [s for s in found if s]


def _read(path: Path) -> str:
    return path.read_text() if path.is_file() else ""


def _check_failures(stdout: str) -> list[str]:
    names = sorted(row[0] for row in _data_rows(stdout))
    if names != ["contraction", "coupling", "sigma"]:
        return [f"check reported {names}"]
    return []


def _ode_failures(stdout: str) -> list[str]:
    """The well-mixed potential G must not decrease along the trajectory."""
    rows = [row for row in _number_rows(stdout) if len(row) == 4]
    if len(rows) < 2:
        return ["ode printed no trajectory"]
    g = [row[3] for row in rows]
    scale = max(1.0, max(abs(x) for x in g))
    if any(b < a - 1e-12 * scale for a, b in zip(g, g[1:])):
        return ["ode potential G decreased"]
    return []


WORKLOADS = {w.name: w for w in (Conv1d, Field2d, Study)}
