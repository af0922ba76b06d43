"""polarsim benchmark: one workload in a closed loop for a fixed time.

    python3 perfbench/run.py --workload {conv1d,field2d,study} --seed N \\
        --seconds S --trace {0,1}

Run it from anywhere inside a polarsim checkout; it runs the checkout's
``src/polarsim`` through its user entry point ``polarsim.cli.main``, one
process per CLI invocation, one repetition after another, until S seconds
have passed.  Each repetition gets a fresh directory under
``.perfbench_work/`` at the checkout root, removed after its outputs are
checked.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, from untraced repetitions only; with
``--trace 1`` traced and untraced repetitions alternate, and the metrics are
the per-layer ones from the traced repetitions, plus the tracing overhead.
The line before it holds the provenance and the raw samples.  Exit code 2,
with no result, means the program could not be found or imported.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
from workloads import WORKLOADS, Proc, Rep, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBE = HERE / "probe.py"
RUN_LIMIT_S = 150.0  # processes still running this long after the start are killed
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "POLARSIM_THREADS",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def preflight(env: dict[str, str]) -> str | None:
    """Why the checkout's polarsim cannot be run, or None.  Also warms the import."""
    cli = ROOT / "src" / "polarsim" / "cli.py"
    if not cli.is_file():
        return f"{cli} not found; run the benchmark inside a polarsim checkout"
    try:
        done = subprocess.run(
            [sys.executable, "-c", "import polarsim.cli; print(polarsim.cli.__file__)"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=20,
        )
    except subprocess.TimeoutExpired:
        return "importing polarsim.cli took more than 20 s"
    if done.returncode != 0:
        return "cannot import polarsim.cli:\n" + done.stderr
    if Path(done.stdout.strip()).resolve() != cli.resolve():
        return f"polarsim.cli was imported from {done.stdout.strip()}, not from {cli}"
    return None


def _cpuinfo() -> dict[str, str]:
    found = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, val = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in found:
                    found[key] = val.strip()
    except OSError:
        pass
    return found


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # an exported checkout; never ask an enclosing repository
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance() -> dict:
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polarsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = _cpuinfo()
    return {
        "git_sha": _git_sha(),  # None outside a git repository
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu.get("model name"),
        "last_level_cache": cpu.get("cache size"),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap proc, killing it after timeout seconds; (returncode or None, rusage)."""
    killed = []

    def on_alarm(signum, frame):
        if proc.returncode is None:
            proc.kill()
            killed.append(True)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return (None if killed else proc.returncode), usage


def _spawn(argv: list[str], rep: Rep, k: int, traced: bool, env: dict, deadline: float) -> Proc:
    report = rep.path / f"probe-{k}.json"
    stdout = rep.path / f"stdout-{k}.txt"
    cmd = [sys.executable, str(PROBE), str(report), "1" if traced else "0", str(rep.index), "--", *argv]
    with open(stdout, "wb") as out, open(rep.path / f"stderr-{k}.txt", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=rep.path, env=env, stdout=out, stderr=err)
        returncode, usage = _wait(proc, deadline - time.monotonic())
        wall = time.monotonic() - spawned
    try:
        probe = json.loads(report.read_text())
    except (OSError, ValueError):
        probe = {}
    return Proc(returncode, stdout.read_text(), spawned, wall, usage.ru_maxrss, probe)


def run_repetition(wl: Workload, run_dir: Path, index: int, traced: bool, env: dict, deadline: float) -> Rep:
    rep = Rep(index, Path(tempfile.mkdtemp(prefix="rep-", dir=run_dir)))
    start = time.monotonic()
    for k, argv in enumerate(wl.commands):
        rep.procs.append(_spawn(argv, rep, k, traced, env, deadline))
    rep.wall_s = time.monotonic() - start
    return rep


def tail(samples: list[float]) -> dict:
    """The highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(samples)
    pct = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if pct < 50:
        return {"samples": n, "percentile": None, "value": None}
    ordered = sorted(samples)
    return {"samples": n, "percentile": pct, "value": ordered[math.ceil(pct * n / 100) - 1]}


def run_benchmark(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False, corrupt=None
) -> tuple[dict, dict]:
    """Run one workload; return (result, details).

    ``corrupt(rep)``, when given, runs between a repetition and its checks;
    the self-test uses it to damage an output.
    """
    env = child_env()
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work))
    nproc = os.cpu_count() or 1
    samples: dict[str, list[float]] = {"wall_s": [], "setup_s": [], "peak_rss_mb": [], "traced_wall_s": []}
    per_layer: list[dict[str, float]] = []
    attempted = failed = 0
    failures: list[str] = []
    accounting: list[str] = []
    try:
        inputs = run_dir / "inputs"
        inputs.mkdir()
        wl = WORKLOADS[name](smoke)
        wl.prepare(inputs, seed)
        ref: dict = {}
        start = time.monotonic()
        index = 0
        while True:
            traced = trace and index % 2 == 1
            rep = run_repetition(wl, run_dir, index, traced, env, start + RUN_LIMIT_S)
            if corrupt is not None:
                corrupt(rep)
            ops = wl.check(rep, ref, nproc)
            attempted += len(ops)
            for op in ops:
                if op.failures:
                    failed += 1
                    failures.extend(f"rep {index} {op.name}: {f}" for f in op.failures)
            if traced:
                samples["traced_wall_s"].append(rep.wall_s)
                try:
                    per_layer.append(layers.rep_metrics(rep, wl.summaries(rep), wl.nodes))
                except layers.AccountingError as exc:
                    accounting.append(f"rep {index}: {exc}")
            else:
                samples["wall_s"].append(rep.wall_s)
                samples["peak_rss_mb"].append(max(p.rss_kb for p in rep.procs) / 1024.0)
                setup = [p.report["first_run"] - p.spawned for p in rep.procs if p.report.get("first_run")]
                if setup:
                    samples["setup_s"].append(setup[0])
            shutil.rmtree(rep.path)
            index += 1
            elapsed = time.monotonic() - start
            if elapsed >= RUN_LIMIT_S or (elapsed >= seconds and (not trace or index >= 2)):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:  # another run still uses it
            pass

    def median(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    if trace:
        metrics = {
            key: median([m[key] for m in per_layer])
            for key in layers.UNITS if key not in ("trace.overhead_frac", "failed_frac")
        }
        untraced = median(samples["wall_s"])
        metrics["trace.overhead_frac"] = (
            median(samples["traced_wall_s"]) / untraced - 1.0 if untraced else 0.0
        )
        metrics["failed_frac"] = failed / attempted if attempted else 0.0
        units = layers.UNITS
    else:
        metrics = {key: median(samples[key]) for key in END_TO_END}
        units = END_TO_END
    result = {
        "correct": failed == 0 and not accounting and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    details = {
        "workload": name,
        "seed": seed,
        "repetitions": index,
        "wall_s_tail": tail(samples["wall_s"]),
        "samples": samples,
        "failures": failures[:20],
        "accounting_errors": accounting[:20],
        "provenance": provenance(),
    }
    return result, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    problem = preflight(child_env())
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    result, details = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
