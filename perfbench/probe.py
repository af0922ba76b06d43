"""Child process of the benchmark: one call of ``polarsim.cli.main``.

    python3 probe.py REPORT TRACE REP -- ARGV...

Runs ``polarsim.cli.main(ARGV)``, exits with its return code and writes a
JSON report to REPORT:

- ``first_run``: ``time.monotonic()`` at the first entry into the solver's
  ``run``, which ends the set-up phase (untraced runs only);
- ``workers_peak``: the most threads, besides the main thread, alive at once;
- ``spans``: with TRACE = 1, every span recorded around the layer calls.
"""
from __future__ import annotations

import json
import sys
import threading
import time


def _count_workers(report: dict) -> None:
    start = threading.Thread.start

    def counting_start(self):
        start(self)
        report["workers_peak"] = max(report["workers_peak"], threading.active_count() - 1)

    threading.Thread.start = counting_start


def _mark_first_run(cli, report: dict) -> None:
    run = cli.run

    def marked_run(*args, **kwargs):
        if report["first_run"] is None:
            report["first_run"] = time.monotonic()
        return run(*args, **kwargs)

    cli.run = marked_run


def main() -> int:
    report_path, trace, rep = sys.argv[1], sys.argv[2] == "1", int(sys.argv[3])
    if sys.argv[4] != "--":
        raise SystemExit("usage: probe.py REPORT TRACE REP -- ARGV...")
    argv = sys.argv[5:]

    import polarsim.cli as cli

    report = {"first_run": None, "workers_peak": 0, "spans": None}
    _count_workers(report)
    if trace:
        import spans

        recorder = spans.Recorder(rep)
        spans.install(recorder)
        entry = recorder.wrap("cli.main", cli.main)
    else:
        _mark_first_run(cli, report)
        entry = cli.main
    code = 1
    try:
        code = entry(argv)
    finally:
        if trace:
            report["spans"] = recorder.dump()
        with open(report_path, "w") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
