"""In-memory spans around the calls into each polarsim layer.

Used only by the traced child process (see probe.py).  The program's source
is not edited: each public function is replaced, at the place it is looked up
when called, by a wrapper that records one span per call.  Functions that a
module imports by name are wrapped in that module (``polarsim.cli.run`` is
the solver's ``run``); methods are wrapped on their class.

A span is ``[name, start, end, parent, thread, rep, attr]``.  Times come from
``time.monotonic`` (CLOCK_MONOTONIC on Linux), so they compare directly with
the parent process's clock.  ``parent`` is the innermost open span of the
same thread; a thread with no open span (a sweep worker) takes the innermost
open span of the main thread, so sweep members hang under ``cli.cmd_sweep``.
``attr`` holds an optional value taken after the call returns, outside the
span (a file path, a step count).
"""
from __future__ import annotations

import threading
import time

_GRID_REDUCTIONS = ("mean", "integral", "inner", "deviation", "l2_norm", "linf_norm", "dirichlet_form")
_POSTRUN = (
    "attach_identity_residuals",
    "deviation_pairing_integral",
    "v_norm_sup",
    "estimate_decay_rate",
    "omega_limit_check",
)


def _first_arg(args, kwargs, result):
    return str(args[0])


def _ode_steps(args, kwargs, result):
    return len(result.t) - 1


class Recorder:
    """Holds every span of one process in memory until it exits."""

    def __init__(self, rep: int) -> None:
        self.rep = rep
        self.spans: list[list] = []
        self._local = threading.local()
        self._stacks: dict[int, list] = {}
        self._main = threading.main_thread().ident

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            self._stacks[threading.get_ident()] = stack
            return stack

    def _adopting_parent(self, tid: int):
        if tid == self._main:
            return None
        main_stack = self._stacks.get(self._main)
        try:
            return main_stack[-1] if main_stack else None
        except IndexError:  # the main thread closed its span meanwhile
            return None

    def wrap(self, name: str, fn, attr=None):
        spans = self.spans
        stack_of = self._stack
        clock = time.monotonic
        get_ident = threading.get_ident
        rep = self.rep

        def traced(*args, **kwargs):
            stack = stack_of()
            tid = get_ident()
            parent = stack[-1] if stack else self._adopting_parent(tid)
            span = [name, clock(), None, parent, tid, rep, None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attr is not None:
                span[6] = attr(args, kwargs, result)
            return result

        return traced

    def dump(self) -> list[list]:
        """Spans with parents as indices into the list (-1 for a root)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            [s[0], s[1], s[2], -1 if s[3] is None else index[id(s[3])], s[4], s[5], s[6]]
            for s in self.spans
        ]


def install(rec: Recorder) -> None:
    """Wrap the public calls of every polarsim layer where they are looked up."""
    from polarsim import cli, config, diagnostics, equilibrium, linearization, solver
    from polarsim.grid import Grid

    def patch(owner, attr_name: str, span_name: str, attr=None) -> None:
        setattr(owner, attr_name, rec.wrap(span_name, getattr(owner, attr_name), attr))

    for cmd in ("cmd_simulate", "cmd_sweep", "cmd_scan", "cmd_check", "cmd_ode"):
        patch(cli, cmd, f"cli.{cmd}")
    patch(cli, "run_scenario", "cli.run_scenario")
    patch(cli, "run", "solver.run")
    patch(cli, "write_snapshot", "solver.write_snapshot", _first_arg)
    patch(config, "read_snapshot", "solver.read_snapshot", _first_arg)
    patch(cli, "load_scenario", "config.load_scenario")
    patch(cli, "build_initial_condition", "config.build_initial_condition")
    patch(cli, "integrate_homogeneous_ode", "equilibrium.integrate_homogeneous_ode", _ode_steps)
    patch(cli, "scan_degeneracy", "linearization.scan_degeneracy")
    patch(linearization, "degeneracy_residual", "linearization.degeneracy_residual")

    # one wrapper for every place solve_equilibrium is looked up: the
    # local imports in solver, config and diagnostics read the module attribute
    solve_eq = rec.wrap("equilibrium.solve_equilibrium", equilibrium.solve_equilibrium)
    for owner in (equilibrium, cli, linearization):
        owner.solve_equilibrium = solve_eq

    for fn in _POSTRUN:
        patch(diagnostics, fn, f"diagnostics.{fn}")
    patch(diagnostics, "write_diagnostics_table", "diagnostics.write_diagnostics_table", _first_arg)
    patch(diagnostics.RecordBuilder, "build", "diagnostics.record_build")

    patch(Grid, "laplacian", "grid.laplacian")
    for fn in _GRID_REDUCTIONS:
        patch(Grid, fn, f"grid.{fn}")

    reaction_rhs = solver.reaction_rhs

    def traced_reaction_rhs(p):
        return rec.wrap("kinetics.reaction", reaction_rhs(p))

    solver.reaction_rhs = traced_reaction_rhs
