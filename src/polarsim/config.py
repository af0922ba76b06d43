"""Scenario configuration: flat INI files, validation, and IC construction.

The format is plain ``key = value`` under bracketed sections — diffable and
unambiguous.  Sections and keys are closed sets; an unknown key is an error
rather than a silent ignore, because a typo in ``delta`` must not quietly
run a different experiment.

Each section is read into the class that holds it, which is its schema:
the keys are its lowercased parameter names, a parameter without a default
is required, and an absent key takes the default.  ``[model]`` and ``[ic]``
name a ``kind`` that picks the class, and ``[grid]`` is read by the
:meth:`Grid.interval` or :meth:`Grid.rectangle` signature.

Initial conditions come in three kinds:

- ``expression``: arithmetic over node coordinates with a tiny whitelisted
  grammar ({x, y, pi, L, u_star, v_star, lambda} plus sin/cos/exp/tanh/
  sqrt/abs); parsed with the ast module, never eval'd raw.
- ``file``: a snapshot written by the solver, grid must match.
- ``perturbation``: the homogeneous equilibrium for a given mass, perturbed
  by a cosine mode or by seeded noise (Hill-kinetics model only, since the
  other models have no equilibrium solver here).
"""
from __future__ import annotations

import ast
import configparser
import functools
import hashlib
import inspect
import math
import re
import typing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import equilibrium
from .diagnostics import DEFAULT_C4
from .equilibrium import has_homogeneous_equilibrium
from .errors import ConfigError, EquilibriumError, ParameterError
from .grid import EIGENVALUE_MODES, Field, Grid
from .kinetics import Model1Params, Model2Params, Model4Params, ModelParams
from .solver import SolverConfig, read_snapshot

__all__ = [
    "ExpressionIC",
    "FileIC",
    "PerturbationIC",
    "ScenarioConfig",
    "load_scenario",
    "build_initial_condition",
    "compile_expression",
    "config_hash",
]

_PERTURBATION_MODES = ("cosine", "random")


@dataclass(frozen=True)
class ExpressionIC:
    """``[ic] kind = expression``; with ``lam`` set, u_star and v_star are defined."""

    u: str
    v: str
    lam: float | None = None


@dataclass(frozen=True)
class FileIC:
    """``[ic] kind = file``: a snapshot on the configured grid."""

    path: str

    def __post_init__(self) -> None:
        if not Path(self.path).exists():
            raise ParameterError(f"path {self.path!r} does not exist")


@dataclass(frozen=True)
class PerturbationIC:
    """``[ic] kind = perturbation`` of the equilibrium at mass ``lam``."""

    lam: float
    amplitude: float = 0.1
    mode: str = "cosine"
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", self.mode.lower())
        if self.mode not in _PERTURBATION_MODES:
            raise ParameterError(f"mode must be one of {_PERTURBATION_MODES}, got {self.mode!r}")
        if self.mode == "random" and self.seed is None:
            raise ParameterError("mode = random requires a seed")
        if not (self.lam > 0):
            raise ParameterError(f"lam must be positive, got {self.lam}")


@dataclass(frozen=True)
class _Diagnostics:
    """``[diagnostics]``: constants of the sufficient-condition checks."""

    c4: float = DEFAULT_C4
    sigma: float | None = None  # None: derived from the run
    mu2: str = "continuum"

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu2", self.mu2.lower())
        if self.mu2 not in EIGENVALUE_MODES:
            raise ParameterError(f"mu2 must be one of {tuple(EIGENVALUE_MODES)}, got {self.mu2!r}")
        if not (self.c4 > 0):
            raise ParameterError(f"c4 must be positive, got {self.c4}")
        if self.sigma is not None and not (self.sigma > 0):
            raise ParameterError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class _Output:
    """``[output]``: where a run writes, and a snapshot every k-th record."""

    dir: str = "out"
    snapshot_every: int = 0

    def __post_init__(self) -> None:
        if self.snapshot_every < 0:
            raise ParameterError(f"snapshot_every must be >= 0, got {self.snapshot_every}")


_MODEL_KINDS = {
    "model1": Model1Params,
    "model2": Model2Params,
    "model4": Model4Params,
    "model4-general-m": Model4Params,
}
_ALL_REQUIRED = {"model4-general-m"}  # kinds whose every key is required, m included
_IC_KINDS = {"expression": ExpressionIC, "file": FileIC, "perturbation": PerturbationIC}
_GRID_SHAPES = (Grid.interval, Grid.rectangle)


@functools.cache
def _schema(cls) -> dict[str, tuple[str, type, bool]]:
    """``key -> (parameter, type, required)`` of a class or function, on first use.

    Keys are lowercased parameter names; ``T | None`` reads as ``T``.
    """
    out = {}
    for par in inspect.signature(cls, eval_str=True).parameters.values():
        args = [a for a in typing.get_args(par.annotation) if a is not type(None)]
        out[par.name.lower()] = (par.name, args[0] if args else par.annotation, par.default is par.empty)
    return out


@functools.cache
def _section_keys() -> dict[str, set[str]]:
    """The keys each section accepts: those of every class it can be read into."""
    return {
        "model": {"kind"}.union(*map(_schema, _MODEL_KINDS.values())),
        "grid": set().union(*map(_schema, _GRID_SHAPES)),
        "solver": set(_schema(SolverConfig)),
        "ic": {"kind"}.union(*map(_schema, _IC_KINDS.values())),
        "diagnostics": set(_schema(_Diagnostics)),
        "output": set(_schema(_Output)),
    }


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one run."""

    params: ModelParams
    grid: Grid
    solver: SolverConfig
    ic: ExpressionIC | FileIC | PerturbationIC
    c4: float
    sigma: float | None
    mu2_mode: str
    out_dir: Path
    snapshot_every: int
    config_hash: str

    @property
    def seed(self) -> int | None:
        return getattr(self.ic, "seed", None)


def _read_sections(path: Path) -> dict[str, dict[str, str]]:
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    section_keys = _section_keys()
    out: dict[str, dict[str, str]] = {}
    for sec in cp.sections():
        if sec not in section_keys:
            raise ConfigError(
                f"unknown section [{sec}]; expected one of {sorted(section_keys)}"
            )
        items = dict(cp.items(sec))
        for key in items:
            if key not in section_keys[sec]:
                raise ConfigError(
                    f"unknown key '{key}' in [{sec}]; allowed: {sorted(section_keys[sec])}"
                )
        out[sec] = items
    for required in ("model", "grid", "solver", "ic"):
        if required not in out:
            raise ConfigError(f"config is missing required section [{required}]")
    out.setdefault("diagnostics", {})
    out.setdefault("output", {})
    return out


def _parse(section: str, key: str, text: str, kind: type):
    """A raw value read as its parameter's type: str, int, or else a finite float."""
    if kind is str:
        return text
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"[{section}] {key} = {text!r} is not an integer") from None
    try:
        val = float(text)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {text!r} is not a number") from None
    if not math.isfinite(val):
        raise ConfigError(f"[{section}] {key} must be finite, got {text!r}")
    return val


def _build(section: str, items: dict[str, str], cls, all_required: bool = False):
    """``cls`` called with its schema's keys from ``items``; an empty value is absent."""
    kwargs = {}
    for key, (name, kind, required) in _schema(cls).items():
        text = items.get(key, "")
        if text:
            kwargs[name] = _parse(section, key, text, kind)
        elif required or all_required:
            raise ConfigError(f"[{section}] is missing required key '{key}'")
    try:
        return cls(**kwargs)
    except ParameterError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def _build_kind(section: str, items: dict[str, str], kinds: dict):
    """Read a section whose ``kind`` key picks the class from ``kinds``."""
    if not items.get("kind"):
        raise ConfigError(f"[{section}] is missing required key 'kind'")
    kind = items["kind"].lower()
    if kind not in kinds:
        raise ConfigError(f"[{section}] kind must be one of {sorted(kinds)}, got {kind!r}")
    cls = kinds[kind]
    for key in items:
        if key != "kind" and key not in _schema(cls):
            raise ConfigError(f"key '{key}' in [{section}] does not belong to kind {kind}")
    return _build(section, items, cls, all_required=kind in _ALL_REQUIRED)


def _grid_shape(items: dict[str, str]):
    """Grid.interval or Grid.rectangle: the one whose keys ``[grid]`` sets."""
    shapes = [f for f in _GRID_SHAPES if any(items.get(key) for key in _schema(f))]
    if len(shapes) > 1:
        one, two = (", ".join(_schema(f)) for f in _GRID_SHAPES)
        raise ConfigError(f"[grid] mixes 1-D keys ({one}) with 2-D keys ({two})")
    return shapes[0] if shapes else Grid.interval


def _canonical_dump(secs: dict[str, dict[str, str]], overrides: dict[str, str]) -> str:
    parts = []
    for name in sorted(secs):
        for key in sorted(secs[name]):
            parts.append(f"{name}.{key}={secs[name][key].strip()}")
    for key in sorted(overrides):
        parts.append(f"override.{key}={overrides[key]}")
    return "\n".join(parts)


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_scenario(
    path: str | Path,
    out: str | None = None,
    seed: int | None = None,
    c4: float | None = None,
    sigma: float | None = None,
    mu2: str | None = None,
) -> ScenarioConfig:
    """Parse and validate a scenario file, applying CLI overrides.

    The config hash covers the file's effective keys plus the applied
    overrides, so any change that could alter the run changes the hash.
    An override replaces the file's raw value before it is read, so a
    value it replaces is never checked.
    """
    path = Path(path)
    secs = _read_sections(path)
    params = _build_kind("model", secs["model"], _MODEL_KINDS)
    grid = _build("grid", secs["grid"], _grid_shape(secs["grid"]))
    solver = _build("solver", secs["solver"], SolverConfig)
    ic = _build_kind("ic", secs["ic"], _IC_KINDS)
    if isinstance(ic, PerturbationIC) and not isinstance(params, Model4Params):
        raise ConfigError("[ic] kind = perturbation requires the model4 kinetics")

    overrides: dict[str, str] = {}
    if out is not None:
        if not str(out).strip():
            raise ConfigError("--out must name a directory, got an empty value")
        overrides["out"] = str(out)
    if seed is not None:
        overrides["seed"] = str(seed)
    if c4 is not None:
        overrides["c4"] = repr(float(c4))
    if sigma is not None:
        overrides["sigma"] = repr(float(sigma))
    if mu2 is not None:
        overrides["mu2"] = mu2.lower()
    diag_items = {key: overrides[key] for key in ("c4", "sigma", "mu2") if key in overrides}
    diag = _build("diagnostics", secs["diagnostics"] | diag_items, _Diagnostics)

    if seed is not None:
        if not (isinstance(ic, PerturbationIC) and ic.mode == "random"):
            raise ConfigError("--seed only applies to random-perturbation initial conditions")
        ic = replace(ic, seed=seed)

    output = _build("output", secs["output"], _Output)

    return ScenarioConfig(
        params=params,
        grid=grid,
        solver=solver,
        ic=ic,
        c4=diag.c4,
        sigma=diag.sigma,
        mu2_mode=diag.mu2,
        out_dir=Path(out if out is not None else output.dir),
        snapshot_every=output.snapshot_every,
        config_hash=config_hash(_canonical_dump(secs, overrides)),
    )


# -- safe expressions --------------------------------------------------

_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.UAdd, ast.USub)


def compile_expression(text: str, names: set[str]):
    """Compile a whitelisted arithmetic expression to a callable of an env dict.

    ``lambda`` is a keyword in Python, so the conserved-mass symbol is
    rewritten to ``lam`` before parsing; both spellings work in configs.
    """
    rewritten = re.sub(r"\blambda\b", "lam", text)
    try:
        tree = ast.parse(rewritten, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc.msg}") from None
    for node in ast.walk(tree):
        if isinstance(node, ast.Expression):
            continue
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
            continue
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, _ALLOWED_UNARY):
            continue
        if isinstance(node, _ALLOWED_BINOPS + _ALLOWED_UNARY):
            continue
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in _FUNCS
                and not node.keywords
            ):
                continue
            raise ConfigError(
                f"expression {text!r}: only calls to {sorted(_FUNCS)} are allowed"
            )
        if isinstance(node, ast.Name):
            if node.id in names or node.id in _FUNCS:
                continue
            raise ConfigError(
                f"expression {text!r}: unknown name {node.id!r}; "
                f"available: {sorted(names)}"
            )
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            continue
        if isinstance(node, ast.Load):
            continue
        raise ConfigError(
            f"expression {text!r}: element {type(node).__name__} is not allowed"
        )
    code = compile(tree, "<initial-condition>", "eval")

    def evaluate(env: dict):
        scope = dict(_FUNCS)
        scope.update(env)
        return eval(code, {"__builtins__": {}}, scope)

    return evaluate


def _expression_env(scn: ScenarioConfig) -> tuple[dict, set[str]]:
    g = scn.grid
    env: dict = {"pi": math.pi, "L": g.lengths[0]}
    names = {"x", "pi", "L", "lam", "u_star", "v_star"}
    if g.dim == 1:
        env["x"] = g.coords()[0]
    else:
        xs, ys = g.meshgrid()
        env["x"] = xs
        env["y"] = ys
        env["Lx"] = g.lengths[0]
        env["Ly"] = g.lengths[1]
        names |= {"y", "Lx", "Ly"}
    if scn.ic.lam is not None:
        env["lam"] = scn.ic.lam
        if has_homogeneous_equilibrium(scn.params):
            try:
                eq = equilibrium.solve_equilibrium(scn.params, scn.ic.lam)
            except EquilibriumError as exc:
                raise ConfigError(f"[ic] cannot provide u_star/v_star: {exc}") from None
            env["u_star"] = eq.u_star
            env["v_star"] = eq.v_star
    return env, names


def build_initial_condition(scn: ScenarioConfig) -> tuple[Field, Field]:
    """Materialize the IC spec on the scenario grid, validating nonnegativity."""
    g = scn.grid
    ic = scn.ic
    if isinstance(ic, FileIC):
        _, file_grid, u, v = read_snapshot(ic.path)
        if file_grid != g:
            raise ConfigError(
                f"[ic] snapshot grid {file_grid.lengths}/{file_grid.counts} does not "
                f"match configured grid {g.lengths}/{g.counts}"
            )
        return Field(g, u), Field(g, v)
    if isinstance(ic, ExpressionIC):
        env, names = _expression_env(scn)
        fields = []
        for label, text in (("u", ic.u), ("v", ic.v)):
            fn = compile_expression(text, names)
            try:
                raw = fn(env)
            except NameError as exc:
                raise ConfigError(f"[ic] {label}: {exc}") from None
            arr = np.asarray(raw, dtype=float)
            arr = np.broadcast_to(arr, g.shape).copy()
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"[ic] {label} evaluates to non-finite values")
            if float(np.min(arr)) < 0.0:
                raise ConfigError(
                    f"[ic] {label} is negative somewhere (min = {float(np.min(arr)):.3e}); "
                    "initial data must be nonnegative"
                )
            fields.append(Field(g, arr))
        return fields[0], fields[1]
    # perturbation of the homogeneous equilibrium
    p = scn.params
    if not has_homogeneous_equilibrium(p):
        raise ConfigError(
            "[ic] perturbation needs the Hill-kinetics model with b > 0 and delta > 0"
        )
    try:
        eq = equilibrium.solve_equilibrium(p, ic.lam)
    except EquilibriumError as exc:
        raise ConfigError(f"[ic] equilibrium for lam = {ic.lam} unavailable: {exc}") from None
    if ic.mode == "cosine":
        if g.dim == 1:
            x = g.coords()[0]
            bump = np.cos(math.pi * x / g.lengths[0])
        else:
            xs, ys = g.meshgrid()
            bump = np.cos(math.pi * xs / g.lengths[0]) * np.cos(math.pi * ys / g.lengths[1])
        u = eq.u_star * (1.0 + ic.amplitude * bump)
    else:
        rng = np.random.default_rng(ic.seed)
        u = eq.u_star * (1.0 + ic.amplitude * rng.standard_normal(g.shape))
    if float(np.min(u)) < 0.0:
        raise ConfigError(
            f"[ic] amplitude {ic.amplitude} drives u negative "
            f"(min = {float(np.min(u)):.3e}); reduce it"
        )
    v = np.full(g.shape, eq.v_star)
    return Field(g, u), Field(g, v)
