"""Scenario configuration: flat INI files, validation, and IC construction.

The format is plain ``key = value`` under bracketed sections — diffable and
unambiguous.  Sections and keys are closed sets; an unknown key is an error
rather than a silent ignore, because a typo in ``delta`` must not quietly
run a different experiment.

The dataclasses a section builds define its schema.  The ``[model]`` keys
of a kind are the lowercased field names of its parameter class (a field
without a default is required), and the ``[solver]`` keys are the fields
of :class:`SolverConfig`.  A key absent from the file takes its field's
default, so the defaults live in the dataclasses (and :class:`ICSpec`) only.

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
import math
import re
import typing
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .diagnostics import DEFAULT_C4
from .equilibrium import has_homogeneous_equilibrium
from .errors import ConfigError, EquilibriumError, ParameterError
from .grid import EIGENVALUE_MODES, Field, Grid
from .kinetics import Model1Params, Model2Params, Model4Params, ModelParams
from .solver import SolverConfig, read_snapshot

__all__ = [
    "ICSpec",
    "ScenarioConfig",
    "load_scenario",
    "build_initial_condition",
    "compile_expression",
    "config_hash",
]

_MODEL_KINDS = {
    "model1": Model1Params,
    "model2": Model2Params,
    "model4": Model4Params,
    "model4-general-m": Model4Params,  # every field required, m included
}


def _keys(cls) -> set[str]:
    """Config keys of a dataclass: its lowercased field names."""
    return {f.name.lower() for f in fields(cls)}


_SECTION_KEYS = {
    "model": {"kind"}.union(*map(_keys, _MODEL_KINDS.values())),
    "grid": {"length", "n", "lx", "ly", "nx", "ny"},
    "solver": _keys(SolverConfig),
    "ic": {"kind", "lam", "amplitude", "mode", "seed", "u", "v", "path"},
    "diagnostics": {"c4", "sigma", "mu2"},
    "output": {"dir", "snapshot_every"},
}

# get_type_hints evaluates the annotation strings, about 0.1 ms per class
_type_hints = functools.cache(typing.get_type_hints)

_IC_KINDS = ("expression", "file", "perturbation")
_PERTURBATION_MODES = ("cosine", "random")


@dataclass(frozen=True)
class ICSpec:
    """Parsed [ic] section; exactly the fields for its kind are set."""

    kind: str
    lam: float | None = None
    amplitude: float = 0.1
    mode: str = "cosine"
    seed: int | None = None
    u_expr: str | None = None
    v_expr: str | None = None
    path: str | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one run."""

    params: ModelParams
    grid: Grid
    solver: SolverConfig
    ic: ICSpec
    c4: float
    sigma: float | None
    mu2_mode: str
    out_dir: Path
    snapshot_every: int
    config_hash: str

    @property
    def seed(self) -> int | None:
        return self.ic.seed


class _Section:
    """Typed access to one config section with error messages naming keys."""

    def __init__(self, name: str, items: dict[str, str]) -> None:
        self.name = name
        self.items = items

    def _raw(self, key: str, required: bool = False) -> str | None:
        val = self.items.get(key)
        if val is None or val.strip() == "":
            if required:
                raise ConfigError(f"[{self.name}] is missing required key '{key}'")
            return None
        return val.strip()

    def string(self, key: str, default: str | None = None, required: bool = False) -> str | None:
        val = self._raw(key, required)
        return default if val is None else val

    def number(self, key: str, default: float | None = None, required: bool = False) -> float | None:
        val = self._raw(key, required)
        if val is None:
            return default
        try:
            out = float(val)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key} = {val!r} is not a number") from None
        if not math.isfinite(out):
            raise ConfigError(f"[{self.name}] {key} must be finite, got {val!r}")
        return out

    def integer(self, key: str, default: int | None = None, required: bool = False) -> int | None:
        val = self._raw(key, required)
        if val is None:
            return default
        try:
            return int(val)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key} = {val!r} is not an integer") from None


def _read_sections(path: Path) -> dict[str, _Section]:
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    out: dict[str, _Section] = {}
    for sec in cp.sections():
        if sec not in _SECTION_KEYS:
            raise ConfigError(
                f"unknown section [{sec}]; expected one of {sorted(_SECTION_KEYS)}"
            )
        items = dict(cp.items(sec))
        for key in items:
            if key not in _SECTION_KEYS[sec]:
                raise ConfigError(
                    f"unknown key '{key}' in [{sec}]; allowed: {sorted(_SECTION_KEYS[sec])}"
                )
        out[sec] = _Section(sec, items)
    for required in ("model", "grid", "solver", "ic"):
        if required not in out:
            raise ConfigError(f"config is missing required section [{required}]")
    out.setdefault("diagnostics", _Section("diagnostics", {}))
    out.setdefault("output", _Section("output", {}))
    return out


def _present_fields(sec: _Section, cls, all_required: bool = False) -> dict:
    """Keyword arguments for ``cls`` from the keys present in ``sec``.

    Each value is read by its field's type (int, str, else number); a field
    without a default (or every field, with ``all_required``) is required.
    """
    hints = _type_hints(cls)
    readers = {int: sec.integer, str: sec.string}
    kwargs = {}
    for f in fields(cls):
        read = readers.get(hints[f.name], sec.number)
        val = read(f.name.lower(), required=all_required or f.default is MISSING)
        if val is not None:
            kwargs[f.name] = val
    return kwargs


def _build_params(sec: _Section) -> ModelParams:
    kind = sec.string("kind", required=True).lower()
    if kind not in _MODEL_KINDS:
        raise ConfigError(f"[model] kind must be one of {sorted(_MODEL_KINDS)}, got {kind!r}")
    cls = _MODEL_KINDS[kind]
    allowed = _keys(cls) | {"kind"}
    for key in sec.items:
        if key not in allowed:
            raise ConfigError(f"key '{key}' in [model] does not belong to kind {kind}")
    kwargs = _present_fields(sec, cls, all_required=(kind == "model4-general-m"))
    try:
        return cls(**kwargs)
    except ParameterError as exc:
        raise ConfigError(f"[model] {exc}") from None


def _build_grid(sec: _Section) -> Grid:
    has_1d = sec._raw("length") is not None or sec._raw("n") is not None
    has_2d = any(sec._raw(k) is not None for k in ("lx", "ly", "nx", "ny"))
    if has_1d and has_2d:
        raise ConfigError("[grid] mixes 1-D keys (length, n) with 2-D keys (lx, ly, nx, ny)")
    try:
        if has_2d:
            return Grid.rectangle(
                sec.number("lx", required=True),
                sec.number("ly", required=True),
                sec.integer("nx", required=True),
                sec.integer("ny", required=True),
            )
        return Grid.interval(sec.number("length", required=True), sec.integer("n", required=True))
    except ParameterError as exc:
        raise ConfigError(f"[grid] {exc}") from None


def _build_solver(sec: _Section) -> SolverConfig:
    return SolverConfig(**_present_fields(sec, SolverConfig))


def _build_ic(sec: _Section, params: ModelParams) -> ICSpec:
    kind = sec.string("kind", required=True).lower()
    if kind not in _IC_KINDS:
        raise ConfigError(f"[ic] kind must be one of {_IC_KINDS}, got {kind!r}")
    if kind == "expression":
        return ICSpec(
            kind=kind,
            lam=sec.number("lam", default=None),
            u_expr=sec.string("u", required=True),
            v_expr=sec.string("v", required=True),
        )
    if kind == "file":
        path = sec.string("path", required=True)
        if not Path(path).exists():
            raise ConfigError(f"[ic] path {path!r} does not exist")
        return ICSpec(kind=kind, path=path)
    if not isinstance(params, Model4Params):
        raise ConfigError("[ic] kind = perturbation requires the model4 kinetics")
    mode = sec.string("mode", default=ICSpec.mode).lower()
    if mode not in _PERTURBATION_MODES:
        raise ConfigError(f"[ic] mode must be one of {_PERTURBATION_MODES}, got {mode!r}")
    seed = sec.integer("seed", default=None)
    if mode == "random" and seed is None:
        raise ConfigError("[ic] mode = random requires a seed")
    lam = sec.number("lam", required=True)
    if not (lam > 0):
        raise ConfigError(f"[ic] lam must be positive, got {lam}")
    amplitude = sec.number("amplitude", default=ICSpec.amplitude)
    return ICSpec(kind=kind, lam=lam, amplitude=amplitude, mode=mode, seed=seed)


def _canonical_dump(secs: dict[str, _Section], overrides: dict[str, str]) -> str:
    parts = []
    for name in sorted(secs):
        for key in sorted(secs[name].items):
            parts.append(f"{name}.{key}={secs[name].items[key].strip()}")
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
    """
    path = Path(path)
    secs = _read_sections(path)
    params = _build_params(secs["model"])
    grid = _build_grid(secs["grid"])
    solver = _build_solver(secs["solver"])
    ic = _build_ic(secs["ic"], params)
    diag = secs["diagnostics"]
    outsec = secs["output"]

    c4_val = c4 if c4 is not None else diag.number("c4", default=DEFAULT_C4)
    sigma_val = sigma if sigma is not None else diag.number("sigma", default=None)
    mu2_mode = (mu2 if mu2 is not None else diag.string("mu2", default="continuum")).lower()
    if mu2_mode not in EIGENVALUE_MODES:
        raise ConfigError(
            f"[diagnostics] mu2 must be one of {tuple(EIGENVALUE_MODES)}, got {mu2_mode!r}"
        )
    if not (c4_val > 0):
        raise ConfigError(f"[diagnostics] c4 must be positive, got {c4_val}")
    if sigma_val is not None and not (sigma_val > 0):
        raise ConfigError(f"[diagnostics] sigma must be positive, got {sigma_val}")

    if seed is not None:
        if ic.kind != "perturbation" or ic.mode != "random":
            raise ConfigError("--seed only applies to random-perturbation initial conditions")
        ic = replace(ic, seed=seed)

    out_dir = Path(out) if out is not None else Path(outsec.string("dir", default="out"))
    snapshot_every = outsec.integer("snapshot_every", default=0)
    if snapshot_every < 0:
        raise ConfigError(f"[output] snapshot_every must be >= 0, got {snapshot_every}")

    overrides: dict[str, str] = {}
    if out is not None:
        overrides["out"] = str(out)
    if seed is not None:
        overrides["seed"] = str(seed)
    if c4 is not None:
        overrides["c4"] = repr(float(c4))
    if sigma is not None:
        overrides["sigma"] = repr(float(sigma))
    if mu2 is not None:
        overrides["mu2"] = mu2_mode
    digest = config_hash(_canonical_dump(secs, overrides))

    return ScenarioConfig(
        params=params,
        grid=grid,
        solver=solver,
        ic=ic,
        c4=c4_val,
        sigma=sigma_val,
        mu2_mode=mu2_mode,
        out_dir=out_dir,
        snapshot_every=snapshot_every,
        config_hash=digest,
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
            from .equilibrium import solve_equilibrium

            try:
                eq = solve_equilibrium(scn.params, scn.ic.lam)
            except EquilibriumError as exc:
                raise ConfigError(f"[ic] cannot provide u_star/v_star: {exc}") from None
            env["u_star"] = eq.u_star
            env["v_star"] = eq.v_star
    return env, names


def build_initial_condition(scn: ScenarioConfig) -> tuple[Field, Field]:
    """Materialize the IC spec on the scenario grid, validating nonnegativity."""
    g = scn.grid
    ic = scn.ic
    if ic.kind == "file":
        _, file_grid, u, v = read_snapshot(ic.path)
        if file_grid != g:
            raise ConfigError(
                f"[ic] snapshot grid {file_grid.lengths}/{file_grid.counts} does not "
                f"match configured grid {g.lengths}/{g.counts}"
            )
        return Field(g, u), Field(g, v)
    if ic.kind == "expression":
        env, names = _expression_env(scn)
        fields = []
        for label, text in (("u", ic.u_expr), ("v", ic.v_expr)):
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
    from .equilibrium import solve_equilibrium

    p = scn.params
    if not has_homogeneous_equilibrium(p):
        raise ConfigError(
            "[ic] perturbation needs the Hill-kinetics model with b > 0 and delta > 0"
        )
    try:
        eq = solve_equilibrium(p, ic.lam)
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
