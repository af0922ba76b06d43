"""Scenario parsing, expression safety, and initial-condition assembly."""

import configparser
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from polarsim import Grid, Model1Params, Model2Params, Model4Params, config, solve_equilibrium
from polarsim.config import (
    PerturbationIC,
    build_initial_condition,
    compile_expression,
    load_scenario,
)
from polarsim.errors import ConfigError
from polarsim.solver import SimState, SolverConfig, write_snapshot
from polarsim import Field

BASE = """\
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
n = 64

[solver]
t_end = 1.0
dt = 0.002

[ic]
kind = perturbation
lam = 1.0
amplitude = 0.1
"""


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestScenarioParsing:
    def test_full_parse_with_defaults(self, tmp_path):
        scn = load_scenario(write_cfg(tmp_path, BASE))
        assert isinstance(scn.params, Model4Params)
        assert scn.params.D == 4.0 and scn.params.m == 2.0
        assert scn.grid == Grid.interval(1.0, 64)
        assert scn.solver.t_end == 1.0 and scn.solver.dt == 0.002
        assert scn.solver.scheme == "imex-be"
        assert isinstance(scn.ic, PerturbationIC) and scn.ic.lam == 1.0
        assert scn.c4 == 1.0
        assert scn.sigma is None
        assert scn.mu2_mode == "continuum"
        assert scn.snapshot_every == 0
        assert len(scn.config_hash) == 64

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_scenario(write_cfg(tmp_path, BASE + "\n[turbo]\nspeed = 11\n"))

    def test_unknown_key_rejected(self, tmp_path):
        bad = BASE.replace("delta = 1.0", "delta = 1.0\nzeta = 3")
        with pytest.raises(ConfigError, match="zeta"):
            load_scenario(write_cfg(tmp_path, bad))

    def test_missing_required_key_names_it(self, tmp_path):
        bad = BASE.replace("k0 = 0.1\n", "")
        with pytest.raises(ConfigError, match=r"\[model\].*k0"):
            load_scenario(write_cfg(tmp_path, bad))

    def test_negative_delta_names_field(self, tmp_path):
        bad = BASE.replace("delta = 1.0", "delta = -1.0")
        with pytest.raises(ConfigError, match="delta must be nonnegative"):
            load_scenario(write_cfg(tmp_path, bad))

    def test_general_m_kind_requires_m(self, tmp_path):
        bad = BASE.replace("kind = model4", "kind = model4-general-m")
        with pytest.raises(ConfigError, match=r"\[model\].*m"):
            load_scenario(write_cfg(tmp_path, bad))
        good = bad.replace("delta = 1.0", "delta = 1.0\nm = 3.0")
        scn = load_scenario(write_cfg(tmp_path, good, name="m3.cfg"))
        assert scn.params.m == 3.0

    def test_model1_parse(self, tmp_path):
        text = """\
[model]
kind = model1
D = 0.4
tau = 1.0
a = 1.0
b = 1.0
k = 1.0

[grid]
length = 1.0
n = 32

[solver]
t_end = 0.5
dt = 0.001

[ic]
kind = expression
u = 0.5 + 0.2*cos(pi*x/L)
v = 0.7
"""
        scn = load_scenario(write_cfg(tmp_path, text))
        assert isinstance(scn.params, Model1Params)
        assert scn.ic.u.startswith("0.5")

    def test_2d_grid_parse(self, tmp_path):
        text = BASE.replace("length = 1.0\nn = 64", "lx = 1.0\nly = 2.0\nnx = 8\nny = 12")
        scn = load_scenario(write_cfg(tmp_path, text))
        assert scn.grid == Grid.rectangle(1.0, 2.0, 8, 12)

    def test_bad_scheme_propagates(self, tmp_path):
        bad = BASE.replace("dt = 0.002", "dt = 0.002\nscheme = rk4")
        with pytest.raises(ConfigError, match="scheme"):
            load_scenario(write_cfg(tmp_path, bad))

    def test_ic_rules(self, tmp_path):
        no_seed = BASE.replace("amplitude = 0.1", "amplitude = 0.1\nmode = random")
        with pytest.raises(ConfigError, match="requires a seed"):
            load_scenario(write_cfg(tmp_path, no_seed))
        zero_lam = BASE.replace("lam = 1.0", "lam = 0.0")
        with pytest.raises(ConfigError, match="lam must be positive"):
            load_scenario(write_cfg(tmp_path, zero_lam))

    def test_perturbation_needs_hill_model(self, tmp_path):
        text = """\
[model]
kind = model1
D = 0.4
tau = 1.0
a = 1.0
b = 1.0
k = 1.0

[grid]
length = 1.0
n = 32

[solver]
t_end = 0.5
dt = 0.001

[ic]
kind = perturbation
lam = 1.0
"""
        with pytest.raises(ConfigError, match="perturbation requires the model4"):
            load_scenario(write_cfg(tmp_path, text))

    def test_missing_file_ic_rejected(self, tmp_path):
        text = BASE.replace(
            "kind = perturbation\nlam = 1.0\namplitude = 0.1",
            "kind = file\npath = /nonexistent/snap.txt",
        )
        with pytest.raises(ConfigError, match="does not exist"):
            load_scenario(write_cfg(tmp_path, text))


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_scenario_loads(tmp_path):
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    scn = load_scenario(write_cfg(tmp_path, block))
    assert scn.params == Model4Params(D=4.0, tau=1.0, b=1.0, gamma=1.0, k=1.0, k0=0.1, delta=1.0)
    assert scn.grid == Grid.interval(1.0, 256)
    assert scn.solver == SolverConfig(t_end=200.0, dt=0.002, scheme="imex-cn", stride=250)
    assert scn.ic == PerturbationIC(lam=1.0, mode="cosine", amplitude=0.1)
    assert (scn.c4, scn.mu2_mode, scn.out_dir, scn.snapshot_every) == (1.0, "continuum", Path("out/my_run"), 0)


class TestOverridesAndHash:
    def test_seed_override_limits(self, tmp_path):
        path = write_cfg(tmp_path, BASE)
        with pytest.raises(ConfigError, match="--seed only applies"):
            load_scenario(path, seed=7)
        rnd = BASE.replace("amplitude = 0.1", "amplitude = 0.1\nmode = random\nseed = 1")
        scn = load_scenario(write_cfg(tmp_path, rnd, name="r.cfg"), seed=99)
        assert scn.seed == 99

    def test_diagnostics_overrides(self, tmp_path):
        path = write_cfg(tmp_path, BASE)
        scn = load_scenario(path, c4=2.5, sigma=3.0, mu2="discrete")
        assert scn.c4 == 2.5 and scn.sigma == 3.0 and scn.mu2_mode == "discrete"
        with pytest.raises(ConfigError, match="sigma must be positive"):
            load_scenario(path, sigma=-1.0)
        with pytest.raises(ConfigError, match="mu2 must be one of"):
            load_scenario(path, mu2="exact")

    def test_hash_stability_and_sensitivity(self, tmp_path):
        path = write_cfg(tmp_path, BASE)
        h1 = load_scenario(path).config_hash
        h2 = load_scenario(path).config_hash
        assert h1 == h2
        # formatting-only changes leave the hash alone
        reformatted = BASE.replace("delta = 1.0", "delta =    1.0")
        h3 = load_scenario(write_cfg(tmp_path, reformatted, name="fmt.cfg")).config_hash
        assert h3 == h1
        # any effective difference moves it, including CLI overrides
        hc4 = load_scenario(path, c4=2.0).config_hash
        hout = load_scenario(path, out=str(tmp_path / "elsewhere")).config_hash
        hval = load_scenario(
            write_cfg(tmp_path, BASE.replace("dt = 0.002", "dt = 0.001"), name="dt.cfg")
        ).config_hash
        assert len({h1, hc4, hout, hval}) == 4

    def test_out_override_sets_dir(self, tmp_path):
        scn = load_scenario(write_cfg(tmp_path, BASE), out=str(tmp_path / "results"))
        assert scn.out_dir == tmp_path / "results"


class TestExpressionSafety:
    NAMES = {"x", "pi", "L", "lam"}

    def test_valid_expression(self):
        fn = compile_expression("0.5*(1 + 0.1*cos(2*pi*x/L))", self.NAMES)
        out = fn({"x": np.array([0.0, 0.25]), "pi": math.pi, "L": 1.0})
        np.testing.assert_allclose(out, [0.55, 0.5], rtol=1e-14)

    def test_lambda_spelling_is_rewritten(self):
        fn = compile_expression("lambda/2", self.NAMES)
        assert fn({"lam": 3.0}) == pytest.approx(1.5)

    def test_power_and_unary(self):
        fn = compile_expression("-(x**2) + 1", self.NAMES)
        assert fn({"x": 2.0}) == pytest.approx(-3.0)

    @pytest.mark.parametrize(
        "expr",
        [
            "__import__('os').system('true')",
            "x.real",
            "1 if x > 0 else 0",
            "x > 0",
            "[1, 2][0]",
            "unknown_symbol + 1",
            "cos(x, out=None)",
            "(lambda: 1)()",
        ],
    )
    def test_hostile_expressions_rejected(self, expr):
        with pytest.raises(ConfigError):
            compile_expression(expr, self.NAMES)

    def test_unknown_name_lists_available(self):
        with pytest.raises(ConfigError, match="available"):
            compile_expression("y + 1", self.NAMES)

    def test_syntax_error_reported(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            compile_expression("0.5*(", self.NAMES)


class TestInitialConditionAssembly:
    def test_cosine_perturbation_formula(self, tmp_path):
        scn = load_scenario(write_cfg(tmp_path, BASE))
        u, v = build_initial_condition(scn)
        eq = solve_equilibrium(scn.params, 1.0)
        x = scn.grid.coords()[0]
        want_u = eq.u_star * (1.0 + 0.1 * np.cos(math.pi * x / 1.0))
        np.testing.assert_allclose(u.values, want_u, rtol=1e-14)
        np.testing.assert_allclose(v.values, eq.v_star, rtol=1e-14)

    def test_2d_cosine_is_product_bump(self, tmp_path):
        text = BASE.replace("length = 1.0\nn = 64", "lx = 1.0\nly = 2.0\nnx = 8\nny = 10")
        scn = load_scenario(write_cfg(tmp_path, text))
        u, _ = build_initial_condition(scn)
        eq = solve_equilibrium(scn.params, 1.0)
        xs, ys = scn.grid.meshgrid()
        want = eq.u_star * (1.0 + 0.1 * np.cos(math.pi * xs) * np.cos(math.pi * ys / 2.0))
        np.testing.assert_allclose(u.values, want, rtol=1e-14)

    def test_random_perturbation_reproducible(self, tmp_path):
        rnd = BASE.replace(
            "amplitude = 0.1", "amplitude = 0.05\nmode = random\nseed = 20240817"
        )
        path = write_cfg(tmp_path, rnd)
        u1, v1 = build_initial_condition(load_scenario(path))
        u2, v2 = build_initial_condition(load_scenario(path))
        np.testing.assert_array_equal(u1.values, u2.values)
        np.testing.assert_array_equal(v1.values, v2.values)
        u3, _ = build_initial_condition(load_scenario(path, seed=7))
        assert not np.array_equal(u1.values, u3.values)

    def test_oversized_amplitude_rejected(self, tmp_path):
        bad = BASE.replace("amplitude = 0.1", "amplitude = 1.5")
        with pytest.raises(ConfigError, match="reduce it"):
            build_initial_condition(load_scenario(write_cfg(tmp_path, bad)))

    def test_expression_ic_with_equilibrium_symbols(self, tmp_path):
        text = BASE.replace(
            "kind = perturbation\nlam = 1.0\namplitude = 0.1",
            "kind = expression\nlam = 1.0\nu = u_star*(1 + 0.1*cos(pi*x/L))\nv = v_star",
        )
        scn = load_scenario(write_cfg(tmp_path, text))
        u, v = build_initial_condition(scn)
        eq = solve_equilibrium(scn.params, 1.0)
        np.testing.assert_allclose(
            u.values, eq.u_star * (1.0 + 0.1 * np.cos(math.pi * scn.grid.coords()[0])), rtol=1e-14
        )
        np.testing.assert_allclose(v.values, eq.v_star, rtol=1e-14)

    def test_negative_expression_named(self, tmp_path):
        text = BASE.replace(
            "kind = perturbation\nlam = 1.0\namplitude = 0.1",
            "kind = expression\nu = cos(pi*x/L)\nv = 1.0",
        )
        with pytest.raises(ConfigError, match=r"\[ic\] u is negative"):
            build_initial_condition(load_scenario(write_cfg(tmp_path, text)))

    def test_scalar_expression_broadcasts(self, tmp_path):
        text = BASE.replace(
            "kind = perturbation\nlam = 1.0\namplitude = 0.1",
            "kind = expression\nu = 0.25\nv = 0.75",
        )
        u, v = build_initial_condition(load_scenario(write_cfg(tmp_path, text)))
        assert u.values.shape == (64,)
        assert np.all(u.values == 0.25) and np.all(v.values == 0.75)

    def test_file_ic_roundtrip_and_mismatch(self, tmp_path):
        g = Grid.interval(1.0, 64)
        rng = np.random.default_rng(8)
        state = SimState(0.0, Field(g, rng.uniform(0.1, 1.0, 64)), Field(g, rng.uniform(0.1, 1.0, 64)))
        snap = tmp_path / "ic.txt"
        write_snapshot(snap, state, Model4Params(D=4.0, tau=1.0, b=1.0, gamma=1.0, k=1.0, k0=0.1, delta=1.0))
        text = BASE.replace(
            "kind = perturbation\nlam = 1.0\namplitude = 0.1",
            f"kind = file\npath = {snap}",
        )
        u, v = build_initial_condition(load_scenario(write_cfg(tmp_path, text)))
        np.testing.assert_array_equal(u.values, state.u.values)
        np.testing.assert_array_equal(v.values, state.v.values)
        mismatched = text.replace("n = 64", "n = 32")
        with pytest.raises(ConfigError, match="does not match configured grid"):
            build_initial_condition(load_scenario(write_cfg(tmp_path, mismatched, name="mm.cfg")))


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# One [model] section per kind, with every key the kind accepts.  The values
# differ from one another so that a key read into the wrong field shows.
MODEL_SECTIONS = {
    "model1": ("D = 0.4\ntau = 1.5\na = 1.25\nb = 0.75\nk = 1.1\n",
               Model1Params(D=0.4, tau=1.5, a=1.25, b=0.75, k=1.1)),
    "model2": ("D = 0.4\ntau = 2.0\nalpha1 = 1.25\nalpha2 = 0.75\n",
               Model2Params(D=0.4, tau=2.0, alpha1=1.25, alpha2=0.75)),
    "model4": ("D = 4.0\ntau = 1.5\nb = 1.25\ngamma = 0.75\nk = 1.1\nk0 = 0.1\ndelta = 0.9\nm = 2.0\n",
               Model4Params(D=4.0, tau=1.5, b=1.25, gamma=0.75, k=1.1, k0=0.1, delta=0.9, m=2.0)),
    "model4-general-m": (
        "D = 4.0\ntau = 1.5\nb = 1.25\ngamma = 0.75\nk = 1.1\nk0 = 0.1\ndelta = 0.9\nm = 3.0\n",
        Model4Params(D=4.0, tau=1.5, b=1.25, gamma=0.75, k=1.1, k0=0.1, delta=0.9, m=3.0),
    ),
}

# The keys each kind accepts, and the ones it requires, written out.
MODEL_KEYS = {
    "model1": {"kind", "d", "tau", "a", "b", "k"},
    "model2": {"kind", "d", "tau", "alpha1", "alpha2"},
    "model4": {"kind", "d", "tau", "b", "gamma", "k", "k0", "delta", "m"},
    "model4-general-m": {"kind", "d", "tau", "b", "gamma", "k", "k0", "delta", "m"},
}
REQUIRED_MODEL_KEYS = [
    (kind, key)
    for kind, keys in (
        ("model1", ("d", "tau", "a", "b", "k")),
        ("model2", ("d", "tau", "alpha1", "alpha2")),
        ("model4", ("d", "tau", "b", "gamma", "k", "k0", "delta")),
        ("model4-general-m", ("d", "tau", "b", "gamma", "k", "k0", "delta", "m")),
    )
    for key in keys
]

SECTION_KEYS = {
    "model": set().union(*MODEL_KEYS.values()),
    "grid": {"length", "n", "lx", "ly", "nx", "ny"},
    "solver": {"t_end", "dt", "scheme", "stride", "retry_limit"},
    "ic": {"kind", "lam", "amplitude", "mode", "seed", "u", "v", "path"},
    "diagnostics": {"c4", "sigma", "mu2"},
    "output": {"dir", "snapshot_every"},
}

EXPRESSION_REST = """
[grid]
length = 1.0
n = 16

[solver]
t_end = 0.5
dt = 0.001

[ic]
kind = expression
u = 0.5
v = 0.7
"""


def model_text(kind, body):
    return f"[model]\nkind = {kind}\n{body}{EXPRESSION_REST}"


# One [ic] section per kind, with every key the kind accepts.
IC_SECTIONS = {
    "expression": "kind = expression\nu = 0.5\nv = 0.7\nlam = 1.0\n",
    "file": f"kind = file\npath = {Path(__file__).resolve()}\n",
    "perturbation": "kind = perturbation\nlam = 1.0\namplitude = 0.1\nmode = random\nseed = 3\n",
}
IC_KEYS = {
    "expression": {"kind", "u", "v", "lam"},
    "file": {"kind", "path"},
    "perturbation": {"kind", "lam", "amplitude", "mode", "seed"},
}


def ic_text(body):
    return BASE[: BASE.index("[ic]")] + "[ic]\n" + body


class TestDerivedSchema:
    """The section schemas come from the dataclasses; these pin what they accept."""

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
    def test_shipped_config_loads_its_model_values(self, path):
        scn = load_scenario(path)
        cp = configparser.ConfigParser(interpolation=None)
        cp.read(path)
        model = dict(cp["model"])
        kind = model.pop("kind")
        assert scn.params.name == kind
        attrs = {"d": "D"}
        for key, val in model.items():
            assert getattr(scn.params, attrs.get(key, key)) == float(val), key
        solver = cp["solver"]
        assert scn.solver.t_end == float(solver["t_end"])
        assert scn.solver.dt == float(solver["dt"])
        assert scn.solver.scheme == solver.get("scheme", "imex-be")
        assert scn.solver.stride == int(solver.get("stride", "10"))

    @pytest.mark.parametrize("kind", sorted(MODEL_SECTIONS))
    def test_every_key_of_a_kind_reaches_its_field(self, tmp_path, kind):
        body, want = MODEL_SECTIONS[kind]
        scn = load_scenario(write_cfg(tmp_path, model_text(kind, body)))
        assert scn.params == want
        assert scn.params.name == kind

    @pytest.mark.parametrize("kind,key", REQUIRED_MODEL_KEYS, ids="-".join)
    def test_missing_required_model_key_is_named(self, tmp_path, kind, key):
        body = "".join(
            line + "\n" for line in MODEL_SECTIONS[kind][0].splitlines()
            if line.split(" = ")[0].lower() != key
        )
        with pytest.raises(ConfigError, match=rf"^\[model\] is missing required key '{key}'$"):
            load_scenario(write_cfg(tmp_path, model_text(kind, body)))

    @pytest.mark.parametrize("kind", sorted(MODEL_KEYS))
    def test_keys_of_other_kinds_rejected(self, tmp_path, kind):
        foreign = sorted(SECTION_KEYS["model"] - MODEL_KEYS[kind])
        assert foreign
        for key in foreign:
            text = model_text(kind, MODEL_SECTIONS[kind][0] + f"{key} = 1.0\n")
            with pytest.raises(ConfigError, match=f"key '{key}' in \\[model\\] does not belong"):
                load_scenario(write_cfg(tmp_path, text))

    @pytest.mark.parametrize("kind", sorted(IC_KEYS))
    def test_ic_keys_of_other_kinds_rejected(self, tmp_path, kind):
        load_scenario(write_cfg(tmp_path, ic_text(IC_SECTIONS[kind])))
        foreign = sorted(SECTION_KEYS["ic"] - IC_KEYS[kind])
        assert foreign
        for key in foreign:
            text = ic_text(IC_SECTIONS[kind] + f"{key} = 1.0\n")
            with pytest.raises(ConfigError, match=f"^key '{key}' in \\[ic\\] does not belong to kind {kind}$"):
                load_scenario(write_cfg(tmp_path, text))

    @pytest.mark.parametrize(
        "body", ["length = 1.0\nn = 64\n", "lx = 1.0\nly = 2.0\nnx = 8\nny = 12\n"], ids=["1d", "2d"]
    )
    def test_grid_keys_come_from_the_grid_constructors(self, tmp_path, body):
        def grid_text(grid_body):
            return BASE.replace("length = 1.0\nn = 64\n", grid_body)

        load_scenario(write_cfg(tmp_path, grid_text(body)))
        for line in body.splitlines():
            key = line.split(" = ")[0]
            with pytest.raises(ConfigError, match=rf"^\[grid\] is missing required key '{key}'$"):
                load_scenario(write_cfg(tmp_path, grid_text(body.replace(line + "\n", ""))))
            if key.startswith("n"):
                with pytest.raises(ConfigError, match=rf"^\[grid\] {key} = '2.5' is not an integer$"):
                    load_scenario(write_cfg(tmp_path, grid_text(body.replace(line, f"{key} = 2.5"))))
        mixed = grid_text(body + ("nx = 8\n" if "length" in body else "n = 64\n"))
        with pytest.raises(
            ConfigError, match=re.escape("[grid] mixes 1-D keys (length, n) with 2-D keys (lx, ly, nx, ny)")
        ):
            load_scenario(write_cfg(tmp_path, mixed))

    def test_diagnostics_and_output_defaults_come_from_their_classes(self, tmp_path):
        scn = load_scenario(write_cfg(tmp_path, BASE))
        diag, out = config._Diagnostics(), config._Output()
        assert (scn.c4, scn.sigma, scn.mu2_mode) == (diag.c4, diag.sigma, diag.mu2) == (1.0, None, "continuum")
        assert (scn.out_dir, scn.snapshot_every) == (Path(out.dir), out.snapshot_every) == (Path("out"), 0)

    def test_overrides_mask_the_file_values_and_pass_the_same_checks(self, tmp_path):
        bad = write_cfg(tmp_path, BASE + "\n[diagnostics]\nc4 = abc\nsigma = -1\nmu2 = exact\n")
        with pytest.raises(ConfigError, match=r"^\[diagnostics\] c4 = 'abc' is not a number$"):
            load_scenario(bad)
        scn = load_scenario(bad, c4=2.0, sigma=3.0, mu2="DISCRETE")
        assert (scn.c4, scn.sigma, scn.mu2_mode) == (2.0, 3.0, "discrete")
        with pytest.raises(ConfigError, match=r"^\[diagnostics\] c4 must be positive, got -2.0$"):
            load_scenario(bad, c4=-2.0, sigma=3.0, mu2="discrete")
        path = write_cfg(tmp_path, BASE + "\n[output]\ndir = a\nsnapshot_every = -1\n", name="out.cfg")
        with pytest.raises(ConfigError, match=r"^\[output\] snapshot_every must be >= 0, got -1$"):
            load_scenario(path, out=str(tmp_path))

    def test_section_key_sets(self, tmp_path):
        assert config._section_keys() == SECTION_KEYS
        for sec in ("solver", "ic"):
            bad = BASE.replace(f"[{sec}]\n", f"[{sec}]\nzeta = 1\n")
            with pytest.raises(ConfigError, match=re.escape(f"allowed: {sorted(SECTION_KEYS[sec])}")):
                load_scenario(write_cfg(tmp_path, bad))

    def test_solver_defaults_come_from_solver_config(self, tmp_path):
        text = BASE.replace("t_end = 1.0\ndt = 0.002\n", "t_end = 1.0\n")
        assert load_scenario(write_cfg(tmp_path, text)).solver == SolverConfig(t_end=1.0)

    def test_solver_keys_reach_their_fields(self, tmp_path):
        text = BASE.replace(
            "dt = 0.002\n", "dt = 0.002\nscheme = IMEX-CN\nstride = 7\nretry_limit = 3\n"
        )
        assert load_scenario(write_cfg(tmp_path, text)).solver == SolverConfig(
            t_end=1.0, dt=0.002, scheme="imex-cn", stride=7, retry_limit=3
        )
        with pytest.raises(ConfigError, match=r"\[solver\] stride = '2.5' is not an integer"):
            load_scenario(write_cfg(tmp_path, BASE.replace("dt = 0.002\n", "dt = 0.002\nstride = 2.5\n")))

    def test_perturbation_defaults_come_from_ic_spec(self, tmp_path):
        text = BASE.replace("amplitude = 0.1\n", "")
        assert load_scenario(write_cfg(tmp_path, text)).ic == PerturbationIC(lam=1.0)

    def test_seed_override_changes_only_the_seed(self, tmp_path):
        rnd = BASE.replace("amplitude = 0.1", "amplitude = 0.05\nmode = random\nseed = 1")
        path = write_cfg(tmp_path, rnd)
        base, seeded = load_scenario(path), load_scenario(path, seed=99)
        assert seeded.ic == PerturbationIC(lam=1.0, amplitude=0.05, mode="random", seed=99)
        assert replace(base, ic=seeded.ic, config_hash=seeded.config_hash) == seeded
        assert base.config_hash != seeded.config_hash
