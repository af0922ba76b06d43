"""The modules of polarsim lean on one another through public names only.

A private name (one with a leading underscore) may change with its module;
a second module that imports it is tied to it unseen.  The grid is the
bottom layer: it imports from ``errors`` alone, so the kinetics, the solver
and the diagnostics built on it never reach back into it.
"""

import ast
from pathlib import Path

import polarsim

SRC = Path(polarsim.__file__).resolve().parent


def package_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each name a source file imports from the package.

    ``from . import tables`` gives ("tables", ""); imports of other
    packages are left out.
    """
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "polarsim":
                    continue
                module = module.removeprefix("polarsim").lstrip(".")
            for alias in node.names:
                out.append((module, alias.name) if module else (alias.name, ""))
        elif isinstance(node, ast.Import):
            out += [
                (alias.name.removeprefix("polarsim."), "")
                for alias in node.names
                if alias.name.startswith("polarsim.")
            ]
    return out


def test_no_module_imports_a_private_name_of_another():
    offenders = [
        f"{path.name}: {module}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for module, name in package_imports(path)
        if name.startswith("_") or module.startswith("_")
    ]
    assert offenders == []


def test_grid_imports_from_errors_only():
    modules = {module for module, _ in package_imports(SRC / "grid.py")}
    assert modules == {"errors"}, f"grid.py imports {sorted(modules - {'errors'})}"
