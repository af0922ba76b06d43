"""Every name a module exports resolves, and is declared once.

``from polarsim import *`` and the re-exports in ``polarsim/__init__.py``
read ``__all__``; a name left there after its definition is removed fails
only when someone imports it.  Each public name is listed in the ``__all__``
of the module that defines it, and the package's ``__all__`` is built from
those lists.
"""

import importlib
import inspect
from pathlib import Path

import pytest

import polarsim

MODULES = sorted(
    f"polarsim.{path.stem}"
    for path in Path(polarsim.__file__).resolve().parent.glob("*.py")
    if path.stem != "__init__"
)
# the modules whose ``__all__`` the package re-exports, in order; cli and tables stay out
PACKAGE_MODULES = (
    "errors", "grid", "kinetics", "equilibrium", "linearization", "solver", "diagnostics", "config"
)


@pytest.mark.parametrize("module", ["polarsim", *MODULES])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"
    assert len(set(names)) == len(names), f"{module}.__all__ repeats a name"


@pytest.mark.parametrize("module", MODULES)
def test_every_export_is_defined_in_its_module(module):
    # one list per name: a class or function is exported by the module that defines it
    mod = importlib.import_module(module)
    strays = [
        name
        for name in getattr(mod, "__all__", [])
        if (inspect.isclass(obj := getattr(mod, name)) or inspect.isfunction(obj))
        and obj.__module__ != module
    ]
    assert not strays, f"{module}.__all__ names {strays}, defined elsewhere"


def test_package_reexports_its_modules_lists():
    lists = [importlib.import_module(f"polarsim.{name}").__all__ for name in PACKAGE_MODULES]
    assert polarsim.__all__ == ["__version__", *(name for names in lists for name in names)]
    assert len(set(polarsim.__all__)) == len(polarsim.__all__)
    assert "main" not in polarsim.__all__  # cli stays out of the package namespace
