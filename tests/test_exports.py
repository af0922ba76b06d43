"""Every name a module exports resolves.

``from polarsim import *`` and the re-exports in ``polarsim/__init__.py``
read ``__all__``; a name left there after its definition is removed fails
only when someone imports it.
"""

import importlib
from pathlib import Path

import pytest

import polarsim

MODULES = sorted(
    f"polarsim.{path.stem}"
    for path in Path(polarsim.__file__).resolve().parent.glob("*.py")
    if path.stem != "__init__"
)


@pytest.mark.parametrize("module", ["polarsim", *MODULES])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"
    assert len(set(names)) == len(names), f"{module}.__all__ repeats a name"
