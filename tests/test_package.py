"""Package surface: each name is imported from the submodule that defines it."""

import importlib
from types import ModuleType

import pytest

import tmsim

SUBMODULES = ["analog_blocks", "braille", "cli", "config", "cost_model", "crossbar", "devices", "pipeline"]


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"tmsim.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_nothing():
    assert isinstance(tmsim.__version__, str)
    public = [n for n, v in vars(tmsim).items() if not n.startswith("__") and not isinstance(v, ModuleType)]
    assert public == []
