"""Package surface: each name is imported from the submodule that defines it,
and each exported name has a user outside its own module and the unit tests."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path
from types import ModuleType

import pytest

import tmsim

SUBMODULES = ["analog_blocks", "braille", "cli", "config", "cost_model", "crossbar", "devices", "pipeline"]

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "tmsim"
PERFBENCH = ROOT / "perfbench"

# Types and exceptions that public functions return, raise or hold: a caller
# meets them without naming them, so they stay public without a user.
RESULT_TYPES = {
    "BrailleSymbol", "UnknownSymbolError", "TrainParams", "Parasitics", "BlockCounts",
    "CostReport", "CompareSummary", "ReadoutVector", "SingularNetworkError", "WeightRangeError",
    "NodalDetail", "TrainedNetwork", "HardwareNetwork", "EvalEntry", "EvalReport", "SweepRow",
}


def _readme_python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def _uses(tree: ast.AST) -> set[tuple[str, str]]:
    """(submodule, name) pairs a source reaches: ``from tmsim.<m> import name``
    (or ``from .<m>``), ``<m>.name`` attribute reads (``self.<m>.name`` too)
    and ``("tmsim.<m>", "name")`` string pairs, as in perfbench's targets."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.removeprefix("tmsim.")
            found |= {(module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Attribute):
            owner = node.value
            owner_name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            found.add((owner_name, node.attr))
        elif isinstance(node, ast.Tuple) and len(node.elts) == 2:
            module, name = (getattr(e, "value", None) for e in node.elts)
            if isinstance(module, str) and module.startswith("tmsim.") and isinstance(name, str):
                found.add((module.removeprefix("tmsim."), name))
    return found


def _users_outside(module: str) -> set[tuple[str, str]]:
    """Uses from every other tmsim module, the acceptance gate, perfbench and the README examples."""
    paths = [p for p in PACKAGE.glob("*.py") if p.stem != module]
    paths += [ROOT / "tests" / "test_acceptance.py", *PERFBENCH.glob("*.py")]
    sources = [p.read_text() for p in paths] + _readme_python_blocks()
    return set().union(*(_uses(ast.parse(text)) for text in sources))


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"tmsim.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_exported_name_has_a_user(name):
    module = importlib.import_module(f"tmsim.{name}")
    used = _users_outside(name)
    unused = [n for n in module.__all__ if (name, n) not in used and n not in RESULT_TYPES]
    assert unused == [], f"tmsim.{name} exports names that only its unit tests reach; make them private"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for span, _, _ in layers.TARGETS:
        module, func = span.split(".")
        if not callable(getattr(importlib.import_module(f"tmsim.{module}"), func, None)):
            missing.append(span)
    assert missing == [], "perfbench would trace these layers as 0 without an error"


def test_package_reexports_nothing():
    assert isinstance(tmsim.__version__, str)
    public = [n for n, v in vars(tmsim).items() if not n.startswith("__") and not isinstance(v, ModuleType)]
    assert public == []
