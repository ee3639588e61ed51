"""The names perfbench/ takes from slhyde still exist.

The benchmark's tracer (`--trace 1`) imports slhyde functions and classes
inside functions it only calls when tracing, so a rename in slhyde breaks it
without failing an import at start-up. These tests read perfbench's sources
with `ast` and never run or change them."""
import ast
import importlib
from pathlib import Path

import pytest

from slhyde.bm25 import Bm25Index

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _slhyde_imports():
    """(file, module, name) for every `from slhyde... import name` and
    (file, module, None) for every `import slhyde...` in perfbench/*.py."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "slhyde":
                found.extend((path.name, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names if alias.name.split(".")[0] == "slhyde"]
                found.extend((path.name, module, None) for module in names)
    return found


def test_perfbench_imports_some_slhyde_names():
    modules = {module for _, module, _ in _slhyde_imports()}
    assert {"slhyde.cli", "slhyde.bm25", "slhyde.embed", "slhyde.textgen"} <= modules


@pytest.mark.parametrize("source, module, name", _slhyde_imports())
def test_every_perfbench_import_resolves(source, module, name):
    imported = importlib.import_module(module)
    if name is not None:
        assert hasattr(imported, name), f"perfbench/{source} imports {name} from {module}, which lacks it"


def test_bm25_build_is_the_classmethod_the_tracer_rewraps():
    # perfbench/tracing.py wraps Bm25Index.__dict__["build"].__func__
    assert isinstance(Bm25Index.__dict__["build"], classmethod)
