"""Names that code outside the package resolves by string.

The benchmark's tracer (`perfbench/tracing.py`) wraps the layer entry
points it lists by module and attribute name, and the harness tests read
a few more attributes directly.  A rename or deletion of any of them
breaks only the traced benchmark run, so they are checked here against
the tracer's own tables, read from its file without changing it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import hochschild

_spec = importlib.util.spec_from_file_location(
    "_perfbench_tracing",
    Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("span, module, name", tracing.FUNCTIONS)
def test_traced_function_resolves(span, module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("span, module, cls, name", tracing.METHODS)
def test_traced_method_resolves(span, module, cls, name):
    owner = getattr(importlib.import_module(module), cls)
    assert callable(getattr(owner, name))


@pytest.mark.parametrize("module, owner, name", [
    ("hochschild.engine", None, "buchberger"),
    ("hochschild.poly", "Polynomial", "is_weighted_homogeneous"),
])
def test_harness_attribute_resolves(module, owner, name):
    target = importlib.import_module(module)
    if owner is not None:
        target = getattr(target, owner)
    assert callable(getattr(target, name))


@pytest.mark.parametrize("name", hochschild.__all__)
def test_public_name_imports(name):
    # what `from hochschild import <name>` looks up
    assert hasattr(hochschild, name)
