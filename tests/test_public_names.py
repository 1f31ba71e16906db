"""Every exported name, and every name the benchmark's tracer patches, resolves."""

import ast
import importlib
from functools import reduce
from pathlib import Path

import losskit

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_layers():
    """``LAYERS`` of ``perfbench/tracing.py``, read from its source without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {TRACING}")


def resolves(module, attribute):
    try:
        reduce(getattr, attribute.split("."), importlib.import_module(module))
    except (ImportError, AttributeError):
        return False
    return True


def test_every_exported_name_resolves():
    assert len(set(losskit.__all__)) == len(losskit.__all__)
    assert [name for name in losskit.__all__ if not resolves("losskit", name)] == []


def test_every_traced_layer_resolves():
    # Tracer.install looks each (module, attribute) up by name, so a renamed or
    # removed function fails the benchmark before it measures anything
    layers = traced_layers()
    assert layers
    assert [layer for layer in layers if not resolves(*layer[1:])] == []
