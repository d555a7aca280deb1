"""The benchmark's tracer wraps library functions by name; a refactor that
drops or renames one should fail here, not in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "coxbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("coxbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _tracing()
    missing = []
    for module, attr, _name in tracing.SPANS + tracing.COUNTS:
        namespace = vars(importlib.import_module(f"coxtools.{module}"))
        cls_name, _, name = attr.rpartition(".")
        if cls_name:  # the tracer looks a method up in its class's own dict
            namespace = vars(namespace.get(cls_name, object))
        if not callable(namespace.get(name)):
            missing.append(f"{module}.{attr}")
    assert missing == []

