"""The benchmark's instrumentation wraps bernlab functions by name; every
name it lists must exist, or the benchmark fails before its first run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{name}"
        for module, names in tracing.TRACED.items()
        for name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"perfbench/tracing.py TRACED names missing from bernlab: {missing}"
