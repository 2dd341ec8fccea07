"""The traced benchmark's bindings into the package.

``perfbench/tracer.py`` wraps public functions under the module attributes
their callers use.  A rename in the package that drops one of them breaks
``perfbench/run.py --trace 1``; this test makes it fail here first.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    # Loaded from its file without writing a bytecode cache next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    assert tracer.TARGETS
    for name, _, module_path, attr_path in tracer.TARGETS:
        owner, attr = tracer._resolve(module_path, attr_path)
        assert callable(getattr(owner, attr, None)), f"{name}: {module_path}.{attr_path}"
