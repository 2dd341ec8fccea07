"""The benchmark's bindings into the package, and its exact outputs.

``perfbench/tracer.py`` wraps public functions under the module attributes
their callers use.  A rename in the package that drops one of them breaks
``perfbench/run.py --trace 1``; the first test makes it fail here first.
``perfbench/workloads.py`` checks every op's output against the recorded
``perfbench/reference.json``; the output tests run that check on the
``fit_order_free``, ``match_dense`` and ``eval_ap`` inputs, so a change to
the output bits of fitting, matching or ``vecmap eval`` fails here.  One
more test flags a ``# noqa: F401`` import that neither its module nor the
tracer uses.  Both perfbench modules are loaded from their files, read-only.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(monkeypatch, name):
    # Loaded from its file without writing a bytecode cache next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(monkeypatch):
    tracer = _load(monkeypatch, "tracer")
    assert tracer.TARGETS
    for name, _, module_path, attr_path in tracer.TARGETS:
        owner, attr = tracer._resolve(module_path, attr_path)
        assert callable(getattr(owner, attr, None)), f"{name}: {module_path}.{attr_path}"


def test_no_stale_reexport(monkeypatch):
    # An import marked ``# noqa: F401`` binds names its module may not use:
    # each must be used there after all, or be a name the tracer wraps in
    # that module.  Any other is a leftover re-export.
    tracer = _load(monkeypatch, "tracer")
    wrapped = {(module, attr.split(".")[0]) for _, _, module, attr in tracer.TARGETS}
    for path in sorted((ROOT / "src" / "vecmap").rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        for node in imports:
            if "# noqa: F401" in lines[node.lineno - 1]:
                for alias in node.names:
                    name = alias.asname or alias.name
                    assert name in used or (module, name) in wrapped, f"{module}: {name}"


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_fit_order_free_outputs_equal_reference(monkeypatch, tmp_path, quick):
    # The final mAP and loss bits of one order-free fit of a corpus scene
    # (a 10-iteration, 6-slot fit of a 3-element scene when quick).
    workloads = _load(monkeypatch, "workloads")
    workload = workloads.FitOrderFree(seed=0, quick=quick, workdir=tmp_path)
    workload.setup()
    for i in range(workload.n_inputs):
        assert workload.check(i, workload.run(i)) is None


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_match_dense_outputs_equal_reference(monkeypatch, tmp_path, quick):
    # Every pair, ordering and cost bit of 50 dense 40-point scenes (3
    # small ones when quick), hashed as the benchmark records them.
    workloads = _load(monkeypatch, "workloads")
    workload = workloads.MatchDense(seed=0, quick=quick, workdir=tmp_path)
    workload.setup()
    for i in range(workload.n_inputs):
        assert workload.check(i, workload.run(i)) is None


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_eval_ap_outputs_equal_reference(monkeypatch, tmp_path, quick):
    # Every AP cell and the mAP of a ``vecmap eval`` run over 100 scene
    # files (3 small ones when quick), read and written as the benchmark does.
    workloads = _load(monkeypatch, "workloads")
    workload = workloads.EvalAP(seed=0, quick=quick, workdir=tmp_path)
    workload.setup()
    for i in range(workload.n_inputs):
        assert workload.check(i, workload.run(i)) is None
