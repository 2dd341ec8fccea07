#!/usr/bin/env python3
"""Self-test of the benchmark, in quick mode (tiny inputs), in under a minute.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it checks that an untraced and a traced run succeed with
every op's output check on, that the last line names exactly the metrics of
``BENCHMARK.json`` with their units, that two traced runs on one seed give
identical per-layer counts, and that the bypassed layers count 0.  It also
checks that the benchmark fails, printing no result, when the sources are
missing.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SelfTestError(Exception):
    pass


def expect(cond: bool, message: str):
    if not cond:
        raise SelfTestError(message)


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def result_of(workload: str, seed: int, trace: int) -> dict:
    code, out = run(workload, seed, trace)
    expect(code == 0, f"{workload} trace {trace}: exit {code}")
    result = json.loads(out.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace {trace}: {result['failed']} of {result['attempted']} ops failed")
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: bench["end_to_end"], 1: bench["per_layer"]}
    try:
        for name, wl in WORKLOADS.items():
            for trace in (0, 1):
                metrics = result_of(name, 3, trace)["metrics"]
                want = {m["name"]: m["unit"] for m in declared[trace]}
                got = {k: v["unit"] for k, v in metrics.items()}
                expect(got == want, f"{name} trace {trace}: metrics {got} != declared {want}")
                if trace:
                    again = result_of(name, 3, 1)["metrics"]
                    for k in COUNT_METRICS:
                        expect(metrics[k]["value"] == again[k]["value"],
                               f"{name}: {k} differs between traced runs")
                    for k in wl.bypassed:
                        expect(metrics[k]["value"] == 0, f"{name}: bypassed {k} is not 0")
            print(f"ok {name}", flush=True)

        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, out = run("match_dense", 3, 0, cwd=bare)
            expect(code != 0 and '"metrics"' not in out,
                   f"without sources: exit {code}, stdout {out!r}")
        print("ok no sources")
    except SelfTestError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
