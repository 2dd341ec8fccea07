#!/usr/bin/env python3
"""vecmap benchmark: one workload, one seed, a closed loop of ops for a fixed time.

Run from the repository root:

    python3 perfbench/run.py --workload match_dense --seed 3 --seconds 35 --trace 0

It imports vecmap from ``src/`` of the same checkout, single-process, with
BLAS/OpenMP pools pinned to one thread.  Ops run one after another, each
starting when the previous one ends, until their summed time reaches
``--seconds``.  Every op's output is checked outside the timed region; a
failure counts toward ``failed``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` half the time runs untraced and half
traced, over whole passes of the workload's inputs, and the last line carries
the per-layer metrics (see ``tracer.py``); the spans are written to
``.perfbench_out/``.  ``--quick`` shrinks every input for the benchmark's own
self-test.  Earlier stdout lines hold the environment and a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: Set-ups per run, and fresh interpreters timed importing vecmap; ``setup_s``
#: adds the two medians.
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import vecmap; print(time.perf_counter() - t)")
#: The end-to-end metrics of a ``--trace 0`` run, as declared in BENCHMARK.json.
#: ``op_s.p50`` is only in the summary line: while the machine's speed swings
#: during a run, the median flips between the fast and slow modes, so its
#: run-to-run spread exceeded the largest bound allowed where the mean did not.
E2E_UNITS = {"items_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    import hashlib
    import platform

    import numpy
    import scipy
    import vecmap

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "vecmap").rglob("*.py")):
        src.update(path.read_bytes())
    return {
        "kernel_backend": vecmap.KERNEL_BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_pools": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


def import_seconds(src: Path) -> float:
    """Seconds a fresh interpreter takes to import vecmap from ``src``."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(src)], cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def measure(wl, seconds: float, tracer=None, failures: list | None = None) -> dict:
    """Closed loop of ops until their summed time reaches ``seconds``.

    With a tracer, only whole passes over the workload's inputs are run, so
    per-op counts do not depend on where the time ran out.
    """
    times, items, failed, i = [], 0, 0, 0
    while sum(times) < seconds or (tracer is not None and i % wl.n_inputs):
        k = i % wl.n_inputs
        if tracer is not None:
            tracer.op = i
            tracer.install()
        start = time.perf_counter()
        try:
            result = wl.run(k)
            error = None
        except Exception as exc:  # an op that raises is a failed op
            error = f"raised {exc!r}"
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.uninstall()
        if error is None:
            try:
                error = wl.check(k, result)
                items += wl.items(result)
            except Exception as exc:  # a check that cannot run fails the op
                error = f"check raised {exc!r}"
        if error is not None:
            failed += 1
            if failures is not None and len(failures) < 5:
                failures.append(error)
        i += 1
    return {"times": times, "items": items, "failed": failed}


def _p(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "vecmap" / "__init__.py").is_file():
        print(f"error: no vecmap sources under {src}", file=sys.stderr)
        return 2
    if not args.trace:
        import_s = statistics.median([import_seconds(src) for _ in range(IMPORT_REPEATS)])
    sys.path.insert(0, str(src))
    import vecmap

    if Path(vecmap.__file__).resolve().parent != (src / "vecmap").resolve():
        print(f"error: imported vecmap from {vecmap.__file__}, not {src}", file=sys.stderr)
        return 2

    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    failures: list[str] = []
    try:
        wl = WORKLOADS[args.workload](args.seed, args.quick, workdir)
        setup_times = []
        for r in range(SETUP_REPEATS):
            # In a traced run the last set-up is traced, for scenegen.s.
            setup_tracer = tracing.Tracer() if args.trace and r == SETUP_REPEATS - 1 else None
            start = time.perf_counter()
            if setup_tracer is not None:
                with setup_tracer:
                    wl.setup()
            else:
                wl.setup()
            setup_times.append(time.perf_counter() - start)

        if args.trace:
            plain = measure(wl, args.seconds / 2, failures=failures)
            op_tracer = tracing.Tracer()
            traced = measure(wl, args.seconds / 2, op_tracer, failures)
            runs = [plain, traced]
            metrics = tracing.layer_metrics(op_tracer, len(traced["times"]))
            metrics["scenegen.s"] = tracing.scenegen_seconds(setup_tracer)
            metrics["trace.op_s.p50"] = statistics.median(traced["times"])
            metrics["trace.untraced_op_s.p50"] = statistics.median(plain["times"])
            metrics["trace.overhead_s"] = (
                metrics["trace.op_s.p50"] - metrics["trace.untraced_op_s.p50"]
            )
            units = tracing.PER_LAYER_UNITS
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
            op_tracer.write_spans(spans_path)
            bypass = {name: metrics[name] for name in wl.bypassed}
            summary = {"traced_ops": (len(traced["times"]), "ops"),
                       "trace.overhead_s": (metrics["trace.overhead_s"], "s"),
                       **{f"bypass:{k}": (v, units[k]) for k, v in bypass.items()},
                       "spans": (str(spans_path.relative_to(ROOT)), "file")}
            if any(bypass.values()):
                print(f"warning: predicted bypass broken: {bypass}", file=sys.stderr)
        else:
            run = measure(wl, args.seconds, failures=failures)
            runs = [run]
            times = run["times"]
            metrics = {
                "items_per_s": run["items"] / sum(times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": import_s + statistics.median(setup_times),
            }
            units = E2E_UNITS
            summary = {
                "ops": (len(times), "ops"),
                "setup_s": (metrics["setup_s"], "s"),
                "op_s.p50": (statistics.median(times), "s"),
                "op_s.p90": (_p(times, 90), "s"),
                f"{wl.item}_per_s": (metrics["items_per_s"], "1/s"),
                "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
                "failed_ratio": (run["failed"] / len(times), "ratio"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r["times"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    for reason in failures:
        print(f"failed op: {reason}", file=sys.stderr)
    env = environment()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "quick": args.quick, "env": env, "summary": summary,
              "result": result}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print("env " + json.dumps(env))
    print(f"{args.workload} seed {args.seed}: " + "  ".join(
        f"{k}={v:.6g} {unit}" if isinstance(v, float) else f"{k}={v} {unit}"
        for k, (v, unit) in summary.items()
    ))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
