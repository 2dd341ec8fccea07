"""Out-of-program tracing of vecmap's layers.

The tracer replaces public functions under the names their callers bind
(``vecmap.fitter.hierarchical_match``, ``vecmap.matching.linear_sum_assignment``
and so on) with wrappers, and restores the originals on uninstall.  Each
wrapped call records a span -- name, start, end, parent span and the op it
belongs to -- in flat in-memory arrays, plus work counts computed from its
arguments.  Nothing in ``src/`` knows about it.

Self time follows the usual definition: a span's duration minus the
durations of its direct child spans.  Because geometry helpers are traced
too, a layer's self time excludes the time spent validating points.
"""

from __future__ import annotations

import importlib
import os
from array import array
from time import perf_counter

import numpy as np

#: (span name, layer, module path, attribute path).  One entry per binding a
#: caller uses; a span name may have several bindings.
TARGETS = (
    ("fitter.fit", "fitter", "vecmap.fitter", "fit"),
    ("matching.hierarchical_match", "matching", "vecmap.fitter", "hierarchical_match"),
    ("matching.hierarchical_match", "matching", "vecmap.cli", "hierarchical_match"),
    ("matching.hierarchical_match", "matching", "vecmap.matching", "hierarchical_match"),
    ("matching.instance_match", "matching", "vecmap.matching", "instance_match"),
    ("matching.point_level_match", "matching", "vecmap.matching", "point_level_match"),
    ("matching.lsa", "lsa", "vecmap.matching", "linear_sum_assignment"),
    ("kernels.manhattan", "kernels", "vecmap._kernels", "min_manhattan_over_perms"),
    ("kernels.chamfer", "kernels", "vecmap._kernels", "chamfer_mean"),
    ("losses.total_loss", "losses", "vecmap.fitter", "total_loss"),
    ("losses.loss_gradients", "losses", "vecmap.fitter", "loss_gradients"),
    ("metrics.evaluate_ap", "metrics", "vecmap.fitter", "evaluate_ap"),
    ("metrics.evaluate_ap", "metrics", "vecmap.cli", "evaluate_ap"),
    ("metrics.chamfer_distance", "metrics", "vecmap.metrics", "chamfer_distance"),
    ("geometry.as_points", "geometry", "vecmap.geometry", "as_points"),
    ("geometry.as_points", "geometry", "vecmap.matching", "as_points"),
    ("geometry.as_points", "geometry", "vecmap.metrics", "as_points"),
    ("geometry.as_points", "geometry", "vecmap.scenegen", "as_points"),
    ("geometry.index_maps", "geometry", "vecmap.geometry", "PermutationGroup.index_maps"),
    ("geometry.apply_permutation", "geometry", "vecmap.geometry", "apply_permutation"),
    ("geometry.apply_permutation", "geometry", "vecmap.fitter", "apply_permutation"),
    ("geometry.apply_permutation", "geometry", "vecmap.losses", "apply_permutation"),
    ("sceneio.read", "sceneio", "vecmap.cli", "read_scene"),
    ("sceneio.read", "sceneio", "vecmap.cli", "read_predictions"),
    ("cli.main", "cli", "vecmap.cli", "main"),
    ("scenegen.generate_scene", "scenegen", "vecmap.scenegen", "generate_scene"),
    ("scenegen.perturb", "scenegen", "vecmap.scenegen", "perturb"),
)

SPAN_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))
LAYER_OF = {t[0]: t[1] for t in TARGETS}

#: Per-layer metrics of the traced run, with units.  Values are per op,
#: except ``scenegen.s``, which is per set-up.
PER_LAYER_UNITS = {
    "fitter.fit.s": "s",
    "fitter.fit.self_s": "s",
    "fitter.iterations": "count",
    "matching.hierarchical_match.s": "s",
    "matching.hierarchical_match.calls": "count",
    "matching.instance_match.s": "s",
    "matching.self_s": "s",
    "matching.lsa.s": "s",
    "matching.lsa.cells": "count",
    "matching.point_level_match.calls": "count",
    "matching.point_level_match.s": "s",
    "kernels.manhattan.calls": "count",
    "kernels.manhattan.s": "s",
    "kernels.manhattan.terms": "count",
    "kernels.manhattan.bytes": "bytes-computed",
    "kernels.chamfer.calls": "count",
    "kernels.chamfer.s": "s",
    "kernels.chamfer.pairs": "count",
    "losses.total_loss.s": "s",
    "losses.loss_gradients.s": "s",
    "losses.calls": "count",
    "metrics.evaluate_ap.s": "s",
    "metrics.self_s": "s",
    "metrics.chamfer_distance.calls": "count",
    "metrics.chamfer_useful_ratio": "ratio",
    "geometry.as_points.calls": "count",
    "geometry.index_maps.calls": "count",
    "geometry.apply_permutation.calls": "count",
    "sceneio.read.s": "s",
    "sceneio.files": "count",
    "sceneio.bytes": "bytes",
    "cli.self_s": "s",
    "scenegen.s": "s",
    "trace.op_s.p50": "s",
    "trace.untraced_op_s.p50": "s",
    "trace.overhead_s": "s",
}

#: Metrics that are exact counts: two traced runs on one seed repeat them.
COUNT_METRICS = tuple(
    k for k, unit in PER_LAYER_UNITS.items() if unit != "s"
)


def _resolve(module_path: str, attr_path: str):
    owner = importlib.import_module(module_path)
    *parents, attr = attr_path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    """Span and count recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.names = array("h")
        self.parents = array("l")
        self.ops = array("l")
        self.op = 0
        self.counts = dict.fromkeys(
            (
                "fitter.iterations",
                "matching.lsa.cells",
                "kernels.manhattan.terms",
                "kernels.manhattan.bytes",
                "kernels.chamfer.pairs",
                "metrics.chamfer_distinct_pairs",
                "sceneio.bytes",
            ),
            0,
        )
        self._pairs: set = set()
        self._stack: list[int] = []
        self._saved: list = []

    # -- work counts, computed from arguments and results -------------------

    def _count_fit(self, args, result):
        self.counts["fitter.iterations"] += len(result.losses)

    def _count_lsa(self, args, result):
        rows, cols = np.shape(args[0])
        self.counts["matching.lsa.cells"] += rows * cols

    def _count_manhattan(self, args, result):
        pred, gt, perms = args
        n_pred, n_pts = np.shape(pred)[:2]
        self.counts["kernels.manhattan.terms"] += n_pred * len(perms) * n_pts
        # Computed, not measured: bytes of the input and output arrays.
        self.counts["kernels.manhattan.bytes"] += (
            pred.nbytes + gt.nbytes + perms.nbytes + result[0].nbytes + result[1].nbytes
        )

    def _count_chamfer(self, args, result):
        self.counts["kernels.chamfer.pairs"] += len(args[0]) * len(args[1])

    def _count_chamfer_distance(self, args, result):
        self._pairs.add((id(args[0]), id(args[1])))

    def _count_evaluate_ap(self, args, result):
        # Array identities are stable only while one evaluation runs.
        self.counts["metrics.chamfer_distinct_pairs"] += len(self._pairs)
        self._pairs.clear()

    def _count_read(self, args, result):
        self.counts["sceneio.bytes"] += os.path.getsize(args[0])

    def _wrap(self, name: str, fn):
        name_id = SPAN_NAMES.index(name)
        count = {
            "fitter.fit": self._count_fit,
            "matching.lsa": self._count_lsa,
            "kernels.manhattan": self._count_manhattan,
            "kernels.chamfer": self._count_chamfer,
            "metrics.chamfer_distance": self._count_chamfer_distance,
            "metrics.evaluate_ap": self._count_evaluate_ap,
            "sceneio.read": self._count_read,
        }.get(name)
        starts, ends, names, parents, ops = (
            self.starts, self.ends, self.names, self.parents, self.ops
        )
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            stack.append(idx)
            ends.append(0.0)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, _, module_path, attr_path in TARGETS:
            owner, attr = _resolve(module_path, attr_path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- aggregation --------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        names = np.asarray(self.names, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_dur = dur - child
        k = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_dur, minlength=k)
        return {
            n: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, n in enumerate(SPAN_NAMES)
        }

    def write_spans(self, path):
        """Write every span as flat arrays (npz); names index ``span_names``."""
        np.savez_compressed(
            path,
            span_names=np.array(SPAN_NAMES),
            name=np.asarray(self.names, dtype=np.int16),
            start=np.asarray(self.starts),
            end=np.asarray(self.ends),
            parent=np.asarray(self.parents, dtype=np.int64),
            op=np.asarray(self.ops, dtype=np.int64),
        )


def layer_metrics(tr: Tracer, n_ops: int) -> dict[str, float]:
    """Per-op per-layer metrics of the ops traced by ``tr``."""
    t = tr.totals()
    c = tr.counts

    def layer_self(layer):
        return sum(v["self_s"] for n, v in t.items() if LAYER_OF[n] == layer)

    chamfer_calls = t["metrics.chamfer_distance"]["calls"]
    raw = {
        "fitter.fit.s": t["fitter.fit"]["s"],
        "fitter.fit.self_s": t["fitter.fit"]["self_s"],
        "fitter.iterations": c["fitter.iterations"],
        "matching.hierarchical_match.s": t["matching.hierarchical_match"]["s"],
        "matching.hierarchical_match.calls": t["matching.hierarchical_match"]["calls"],
        "matching.instance_match.s": t["matching.instance_match"]["s"],
        "matching.self_s": layer_self("matching"),
        "matching.lsa.s": t["matching.lsa"]["s"],
        "matching.lsa.cells": c["matching.lsa.cells"],
        "matching.point_level_match.calls": t["matching.point_level_match"]["calls"],
        "matching.point_level_match.s": t["matching.point_level_match"]["s"],
        "kernels.manhattan.calls": t["kernels.manhattan"]["calls"],
        "kernels.manhattan.s": t["kernels.manhattan"]["s"],
        "kernels.manhattan.terms": c["kernels.manhattan.terms"],
        "kernels.manhattan.bytes": c["kernels.manhattan.bytes"],
        "kernels.chamfer.calls": t["kernels.chamfer"]["calls"],
        "kernels.chamfer.s": t["kernels.chamfer"]["s"],
        "kernels.chamfer.pairs": c["kernels.chamfer.pairs"],
        "losses.total_loss.s": t["losses.total_loss"]["s"],
        "losses.loss_gradients.s": t["losses.loss_gradients"]["s"],
        "losses.calls": t["losses.total_loss"]["calls"] + t["losses.loss_gradients"]["calls"],
        "metrics.evaluate_ap.s": t["metrics.evaluate_ap"]["s"],
        "metrics.self_s": layer_self("metrics"),
        "metrics.chamfer_distance.calls": chamfer_calls,
        "geometry.as_points.calls": t["geometry.as_points"]["calls"],
        "geometry.index_maps.calls": t["geometry.index_maps"]["calls"],
        "geometry.apply_permutation.calls": t["geometry.apply_permutation"]["calls"],
        "sceneio.read.s": t["sceneio.read"]["s"],
        "sceneio.files": t["sceneio.read"]["calls"],
        "sceneio.bytes": c["sceneio.bytes"],
        "cli.self_s": layer_self("cli"),
    }
    out = {k: v / n_ops for k, v in raw.items()}
    # Distinct (prediction, ground truth) pairs per Chamfer call; 0 without calls.
    out["metrics.chamfer_useful_ratio"] = (
        c["metrics.chamfer_distinct_pairs"] / chamfer_calls if chamfer_calls else 0.0
    )
    return {k: out[k] for k in PER_LAYER_UNITS if k in out}


def scenegen_seconds(tr: Tracer) -> float:
    t = tr.totals()
    return t["scenegen.generate_scene"]["s"] + t["scenegen.perturb"]["s"]
