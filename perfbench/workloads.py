"""The benchmark's workloads: seeded inputs, the timed op, and its output check.

Every workload derives its inputs from a corpus seed (the run's ``--seed``
modulo ``CORPUS_SIZE``), so each input set has an output reference in
``reference.json``, recorded by ``record_reference.py``.  Ops call vecmap
through module attributes (``vecmap.fitter.fit``, ``vecmap.cli.main``, ...)
at call time, so the tracer's wrappers see them.

Why these workloads:

- ``fit_order_free``: the paper's training loop.  Matching, losses and the
  fitter's own overhead all show here.
- ``eval_ap``: Chamfer-AP evaluation through ``vecmap eval``.  No Manhattan
  kernel, matching or loss runs, so it is the bypass for any change to them.
- ``match_dense``: hierarchical matching on dense scenes whose polygons have
  80 orderings each; the Manhattan kernel dominates, losses, fitter and
  metrics are bypassed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import vecmap.cli
import vecmap.fitter
import vecmap.matching
import vecmap.metrics
import vecmap.scenegen
import vecmap.sceneio
from vecmap.fitter import FitConfig
from vecmap.scenegen import PerturbSpec, SceneSpec

CORPUS_SIZE = 32
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def corpus_seed(seed: int) -> int:
    return seed % CORPUS_SIZE


def load_reference(workload: str, quick: bool, cseed: int):
    """Recorded per-input summaries, or None when nothing is recorded."""
    try:
        doc = json.loads(REFERENCE_PATH.read_text())
    except FileNotFoundError:
        return None
    return doc.get("quick" if quick else "full", {}).get(workload, {}).get(str(cseed))


class Workload:
    """One op at a time over a fixed list of inputs (``n_inputs`` per pass).

    ``setup`` makes the inputs and warms up; it may be called repeatedly and
    makes the same inputs each time.  ``run`` is the timed op.  ``summary`` is
    the exact, JSON-able form of an op's output that the reference records;
    ``check`` adds the workload's own consistency checks.
    """

    name = ""
    #: What ``items`` counts, for the human-readable throughput name.
    item = ""
    #: Per-layer counts predicted to be 0 on this workload: the layers it bypasses.
    bypassed = ()
    n_inputs = 1

    def __init__(self, seed: int, quick: bool, workdir: Path):
        """``workdir`` is an existing scratch directory the workload may fill."""
        self.cseed = corpus_seed(seed)
        self.quick = quick
        self.workdir = workdir
        self.reference = load_reference(self.name, quick, self.cseed)

    def setup(self):
        raise NotImplementedError

    def run(self, i: int):
        raise NotImplementedError

    def items(self, result) -> int:
        return 1

    def summary(self, i: int, result):
        raise NotImplementedError

    def check(self, i: int, result) -> str | None:
        """None when the output is correct, else a one-line reason."""
        if self.reference is None:
            return f"no reference recorded for corpus seed {self.cseed}"
        got = self.summary(i, result)
        if got != self.reference[i]:
            return f"input {i}: output {got!r} differs from reference {self.reference[i]!r}"
        return None


class FitOrderFree(Workload):
    name = "fit_order_free"
    item = "fit_iters"

    def setup(self):
        if self.quick:
            spec = SceneSpec(seed=self.cseed, n_ped=1, n_divider=1, n_boundary=1, n_points=6)
            self.cfg = FitConfig(seed=self.cseed, iterations=10, n_slots=6)
        else:
            spec = SceneSpec(seed=self.cseed)
            self.cfg = FitConfig(seed=self.cseed)
        self.scene = vecmap.scenegen.generate_scene(spec)
        vecmap.fitter.fit(self.scene, FitConfig(seed=self.cseed, iterations=3,
                                                n_slots=self.cfg.n_slots))

    def run(self, i):
        return vecmap.fitter.fit(self.scene, self.cfg)

    def items(self, result):
        return len(result.losses)

    def summary(self, i, result):
        return {"map": result.final_report.mean_ap, "loss_total": result.losses[-1].total}

    def check(self, i, result):
        if len(result.losses) != self.cfg.iterations:
            return f"{len(result.losses)} losses for {self.cfg.iterations} iterations"
        for t, row in enumerate(result.losses):
            if not all(math.isfinite(x) for x in (row.cls, row.p2p, row.dir, row.total)):
                return f"non-finite loss at iteration {t}: {row}"
        again = vecmap.metrics.evaluate_ap(
            [list(result.final_predictions)], [list(self.scene.elements)],
            vecmap.metrics.APConfig(), self.scene.range,
        )
        if again != result.final_report:
            return "final_report differs from evaluate_ap on final_predictions"
        return super().check(i, result)


class EvalAP(Workload):
    name = "eval_ap"
    item = "eval_scenes"
    bypassed = ("kernels.manhattan.calls", "losses.calls", "fitter.iterations")

    def setup(self):
        n = 3 if self.quick else 100
        self.gt_paths, self.pred_paths = [], []
        for k in range(n):
            s = self.cseed * 1000 + k
            spec = SceneSpec(seed=s, n_points=8) if self.quick else SceneSpec(seed=s)
            scene = vecmap.scenegen.generate_scene(spec)
            preds = vecmap.scenegen.perturb(scene, PerturbSpec(
                seed=10**6 + s, point_noise_sigma=0.4, drop_prob=0.1,
                false_positive_count=3, score_model="noisy_confidence",
                pad_to=12 if self.quick else 50,
            ))
            gt_path, pred_path = self.workdir / f"gt{k}.scene", self.workdir / f"pred{k}.scene"
            vecmap.sceneio.write_scene(gt_path, scene)
            vecmap.sceneio.write_scene(pred_path, scene, preds)
            self.gt_paths.append(str(gt_path))
            self.pred_paths.append(str(pred_path))
        self.out = self.workdir / "report.json"
        self._eval(self.gt_paths[:2], self.pred_paths[:2])
        self.out.unlink()

    def _eval(self, gt, pred):
        argv = ["eval", "--gt", *gt, "--pred", *pred, "--json", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            return vecmap.cli.main(argv)

    def run(self, i):
        return self._eval(self.gt_paths, self.pred_paths)

    def items(self, result):
        return len(self.gt_paths)

    def summary(self, i, result):
        # Removed once read, so an op that writes no report cannot pass on an old one.
        doc = json.loads(self.out.read_text())
        self.out.unlink()
        cells = [[c["class"], c["tau"], c["ap"]] for c in doc["per_class_per_threshold"]]
        return {"cells": cells, "map": doc["map"]}

    def check(self, i, result):
        if result != 0:
            return f"vecmap eval exited {result}"
        return super().check(i, result)


class MatchDense(Workload):
    name = "match_dense"
    item = "match_scenes"
    bypassed = ("losses.calls", "fitter.iterations", "metrics.chamfer_distance.calls")

    @property
    def n_inputs(self):
        return 3 if self.quick else 50

    def setup(self):
        self.inputs = []
        for k in range(self.n_inputs):
            s = self.cseed * 1000 + k
            if self.quick:
                spec = SceneSpec(seed=s, n_ped=2, n_divider=1, n_boundary=1, n_points=8)
            else:
                spec = SceneSpec(seed=s, n_ped=8, n_divider=6, n_boundary=2, n_points=40)
            scene = vecmap.scenegen.generate_scene(spec)
            preds = vecmap.scenegen.perturb(scene, PerturbSpec(
                seed=10**6 + s, point_noise_sigma=0.4, false_positive_count=4,
                score_model="noisy_confidence", pad_to=10 if self.quick else 50,
            ))
            gts = [el.normalized(scene.range) for el in scene.elements]
            self.inputs.append((preds, gts))
        vecmap.matching.hierarchical_match(*self.inputs[0])

    def run(self, i):
        return vecmap.matching.hierarchical_match(*self.inputs[i])

    def summary(self, i, result):
        h = hashlib.sha256()
        for pair in result.instance.pairs:
            pa = result.point_level[pair]
            h.update(f"{pair[0]},{pair[1]},{pa.perm.direction.value},"
                     f"{pa.perm.offset},{pa.cost.hex()};".encode())
        return h.hexdigest()[:24]

    def check(self, i, result):
        if set(result.point_level) != set(result.instance.pairs):
            return f"input {i}: point-level keys differ from the instance pairs"
        return super().check(i, result)


WORKLOADS = {w.name: w for w in (FitOrderFree, EvalAP, MatchDense)}
