import contextlib
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import vecmap
from conftest import ground_truth_readers_agree, matcher_backend
from vecmap.cli import main
from vecmap.geometry import ElementClass, MapElement, SceneRange, normalize
from vecmap.matching import PredictedElement, hierarchical_match
from vecmap.metrics import APConfig, evaluate_ap
from vecmap.scenegen import MapScene, PerturbSpec, SceneSpec, generate_scene, perturb
from vecmap.sceneio import (
    CLASS_NAMES,
    SceneFormatError,
    read_predictions,
    read_scene,
    write_scene,
)
from vecmap.svgplot import CLASS_COLORS, SCORE_FLOOR, scene_overlay_svg


#: A ground-truth range other than the default, for per-scene range tests.
_WIDE = SceneRange(-20.0, 20.0, -40.0, 40.0)


@pytest.fixture
def scene():
    return generate_scene(SceneSpec(seed=7))


def _per_element_read(path):
    """A prediction file read element by element, as the reader did before
    it stacked whole files: each point set normalized on its own."""
    doc = json.loads(path.read_text())
    sr = SceneRange(*doc["meta"]["range"])
    els = doc["elements"]
    points = [normalize(np.asarray(el["points"], dtype=np.float64), sr) for el in els]
    scores = [np.asarray(el["scores"], dtype=np.float64) for el in els]
    return np.stack(points), np.stack(scores)


def _noisy_files(tmp_path, seed, scene_range=SceneRange(), n_points=20):
    """Ground-truth and prediction files like the benchmark's eval inputs:
    noisy points, dropped elements, false positives and noisy scores."""
    scene = generate_scene(SceneSpec(seed=seed, range=scene_range, n_points=n_points))
    preds = perturb(scene, PerturbSpec(
        seed=10**6 + seed, point_noise_sigma=0.4, drop_prob=0.1,
        false_positive_count=3, score_model="noisy_confidence",
    ))
    gt = tmp_path / f"gt{seed}.scene"
    pred = tmp_path / f"pred{seed}.scene"
    write_scene(gt, scene)
    write_scene(pred, scene, predictions=preds)
    return gt, pred


class TestSceneIO:
    def test_round_trip(self, tmp_path, scene):
        path = tmp_path / "gt.scene"
        write_scene(path, scene)
        back = read_scene(path)
        assert len(back.elements) == len(scene.elements)
        for a, b in zip(back.elements, scene.elements):
            assert a.element_class is b.element_class
            assert a.kind is b.kind
            np.testing.assert_allclose(a.points, b.points, atol=1e-7)
        # a second write/read cycle is an exact fixed point
        path2 = tmp_path / "gt2.scene"
        write_scene(path2, back)
        assert path2.read_bytes() == path.read_bytes()
        again = read_scene(path2)
        for a, b in zip(again.elements, back.elements):
            np.testing.assert_array_equal(a.points, b.points)

    def test_prediction_round_trip(self, tmp_path, scene):
        preds = perturb(scene, PerturbSpec(seed=1, point_noise_sigma=0.2))[:8]
        path = tmp_path / "pred.scene"
        write_scene(path, scene, predictions=preds)
        _, back = read_predictions(path)
        assert back.points.shape == (8, scene.n_points, 2) and back.scores.shape == (8, 3)
        for points, scores, b in zip(back.points, back.scores, preds):
            np.testing.assert_allclose(points, b.points, atol=1e-7)
            np.testing.assert_allclose(scores, b.scores, atol=1e-9)

    def test_inconsistent_point_count_not_written(self, tmp_path, scene):
        # Five-point predictions under a 20-point scene, and a scene whose
        # n_points is not its elements': each file would read back as
        # "elements[0]: expected N [x, y] points", so none is written.
        # A float n_points would read back as "meta.n_points must be an
        # integer >= 2".
        five = [PredictedElement(scores=np.full(3, 0.5), points=np.full((5, 2), 0.5))]
        mislabeled = generate_scene(SceneSpec(seed=7, n_points=8))
        for name, args, match in (
            ("pred", (scene, five), r"elements\[0\] has 5 points"),
            ("gt", (MapScene(scene.range, 20, mislabeled.elements),), r"elements\[0\] has 8"),
            ("float", (MapScene(scene.range, 20.0, scene.elements),), "^n_points must be"),
        ):
            path = tmp_path / f"{name}.scene"
            with pytest.raises(ValueError, match=match):
                write_scene(path, *args)
            assert not path.exists()
        # A numpy-integer n_points is written as the int it equals.
        write_scene(tmp_path / "int.scene", scene)
        write_scene(tmp_path / "np.scene", MapScene(scene.range, np.int64(20), scene.elements))
        assert (tmp_path / "np.scene").read_bytes() == (tmp_path / "int.scene").read_bytes()

    def test_unknown_field_rejected(self, tmp_path, scene):
        path = tmp_path / "gt.scene"
        write_scene(path, scene)
        doc = json.loads(path.read_text())
        doc["elements"][0]["color"] = "red"
        path.write_text(json.dumps(doc))
        with pytest.raises(SceneFormatError, match="unknown fields"):
            read_scene(path)

    def test_malformed_json_names_path(self, tmp_path):
        path = tmp_path / "broken.scene"
        path.write_text("{not json")
        with pytest.raises(SceneFormatError, match="broken.scene"):
            read_scene(path)

    @pytest.mark.parametrize("seed", range(6))
    def test_stacked_read_equals_per_element_read(self, tmp_path, seed):
        sr = _WIDE if seed % 2 else SceneRange()
        _, path = _noisy_files(tmp_path, seed, sr, n_points=8 + seed)
        _, got = read_predictions(path)
        points, scores = _per_element_read(path)
        assert got.points.shape == (50, 8 + seed, 2)
        assert np.array_equal(got.points, points)
        assert np.array_equal(got.scores, scores)

    def test_no_prediction_elements(self, tmp_path, scene):
        path = tmp_path / "pred.scene"
        write_scene(path, scene, predictions=[])
        _, got = read_predictions(path)
        assert got.points.shape == (0, scene.n_points, 2) and got.scores.shape == (0, 3)

    def test_elements_must_be_a_list(self, tmp_path, scene):
        path = tmp_path / "pred.scene"
        write_scene(path, scene, predictions=[])
        doc = json.loads(path.read_text())
        doc["elements"] = {}
        path.write_text(json.dumps(doc))
        with pytest.raises(SceneFormatError, match="elements must be a list"):
            read_predictions(path)

    def test_class_kind_mismatch_rejected(self, tmp_path, scene):
        path = tmp_path / "gt.scene"
        write_scene(path, scene)
        doc = json.loads(path.read_text())
        doc["elements"][0]["kind"] = "polyline"  # ped_crossing must be polygon
        path.write_text(json.dumps(doc))
        with pytest.raises(SceneFormatError, match="mismatch"):
            read_scene(path)


def _generate(tmp_path, name="gt.scene", seed=7):
    out = tmp_path / name
    code = main(
        ["generate", "--seed", str(seed), "--ped", "2", "--divider", "3",
         "--boundary", "2", "--out", str(out)]
    )
    assert code == 0
    return out


def _set_range(path, scene_range):
    doc = json.loads(path.read_text())
    doc["meta"]["range"] = scene_range
    path.write_text(json.dumps(doc))


def _own_points_files(tmp_path, seed=4, scene_range=SceneRange()):
    """A ground-truth file and a prediction file holding its own points."""
    scene = generate_scene(SceneSpec(seed=seed, range=scene_range))
    gt = tmp_path / f"gt{seed}.scene"
    pred = tmp_path / f"pred{seed}.scene"
    write_scene(gt, scene)
    write_scene(pred, scene, predictions=perturb(scene, PerturbSpec(seed=0)))
    return gt, pred


class TestCliGenerate:
    def test_writes_seven_elements(self, tmp_path):
        out = _generate(tmp_path)
        assert len(read_scene(out).elements) == 7

    def test_byte_deterministic(self, tmp_path):
        a = _generate(tmp_path, "a.scene")
        b = _generate(tmp_path, "b.scene")
        assert a.read_bytes() == b.read_bytes()

    def test_negative_count_is_usage_error(self, tmp_path, capsys):
        code = main(["generate", "--seed", "1", "--ped", "-1",
                     "--out", str(tmp_path / "x.scene")])
        assert code == 1
        for n_points in ("0", "1", "-3"):
            code = main(["generate", "--seed", "1", "--n-points", n_points,
                         "--out", str(tmp_path / "x.scene")])
            assert code == 1
            assert "argument --n-points: must be >= 2" in capsys.readouterr().err

    def test_negative_seed_names_the_flag(self, tmp_path, capsys):
        code = main(["generate", "--seed", "-1", "--out", str(tmp_path / "x.scene")])
        assert code == 1
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "x.scene").exists()


class TestCliEval:
    def test_perfect(self, tmp_path, capsys, scene):
        gt = tmp_path / "gt.scene"
        pred = tmp_path / "pred.scene"
        write_scene(gt, scene)
        write_scene(pred, scene, predictions=perturb(scene, PerturbSpec(seed=0)))
        code = main(["eval", "--gt", str(gt), "--pred", str(pred)])
        out = capsys.readouterr().out
        assert code == 0
        assert "mAP 1.000" in out

    def test_empty_predictions(self, tmp_path, capsys, scene):
        gt = tmp_path / "gt.scene"
        pred = tmp_path / "pred.scene"
        write_scene(gt, scene)
        write_scene(pred, scene, predictions=[])
        code = main(["eval", "--gt", str(gt), "--pred", str(pred)])
        assert code == 0
        assert "mAP 0.000" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys, scene):
        gt = tmp_path / "gt.scene"
        pred = tmp_path / "pred.scene"
        report = tmp_path / "report.json"
        write_scene(gt, scene)
        write_scene(pred, scene, predictions=perturb(scene, PerturbSpec(seed=0)))
        code = main(["eval", "--gt", str(gt), "--pred", str(pred),
                     "--json", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["map"] == 1.0
        assert doc["kernel_backend"] == vecmap.KERNEL_BACKEND in ("compiled", "pure")
        assert doc["kernel_isa"] == vecmap._kernels.ISA
        n_gt = {name: 0 for name in CLASS_NAMES.values()}
        for el in scene.elements:
            n_gt[CLASS_NAMES[el.element_class]] += 1
        for cell in doc["per_class_per_threshold"]:
            assert set(cell) == {"class", "tau", "ap", "tp", "fp", "n_gt"}
            assert cell["tp"] == cell["n_gt"] == n_gt[cell["class"]]
            assert cell["fp"] >= 0

    def test_builds_no_map_element(self, tmp_path, capsys, monkeypatch):
        # Ground truth goes from the reader to AP as arrays: with MapElement
        # unbuildable, eval reports what evaluate_ap gives on read_scene's
        # elements, the form eval read before.
        files = [_noisy_files(tmp_path, seed, _WIDE if seed % 2 else SceneRange())
                 for seed in range(3)]
        scenes = [read_scene(gt) for gt, _ in files]
        want = evaluate_ap([read_predictions(pred)[1] for _, pred in files],
                           [list(s.elements) for s in scenes], APConfig(), [s.range for s in scenes])
        report = tmp_path / "report.json"

        def refuse(self):
            raise AssertionError("a MapElement was built")

        monkeypatch.setattr(MapElement, "__post_init__", refuse)
        code = main(["eval", "--gt", *(str(gt) for gt, _ in files),
                     "--pred", *(str(pred) for _, pred in files), "--json", str(report)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.out.splitlines()[-1] == f"mAP {want.mean_ap:.3f}"
        doc = json.loads(report.read_text())
        got = {(c["class"], c["tau"]): (c["ap"], c["tp"], c["fp"], c["n_gt"])
               for c in doc["per_class_per_threshold"]}
        assert got == {
            (CLASS_NAMES[cls], tau): (ap, *vars(want.counts[(cls, tau)]).values())
            for (cls, tau), ap in want.per_class_per_threshold.items()
        }
        assert doc["map"] == want.mean_ap > 0

    def test_two_point_polygon_rejected(self, tmp_path, capsys):
        # Two points make a polyline but no polygon; both ground-truth entries
        # name the file and the first polygon.
        scene = generate_scene(SceneSpec(seed=1, n_ped=0, n_points=2))
        gt, pred = tmp_path / "gt.scene", tmp_path / "pred.scene"
        write_scene(gt, scene)
        write_scene(pred, scene, predictions=perturb(scene, PerturbSpec(seed=2)))
        assert main(["eval", "--gt", str(gt), "--pred", str(pred)]) == 0
        capsys.readouterr()
        doc = json.loads(gt.read_text())
        for el in doc["elements"][1:3]:
            el.update({"class": "ped_crossing", "kind": "polygon"})
        gt.write_text(json.dumps(doc))
        message = f"{gt}: elements[1]: polygon needs at least 3 points, got 2"
        assert ground_truth_readers_agree(gt) == message
        code = main(["eval", "--gt", str(gt), "--pred", str(pred)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"error: {message}\n"

    def test_prediction_range_mismatch_names_file(self, tmp_path, capsys):
        gt, pred = _own_points_files(tmp_path)
        assert main(["eval", "--gt", str(gt), "--pred", str(pred)]) == 0
        assert "mAP 1.000" in capsys.readouterr().out
        # Read with this range, the points land elsewhere in meters.
        _set_range(pred, [-20, 20, -40, 40])
        code = main(["eval", "--gt", str(gt), "--pred", str(pred)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert str(pred) in captured.err and "meta.range" in captured.err

    def test_ground_truth_ranges_scored_per_scene(self, tmp_path, capsys):
        # Each scene's predictions are mapped back to meters with its own
        # range; with the first scene's range, the wide scene's would miss.
        gt_a, pred_a = _own_points_files(tmp_path, seed=4)
        gt_b, pred_b = _own_points_files(tmp_path, seed=5, scene_range=_WIDE)
        code = main(["eval", "--gt", str(gt_a), str(gt_b),
                     "--pred", str(pred_a), str(pred_b)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "mAP 1.000" in captured.out

    def test_two_ranges_add_up_to_one_scene_evals(self, tmp_path):
        # The greedy rule claims ground truth in the candidate's own scene
        # only, so per-cell counts of a two-scene eval are exact sums.
        a = _noisy_files(tmp_path, 4)
        b = _noisy_files(tmp_path, 5, _WIDE)

        def cells(*pairs):
            out = tmp_path / "report.json"
            argv = ["eval", "--gt", *(str(g) for g, _ in pairs),
                    "--pred", *(str(p) for _, p in pairs), "--json", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            doc = json.loads(out.read_text())
            return {(c["class"], c["tau"]): c for c in doc["per_class_per_threshold"]}

        both, only_a, only_b = cells(a, b), cells(a), cells(b)
        assert len(both) == 9
        for key, cell in both.items():
            for field in ("tp", "fp", "n_gt"):
                assert cell[field] == only_a[key][field] + only_b[key][field], (key, field)
        assert all(c["tp"] > 0 for c in only_b.values())
        assert any(c["fp"] > 0 for c in both.values())

    def test_nan_score_names_file_and_element(self, tmp_path, capsys):
        gt, pred = _own_points_files(tmp_path)
        doc = json.loads(pred.read_text())
        doc["elements"][2]["scores"][0] = float("nan")
        pred.write_text(json.dumps(doc))  # json writes the NaN literal
        assert "NaN" in pred.read_text()
        code = main(["eval", "--gt", str(gt), "--pred", str(pred)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"{pred}: elements[2]: scores must lie in [0, 1]" in captured.err

    @pytest.mark.parametrize("case, message", [
        ("not an object", "elements[3] must be an object"),
        ("unknown key", "unknown fields in elements[3]: ['color']"),
        ("2 scores", "elements[3]: scores must be 3 numbers"),
        ("score 1.5", "elements[3]: scores must lie in [0, 1]"),
        ("NaN score", "elements[3]: scores must lie in [0, 1]"),
        ("NaN point", "elements[3]: points contain NaN or Inf"),
        ("wrong point count", "elements[3]: expected 20 [x, y] points"),
        ("ragged points", "elements[3]: expected 20 [x, y] points"),
        ("3-coordinate points", "elements[3]: expected 20 [x, y] points"),
        ("missing points", "elements[3]: expected 20 [x, y] points"),
        ("string coordinate", "elements[3]: expected 20 [x, y] points"),
        ("bool coordinate", "elements[3]: expected 20 [x, y] points"),
        ("string score", "elements[3]: scores must be 3 numbers"),
        ("bool score", "elements[3]: scores must be 3 numbers"),
    ])
    @pytest.mark.parametrize("later_bad", [False, True], ids=["alone", "first-of-two"])
    def test_malformed_element_names_file_and_element(
        self, tmp_path, capsys, case, message, later_bad
    ):
        gt, pred = _own_points_files(tmp_path)
        doc = json.loads(pred.read_text())
        el = doc["elements"][3]
        if case == "not an object":
            doc["elements"][3] = [el["scores"], el["points"]]
        elif case == "unknown key":
            el["color"] = "red"
        elif case == "2 scores":
            el["scores"] = el["scores"][:2]
        elif case == "score 1.5":
            el["scores"][1] = 1.5
        elif case == "NaN score":
            el["scores"][1] = float("nan")
        elif case == "NaN point":
            el["points"][5][1] = float("nan")
        elif case == "wrong point count":
            el["points"] = el["points"][:-1]
        elif case == "ragged points":
            el["points"][5] = el["points"][5][:1]
        elif case == "3-coordinate points":
            el["points"] = [p + [0.0] for p in el["points"]]
        elif case == "string coordinate":
            el["points"][5][0] = str(el["points"][5][0])
        elif case == "bool coordinate":
            el["points"][5][1] = True
        elif case == "string score":
            el["scores"][1] = str(el["scores"][1])
        elif case == "bool score":
            el["scores"][1] = True
        else:
            del el["points"]
        if later_bad:  # the first bad element is the one named
            doc["elements"][7]["scores"] = [2.0, 2.0, 2.0]
        pred.write_text(json.dumps(doc))
        code = main(["eval", "--gt", str(gt), "--pred", str(pred)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"{pred}: {message}" in captured.err

    @pytest.mark.parametrize("case, message", [
        ("ragged point", "elements[3]: expected 20 [x, y] points"),
        ("non-numeric point", "elements[3]: expected 20 [x, y] points"),
        ("missing points", "elements[3]: expected 20 [x, y] points"),
        ("3-coordinate points", "elements[3]: expected 20 [x, y] points"),
        ("not an object", "elements[3] must be an object"),
        ("unknown key", "unknown fields in elements[3]: ['color']"),
        ("bad class", "elements[3]: bad class or kind"),
        ("class not a string", "elements[3]: bad class or kind"),
        ("class/kind mismatch", "elements[3]: class/kind mismatch"),
        ("NaN point", "elements[3]: points contain NaN or Inf"),
        ("string coordinate", "elements[3]: expected 20 [x, y] points"),
        ("bool coordinate", "elements[3]: expected 20 [x, y] points"),
        ("string and bool point", "elements[3]: expected 20 [x, y] points"),
    ])
    @pytest.mark.parametrize("later_bad", [False, True], ids=["alone", "first-of-two"])
    def test_malformed_ground_truth_names_file_and_element(
        self, tmp_path, capsys, case, message, later_bad
    ):
        gt, pred = _own_points_files(tmp_path)
        doc = json.loads(gt.read_text())
        el = doc["elements"][3]
        if case == "ragged point":
            el["points"][5] = el["points"][5][:1]
        elif case == "non-numeric point":
            el["points"][5][0] = "a"
        elif case == "missing points":
            del el["points"]
        elif case == "3-coordinate points":
            el["points"] = [p + [0.0] for p in el["points"]]
        elif case == "not an object":
            doc["elements"][3] = [el["class"], el["kind"], el["points"]]
        elif case == "unknown key":
            el["color"] = "red"
        elif case == "bad class":
            el["class"] = "tree"
        elif case == "class not a string":
            el["class"] = [el["class"]]
        elif case == "class/kind mismatch":
            el["kind"] = "polygon" if el["kind"] == "polyline" else "polyline"
        elif case == "string coordinate":
            el["points"][5][0] = str(el["points"][5][0])
        elif case == "bool coordinate":
            el["points"][5][1] = True
        elif case == "string and bool point":
            el["points"][5] = ["5.5", True]
        else:
            el["points"][5][1] = float("nan")
        if later_bad:  # the first bad element is the one named
            doc["elements"][5]["kind"] = "circle"
        gt.write_text(json.dumps(doc))
        code = main(["eval", "--gt", str(gt), "--pred", str(pred)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"{gt}: {message}" in captured.err
        assert ground_truth_readers_agree(gt) == f"{gt}: {message}"

    @pytest.mark.parametrize("scene_range", [["-15", 15, -30, 30], [-15, 15, -30, True]])
    def test_range_entry_not_a_number_names_file(self, tmp_path, capsys, scene_range):
        gt, pred = _own_points_files(tmp_path)
        for path in (gt, pred):  # the same range in both, so only its type is wrong
            _set_range(path, scene_range)
        code = main(["eval", "--gt", str(gt), "--pred", str(pred)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"{gt}: meta.range must be 4 numbers" in captured.err

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = main(["eval", "--gt", str(tmp_path / "nope.scene"),
                     "--pred", str(tmp_path / "nope2.scene")])
        assert code == 1
        assert "nope.scene" in capsys.readouterr().err

    def test_file_counts_differ_is_input_error(self, tmp_path, capsys):
        # Checked before any file is read: none of these exists.
        code = main(["eval", "--gt", *(str(tmp_path / f"g{i}") for i in range(3)),
                     "--pred", str(tmp_path / "p")])
        assert code == 1
        assert capsys.readouterr() == ("", "error: --gt has 3 files but --pred has 1\n")

    def test_point_count_differs_from_ground_truth(self, tmp_path, capsys):
        # Chamfer-AP is defined for any point counts, so eval scores a
        # 10-point prediction file against 20-point ground truth; match,
        # whose Manhattan cost pairs points one to one, rejects it.
        gt_scene = generate_scene(SceneSpec(seed=3, n_points=20))
        pred_scene = generate_scene(SceneSpec(seed=3, n_points=10))
        gt, pred, report = (tmp_path / name for name in ("gt.scene", "pred.scene", "r.json"))
        write_scene(gt, gt_scene)
        write_scene(pred, pred_scene, predictions=perturb(pred_scene, PerturbSpec(
            seed=1, point_noise_sigma=0.4, false_positive_count=2,
            score_model="noisy_confidence",
        )))
        code = main(["eval", "--gt", str(gt), "--pred", str(pred), "--json", str(report)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        doc = json.loads(report.read_text())
        _, arrays = read_predictions(pred)
        assert arrays.points.shape[1:] == (10, 2)
        want = evaluate_ap([arrays], [list(read_scene(gt).elements)])
        cells = {(c["class"], c["tau"]): c for c in doc["per_class_per_threshold"]}
        assert len(cells) == len(want.per_class_per_threshold) == 9
        for (cls, tau), ap in want.per_class_per_threshold.items():
            cell = cells[(CLASS_NAMES[cls], tau)]
            counts = want.counts[(cls, tau)]
            assert (cell["ap"], cell["tp"], cell["fp"], cell["n_gt"]) == (
                ap, counts.tp, counts.fp, counts.n_gt
            )
        assert doc["map"] == want.mean_ap
        assert any(c["tp"] > 0 for c in cells.values())

        code = main(["match", str(gt), str(pred)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert str(pred) in captured.err
        assert "have 10 points" in captured.err and "has 20" in captured.err

    def test_never_imports_the_assignment_solver(self, tmp_path):
        # scipy.optimize is imported on the first assignment solve only;
        # eval solves none.
        gt, pred = _own_points_files(tmp_path)
        script = (
            "import contextlib, io, sys\n"
            "import vecmap, vecmap.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = vecmap.cli.main(['eval', '--gt', {str(gt)!r}, '--pred', {str(pred)!r}])\n"
            "assert code == 0, code\n"
            "assert 'scipy.optimize' not in sys.modules\n"
        )
        src = str(Path(vecmap.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr


class TestCliMatch:
    def test_perfect_forward_zero(self, tmp_path, capsys, scene):
        gt = tmp_path / "gt.scene"
        pred = tmp_path / "pred.scene"
        write_scene(gt, scene)
        write_scene(pred, scene, predictions=perturb(scene, PerturbSpec(seed=0))[:10])
        code = main(["match", str(gt), str(pred)])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if " forward " in l or " reverse " in l]
        assert len(lines) == 7
        assert all(" forward " in l for l in lines)

    def test_reversed_polyline_reported_reverse(self, tmp_path, capsys):
        scene = generate_scene(SceneSpec(seed=1, n_ped=0, n_divider=1, n_boundary=0))
        gt = tmp_path / "gt.scene"
        pred = tmp_path / "pred.scene"
        write_scene(gt, scene)
        preds = perturb(scene, PerturbSpec(seed=0))[:1]
        reversed_preds = [
            type(preds[0])(scores=preds[0].scores, points=preds[0].points[::-1])
        ]
        write_scene(pred, scene, predictions=reversed_preds)
        code = main(["match", str(gt), str(pred)])
        out = capsys.readouterr().out
        assert code == 0
        assert " reverse " in out

    def test_range_mismatch_names_prediction_file(self, tmp_path, capsys):
        gt, pred = _own_points_files(tmp_path)
        _set_range(pred, [-20, 20, -40, 40])
        code = main(["match", str(gt), str(pred)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert str(pred) in captured.err and "meta.range" in captured.err

    @pytest.mark.parametrize("n_pred", [6, 3])
    def test_point_count_mismatch_names_prediction_file(self, tmp_path, capsys, n_pred):
        gt_scene = generate_scene(SceneSpec(seed=2, n_points=4))
        pred_scene = generate_scene(SceneSpec(seed=2, n_points=n_pred))
        gt = tmp_path / "gt.scene"
        pred = tmp_path / "pred.scene"
        write_scene(gt, gt_scene)
        write_scene(pred, pred_scene, predictions=perturb(pred_scene, PerturbSpec(seed=0))[:10])
        code = main(["match", str(gt), str(pred)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert str(pred) in captured.err
        assert f"have {n_pred} points" in captured.err and "has 4" in captured.err

    @pytest.mark.parametrize("backend", ["loaded", "numpy"])
    @pytest.mark.parametrize("counts", [(3, 0, 0), (0, 2, 2)], ids=["polygons", "polylines"])
    def test_builds_no_element_and_prints_hierarchical_match(
        self, tmp_path, capsys, monkeypatch, backend, counts
    ):
        # match reads arrays and matches them once: with MapElement and
        # PredictedElement unbuildable, it prints the rows of hierarchical_match
        # on read_scene's elements normalized, the form match read before.
        n_ped, n_divider, n_boundary = counts
        scene = generate_scene(SceneSpec(seed=5, n_ped=n_ped, n_divider=n_divider,
                                         n_boundary=n_boundary, range=_WIDE))
        gt, pred = tmp_path / "gt.scene", tmp_path / "pred.scene"
        write_scene(gt, scene)
        write_scene(pred, scene, predictions=perturb(scene, PerturbSpec(
            seed=5, point_noise_sigma=0.4, false_positive_count=3,
            score_model="noisy_confidence", pad_to=12,
        )))
        scene, (_, arrays) = read_scene(gt), read_predictions(pred)
        preds = [PredictedElement(scores=s, points=p) for p, s in zip(arrays.points, arrays.scores)]
        gts = [el.normalized(scene.range) for el in scene.elements]
        with matcher_backend(backend):
            match = hierarchical_match(preds, gts)
        want = [
            f"{p:>5} {g:>4} {CLASS_NAMES[gts[g].element_class]:<14}"
            f"{pa.perm.direction.value:<10}{pa.perm.offset:>6} {pa.cost:>12.6f}"
            for (p, g), pa in ((pair, match.point_level[pair]) for pair in match.instance.pairs)
        ]

        def refuse(self):
            raise AssertionError("an element was built")

        monkeypatch.setattr(MapElement, "__post_init__", refuse)
        monkeypatch.setattr(PredictedElement, "__post_init__", refuse)
        with matcher_backend(backend):
            code = main(["match", str(gt), str(pred)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        lines = captured.out.splitlines()
        assert lines[0].split() == ["pred", "gt", "class", "direction", "offset", "cost"]
        assert lines[1:-1] == want and len(want) == len(gts)
        assert lines[-1] == f"unmatched predictions: {len(preds) - len(gts)}"


class TestCliFit:
    def test_fit_both_with_svg(self, tmp_path, capsys):
        scene = generate_scene(SceneSpec(seed=0, n_ped=1, n_divider=1, n_boundary=0))
        gt = tmp_path / "gt.scene"
        write_scene(gt, scene)
        svg = tmp_path / "curves.svg"
        trace = tmp_path / "trace.txt"
        code = main(["fit", str(gt), "--mode", "both", "--iterations", "25",
                     "--seed", "1", "--svg", str(svg), "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "permutation_equivalent" in out and "fixed_order" in out
        # trace table row count
        assert len(trace.read_text().strip().splitlines()) == 26
        # SVGs are valid self-contained XML
        for path in (svg, tmp_path / "curves_overlay.svg"):
            root = ET.fromstring(path.read_text())
            assert root.tag.endswith("svg")
            assert "href" not in path.read_text()
        assert "permutation_equivalent" in svg.read_text()
        assert "fixed_order" in svg.read_text()

    def test_overlay_draws_confident_predictions_solid_in_class_color(self):
        # A crossing prediction on its ground truth's points is drawn over it,
        # as a solid polygon in the crossing color; one whose best score is
        # below the floor (a divider) is not drawn at all.
        scene = generate_scene(SceneSpec(seed=0, n_ped=1, n_divider=0, n_boundary=0))
        points = normalize(scene.elements[0].points, scene.range)
        confident = PredictedElement(scores=[0.9, 0.05, 0.05], points=points)
        faint = PredictedElement(scores=[0.1, SCORE_FLOOR - 0.01, 0.05], points=points[::-1])
        svg = scene_overlay_svg(scene, [confident, faint])
        shapes = [el for el in ET.fromstring(svg) if el.tag.endswith(("polygon", "polyline"))]
        assert len(shapes) == 2
        drawn_gt, drawn = shapes
        assert drawn_gt.get("stroke-dasharray") == "6,4"
        assert drawn.tag.endswith("polygon") and drawn.get("stroke-dasharray") is None
        assert drawn.get("stroke") == CLASS_COLORS[ElementClass.PED_CROSSING]
        assert drawn.get("points") == drawn_gt.get("points")
        assert CLASS_COLORS[ElementClass.DIVIDER] not in svg

    def test_non_finite_range_names_file(self, tmp_path, capsys):
        gt = _generate(tmp_path)
        _set_range(gt, [-math.inf, math.inf, -30, 30])
        code = main(["fit", str(gt), "--iterations", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert str(gt) in captured.err and "finite" in captured.err

    def test_empty_scene_names_file(self, tmp_path, capsys):
        gt = tmp_path / "empty.scene"
        write_scene(gt, generate_scene(SceneSpec(seed=0, n_ped=0, n_divider=0, n_boundary=0)))
        code = main(["fit", str(gt), "--iterations", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"{gt}: ground-truth scene is empty" in captured.err

    def test_negative_seed_names_the_flag(self, tmp_path, capsys):
        gt = _generate(tmp_path)
        code = main(["fit", str(gt), "--iterations", "2", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "--seed" in captured.err

    def test_non_positive_iterations_names_the_flag(self, tmp_path, capsys):
        gt = _generate(tmp_path)
        for iterations in ("0", "-1"):
            code = main(["fit", str(gt), "--iterations", iterations])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert "argument --iterations: must be >= 1" in captured.err


@pytest.mark.parametrize("command", ["generate", "eval --json", "fit --trace", "fit --svg"])
def test_unwritable_output_is_input_error(tmp_path, capsys, command):
    # An output path in a missing directory: exit 1, naming the path.
    gt, pred = _own_points_files(tmp_path)
    out = tmp_path / "missing" / "out.txt"
    argv = {
        "generate": ["generate", "--seed", "1", "--out", str(out)],
        "eval --json": ["eval", "--gt", str(gt), "--pred", str(pred), "--json", str(out)],
        "fit --trace": ["fit", str(gt), "--iterations", "2", "--trace", str(out)],
        "fit --svg": ["fit", str(gt), "--iterations", "2", "--svg", str(out)],
    }[command]
    assert main(argv) == 1
    assert str(out) in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["generate", "eval --json", "eval --json to a directory", "fit --trace",
                "fit --svg", "fit --svg after --trace", "fit --svg with its overlay a directory"]
)
def test_bad_output_path_fails_before_any_output(tmp_path, capsys, command):
    # Output paths are checked before any reading or fitting: the command
    # prints nothing and writes no file, not even a valid output.
    gt, pred = _own_points_files(tmp_path)
    (tmp_path / "folder").mkdir()
    (tmp_path / "c_overlay.svg").mkdir()  # where --svg c.svg would write its overlay
    before = sorted(tmp_path.rglob("*"))
    out, ok = tmp_path / "missing" / "out.txt", tmp_path / "ok.txt"
    if command == "eval --json to a directory":
        out = tmp_path / "folder"
    if command == "fit --svg with its overlay a directory":
        out = tmp_path / "c_overlay.svg"
    argv = {
        "generate": ["generate", "--seed", "1", "--out", str(out)],
        "eval --json": ["eval", "--gt", str(gt), "--pred", str(pred), "--json", str(out)],
        "eval --json to a directory": ["eval", "--gt", str(gt), "--pred", str(pred),
                                       "--json", str(out)],
        "fit --trace": ["fit", str(gt), "--iterations", "2", "--trace", str(out),
                        "--svg", str(ok)],
        "fit --svg": ["fit", str(gt), "--iterations", "2", "--svg", str(out)],
        "fit --svg after --trace": ["fit", str(gt), "--iterations", "2", "--trace", str(ok),
                                    "--svg", str(out)],
        "fit --svg with its overlay a directory": ["fit", str(gt), "--iterations", "3",
                                                   "--svg", str(tmp_path / "c.svg"),
                                                   "--trace", str(ok)],
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(out) in captured.err and "not a file in an existing directory" in captured.err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command, where", [("eval", "gt"), ("eval", "pred"), ("match", "gt"), ("match", "pred"),
                       ("fit", "gt")]
)
def test_overflowing_range_extent_names_file(tmp_path, capsys, command, where):
    # Finite bounds 2e308 apart: the extent overflows to inf, which would
    # normalize every point to 0 and score every match 0.
    gt, pred = _own_points_files(tmp_path)
    bad = gt if where == "gt" else pred
    _set_range(bad, [-1e308, 1e308, -30, 30])
    argv = {"eval": ["eval", "--gt", str(gt), "--pred", str(pred)],
            "match": ["match", str(gt), str(pred)],
            "fit": ["fit", str(gt), "--iterations", "2"]}[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{bad}: scene range bounds and extent must be finite" in captured.err
