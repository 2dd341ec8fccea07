import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from vecmap.cli import main
from vecmap.scenegen import PerturbSpec, SceneSpec, generate_scene, perturb
from vecmap.sceneio import (
    SceneFormatError,
    read_predictions,
    read_scene,
    write_scene,
)


@pytest.fixture
def scene():
    return generate_scene(SceneSpec(seed=7))


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
        for a, b in zip(back, preds):
            np.testing.assert_allclose(a.points, b.points, atol=1e-7)
            np.testing.assert_allclose(a.scores, b.scores, atol=1e-9)

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

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = main(["eval", "--gt", str(tmp_path / "nope.scene"),
                     "--pred", str(tmp_path / "nope2.scene")])
        assert code == 1
        assert "nope.scene" in capsys.readouterr().err


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
