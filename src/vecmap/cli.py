"""Command-line surface: generate / eval / match / fit.

Exit codes: 0 success, 1 input error (bad flags, malformed files, or an
output file that cannot be written), 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from ._kernels import BACKEND as KERNEL_BACKEND, ISA as KERNEL_ISA
from .fitter import FitConfig, FitMode, fit, trace_table
from .geometry import ElementClass
from .matching import PredictedElement, hierarchical_match
from .metrics import APConfig, APReport, evaluate_ap
from .scenegen import SceneSpec, generate_scene
from .sceneio import CLASS_NAMES, SceneFormatError, read_ground_truth, read_predictions
from .sceneio import read_scene, write_scene
from .svgplot import convergence_svg, scene_overlay_svg


class _Parser(argparse.ArgumentParser):
    # Usage problems are input errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _at_least(low: int):
    """An argparse type: an int >= ``low``, else an error naming the flag."""

    def parse(value: str) -> int:
        n = int(value)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return n

    return parse


_nonnegative, _positive = _at_least(0), _at_least(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vecmap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a seeded ground-truth scene file")
    gen.add_argument("--seed", type=_nonnegative, required=True)
    gen.add_argument("--ped", type=_nonnegative, default=2)
    gen.add_argument("--divider", type=_nonnegative, default=3)
    gen.add_argument("--boundary", type=_nonnegative, default=2)
    gen.add_argument("--n-points", type=_at_least(2), default=20)
    gen.add_argument("--out", required=True)

    ev = sub.add_parser("eval", help="Chamfer-AP report for prediction files")
    ev.add_argument("--gt", nargs="+", required=True)
    ev.add_argument("--pred", nargs="+", required=True)
    ev.add_argument("--json", dest="json_out", help="also write a machine-readable report")

    mt = sub.add_parser("match", help="dump the hierarchical assignment")
    mt.add_argument("gt")
    mt.add_argument("pred")

    ft = sub.add_parser("fit", help="fit prediction slots to a scene")
    ft.add_argument("gt")
    ft.add_argument("--mode", choices=["perm", "fixed", "both"], default="perm")
    ft.add_argument("--iterations", type=_positive, default=500)
    ft.add_argument("--seed", type=_nonnegative, default=0)
    ft.add_argument("--trace", help="write the loss trace table here")
    ft.add_argument("--svg", help="write convergence + overlay SVGs (path prefix)")
    return parser


def _report_lines(report: APReport, cfg: APConfig) -> list[str]:
    lines = [f"{'class':<14}{'tau':>6}{'AP':>10}"]
    for cls in ElementClass:
        for tau in cfg.thresholds:
            ap = report.per_class_per_threshold[(cls, tau)]
            lines.append(f"{CLASS_NAMES[cls]:<14}{tau:>6.1f}{ap:>10.3f}")
    lines.append(f"mAP {report.mean_ap:.3f}")
    return lines


def cmd_generate(args) -> int:
    spec = SceneSpec(
        seed=args.seed,
        n_ped=args.ped,
        n_divider=args.divider,
        n_boundary=args.boundary,
        n_points=args.n_points,
    )
    write_scene(args.out, generate_scene(spec))
    return 0


def _check_range(path, scene_range, ref_path, ref_range) -> None:
    """Reject a file whose meta.range differs from the file it is used with."""
    if scene_range != ref_range:
        raise SceneFormatError(
            path, f"meta.range {scene_range} differs from {ref_path}'s {ref_range}"
        )


def cmd_eval(args) -> int:
    if len(args.gt) != len(args.pred):
        print("--gt and --pred need the same number of files", file=sys.stderr)
        return 1
    gts = [read_ground_truth(p) for p in args.gt]
    preds = [read_predictions(p) for p in args.pred]
    # Predictions are mapped back to meters with their ground truth's range.
    for gt_path, (gt_range, _), pred_path, (pred_range, _) in zip(args.gt, gts, args.pred, preds):
        _check_range(pred_path, pred_range, gt_path, gt_range)
    cfg = APConfig()
    report = evaluate_ap([p for _, p in preds], [g for _, g in gts], cfg, [r for r, _ in gts])
    print("\n".join(_report_lines(report, cfg)))
    if args.json_out:
        doc = {
            "per_class_per_threshold": [
                {"class": CLASS_NAMES[cls], "tau": tau, "ap": ap,
                 **asdict(report.counts[(cls, tau)])}
                for (cls, tau), ap in report.per_class_per_threshold.items()
            ],
            "per_class_ap": {
                CLASS_NAMES[cls]: ap for cls, ap in report.per_class_ap.items()
            },
            "map": report.mean_ap,
            "kernel_backend": KERNEL_BACKEND,
            "kernel_isa": KERNEL_ISA,
        }
        Path(args.json_out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def cmd_match(args) -> int:
    gt_scene = read_scene(args.gt)
    pred_range, arrays = read_predictions(args.pred)
    _check_range(args.pred, pred_range, args.gt, gt_scene.range)
    preds = [
        PredictedElement(scores=s, points=p) for p, s in zip(arrays.points, arrays.scores)
    ]
    gts_norm = [el.normalized(gt_scene.range) for el in gt_scene.elements]
    try:
        match = hierarchical_match(preds, gts_norm)
    except ValueError as exc:
        raise ValueError(f"{args.pred}: {exc}") from exc
    print(f"{'pred':>5} {'gt':>4} {'class':<14}{'direction':<10}{'offset':>6} {'cost':>12}")
    for pair in match.instance.pairs:
        p, g = pair
        pa = match.point_level[pair]
        print(
            f"{p:>5} {g:>4} {CLASS_NAMES[gt_scene.elements[g].element_class]:<14}"
            f"{pa.perm.direction.value:<10}{pa.perm.offset:>6} {pa.cost:>12.6f}"
        )
    matched = {p for p, _ in match.instance.pairs}
    unmatched = [i for i in range(len(preds)) if i not in matched]
    print(f"unmatched predictions: {len(unmatched)}")
    return 0


def cmd_fit(args) -> int:
    gt_scene = read_scene(args.gt)
    modes = {
        "perm": [FitMode.PERMUTATION_EQUIVALENT],
        "fixed": [FitMode.FIXED_ORDER],
        "both": [FitMode.PERMUTATION_EQUIVALENT, FitMode.FIXED_ORDER],
    }[args.mode]
    traces = {}
    for mode in modes:
        cfg = FitConfig(mode=mode, iterations=args.iterations, seed=args.seed)
        try:
            traces[mode] = fit(gt_scene, cfg)
        except ValueError as exc:
            raise ValueError(f"{args.gt}: {exc}") from exc

    last = traces[modes[-1]]
    if args.trace:
        Path(args.trace).write_text(trace_table(last))
    for mode, tr in traces.items():
        final = tr.losses[-1]
        print(
            f"{mode.value}: final total {final.total:.6f} "
            f"(cls {final.cls:.6f} p2p {final.p2p:.6f} dir {final.dir:.6f}) "
            f"mAP {tr.final_report.mean_ap:.3f}"
        )
    if args.svg:
        curves = {m.value: [b.total for b in tr.losses] for m, tr in traces.items()}
        Path(args.svg).write_text(convergence_svg(curves))
        _overlay_path(args.svg).write_text(scene_overlay_svg(gt_scene, last.final_predictions))
    return 0


def _overlay_path(svg) -> Path:
    """Where ``fit --svg`` writes its overlay, beside the convergence SVG.
    Never raises, so that ``main`` can check ``svg`` itself first."""
    base = Path(svg)
    return base.parent / (base.stem + "_overlay" + base.suffix)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    handlers = {
        "generate": cmd_generate,
        "eval": cmd_eval,
        "match": cmd_match,
        "fit": cmd_fit,
    }
    try:
        # Output paths are checked before any work, so that none leaves partial output.
        outputs = [getattr(args, k, None) for k in ("out", "json_out", "trace")]
        svg = getattr(args, "svg", None)
        for path in filter(None, [*outputs, svg, svg and _overlay_path(svg)]):
            if Path(path).is_dir() or not Path(path).parent.is_dir():
                raise ValueError(f"cannot write {path}: not a file in an existing directory")
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:  # SceneFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
