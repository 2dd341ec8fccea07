"""Command-line surface: generate / eval / match / fit.

Exit codes: 0 success, 1 input error (bad flags or malformed files),
2 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .fitter import FitConfig, FitMode, fit, trace_table
from .geometry import ElementClass
from .matching import hierarchical_match
from .metrics import APConfig, APReport, evaluate_ap
from .scenegen import SceneSpec, generate_scene
from .sceneio import SceneFormatError, read_predictions, read_scene, write_scene
from .svgplot import convergence_svg, scene_overlay_svg

_CLASS_LABELS = {
    ElementClass.PED_CROSSING: "ped_crossing",
    ElementClass.DIVIDER: "divider",
    ElementClass.BOUNDARY: "boundary",
}


class _Parser(argparse.ArgumentParser):
    # Usage problems are input errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _nonnegative(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vecmap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a seeded ground-truth scene file")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--ped", type=_nonnegative, default=2)
    gen.add_argument("--divider", type=_nonnegative, default=3)
    gen.add_argument("--boundary", type=_nonnegative, default=2)
    gen.add_argument("--n-points", type=int, default=20)
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
    ft.add_argument("--iterations", type=int, default=500)
    ft.add_argument("--seed", type=int, default=0)
    ft.add_argument("--trace", help="write the loss trace table here")
    ft.add_argument("--svg", help="write convergence + overlay SVGs (path prefix)")
    return parser


def _report_lines(report: APReport, cfg: APConfig) -> list[str]:
    lines = [f"{'class':<14}{'tau':>6}{'AP':>10}"]
    for cls in ElementClass:
        for tau in cfg.thresholds:
            ap = report.per_class_per_threshold[(cls, tau)]
            lines.append(f"{_CLASS_LABELS[cls]:<14}{tau:>6.1f}{ap:>10.3f}")
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
    scene = generate_scene(spec)
    try:
        write_scene(args.out, scene)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_eval(args) -> int:
    if len(args.gt) != len(args.pred):
        print("--gt and --pred need the same number of files", file=sys.stderr)
        return 1
    gt_scenes = [read_scene(p) for p in args.gt]
    pred_scenes = [read_predictions(p)[1] for p in args.pred]
    cfg = APConfig()
    report = evaluate_ap(pred_scenes, [list(s.elements) for s in gt_scenes], cfg,
                         gt_scenes[0].range)
    print("\n".join(_report_lines(report, cfg)))
    if args.json_out:
        doc = {
            "per_class_per_threshold": [
                {"class": _CLASS_LABELS[cls], "tau": tau, "ap": ap}
                for (cls, tau), ap in report.per_class_per_threshold.items()
            ],
            "per_class_ap": {
                _CLASS_LABELS[cls]: ap for cls, ap in report.per_class_ap.items()
            },
            "map": report.mean_ap,
        }
        Path(args.json_out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def cmd_match(args) -> int:
    gt_scene = read_scene(args.gt)
    _, preds = read_predictions(args.pred)
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
            f"{p:>5} {g:>4} {_CLASS_LABELS[gt_scene.elements[g].element_class]:<14}"
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
        traces[mode] = fit(gt_scene, cfg)

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
        base = Path(args.svg)
        base.write_text(convergence_svg(curves))
        overlay = base.with_name(base.stem + "_overlay" + base.suffix)
        overlay.write_text(scene_overlay_svg(gt_scene, last.final_predictions))
    return 0


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
        return handlers[args.command](args)
    except (SceneFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
