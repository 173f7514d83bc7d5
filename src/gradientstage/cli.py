"""Batch command-line surface: simulate, recover, correct, calibrate, align,
sequence, stimulus, report.

Exit codes: 0 success, 1 usage error, 2 data error. A JSON config file can
supply any flag's default; explicit flags win.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import alignment, calib, photometric, qp, sequencer, stage, stimulus
from .core import Condition, GradientImageSet, Image, angular_error_map, histogram
from . import pfm


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


CONDITION_SUFFIX = {c: c.value for c in Condition}


def _set_path(directory, prefix, cond: Condition) -> Path:
    return Path(directory) / f"{prefix}_{CONDITION_SUFFIX[cond]}.pfm"


def _load_set(directory, prefix, conditions) -> GradientImageSet:
    imgs = {}
    for cond in conditions:
        path = _set_path(directory, prefix, cond)
        if not path.exists():
            raise DataError(f"missing condition: {cond.value} ({path})")
        imgs[cond] = pfm.read_image(path)
    return GradientImageSet(imgs)


def _stage_for(led_count: int, quantization: int) -> stage.LightStage:
    by_count = {12: 0, 42: 1, 162: 2, 642: 3}
    if led_count in by_count:
        dirs = stage.generate_icosphere_directions(by_count[led_count])
    elif led_count == 41:
        dirs = stage.select_hemisphere(
            stage.generate_icosphere_directions(2), (0, 0, 1), 41
        )
    else:
        raise DataError(
            f"unsupported LED count {led_count}; use 12, 42, 162, 642 (icosphere) or 41 (hemisphere)"
        )
    return stage.LightStage.from_directions(dirs, quantization_levels=quantization)


def _cmd_simulate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    size = args.size
    radius = args.radius if args.radius else 0.4 * min(size)
    maker = stage.make_sphere_scene if args.scene == "sphere" else stage.make_cylinder_scene
    scene = maker(size[0], size[1], radius, albedo=args.albedo)
    distortion = np.array(list(args.delta) + list(args.deltabar))
    scene = stage.SceneSpec(scene.true_normals, args.albedo, args.vp, distortion)
    rng = np.random.default_rng(args.seed)
    conditions = [Condition(c) for c in args.conditions]
    light_stage = None
    led_gain = None
    if args.leds > 0:
        light_stage = _stage_for(args.leds, args.quantization)
        (out / "stage.json").write_text(light_stage.to_json())
    for cond in conditions:
        if light_stage is None:
            img = stage.render_lambert_analytic(scene, cond)
        else:
            if args.led_noise > 0:
                led_gain = 1.0 + args.led_noise * rng.standard_normal(len(light_stage.leds))
            img = stage.render_lambert_discrete(
                scene, light_stage, cond, quantize=args.quantize, led_gain=led_gain
            )
        if args.pixel_noise > 0:
            noisy = img.samples * (1.0 + args.pixel_noise * rng.standard_normal(img.shape))
            img = Image(np.where(img.mask, np.maximum(noisy, 0.0), 0.0), img.mask)
        pfm.write_image(_set_path(out, args.prefix, cond), img)
    pfm.write_normal_map(out / "gt_normals.pfm", scene.true_normals)
    print(f"wrote {len(conditions)} condition images to {out}")
    return 0


METHOD_HELP = "ma | wilson | specular | minimal[:<base>[:dual]]"

# recovery method -> (conditions read, estimator); the estimators look up
# photometric's functions at call time, so wrapping them there takes effect
_XYZC = [Condition.X, Condition.Y, Condition.Z, Condition.C]
_METHODS = {
    "ma": (_XYZC, lambda s: photometric.recover_ma(s)),
    "wilson": ([*photometric.GRADIENTS, *photometric.COMPLEMENTS], lambda s: photometric.recover_wilson(s)),
    "specular": (_XYZC, lambda s: photometric.recover_specular(s)[1]),
}


def _method(spec_str: str):
    """(conditions read, estimator) for a method spec; see METHOD_HELP."""
    name, *suffix = spec_str.split(":")
    if name == "minimal" and suffix[1:] in ([], ["dual"]):
        base = Condition(suffix[0]) if suffix else Condition.X
        dual = bool(suffix[1:])
        if dual:
            conditions = [*photometric.COMPLEMENTS, base]
        else:
            conditions = [*photometric.GRADIENTS, base.complement]
        return conditions, lambda s: photometric.recover_minimal(s, base, dual)
    if suffix or name not in _METHODS:
        raise UsageError(f"unknown method: {spec_str}")
    return _METHODS[name]


def _cmd_recover(args) -> int:
    conditions, recover = _method(args.method)
    nm = recover(_load_set(args.indir, args.prefix, conditions))
    out = Path(args.out)
    pfm.write_normal_map(out, nm)
    pfm.write_image(out.with_name(out.stem + "_mag.pfm"), Image(nm.magnitude, nm.mask))
    print(f"recovered normals ({args.method}) -> {out}")
    return 0


def _cmd_correct(args) -> int:
    _, recover = _method(args.init)
    conditions = [*photometric.GRADIENTS, *photometric.COMPLEMENTS, Condition.C]
    imgset = _load_set(args.indir, args.prefix, conditions)
    init = recover(imgset)
    corrected, delta, delta_bar = qp.correct_normal_map(imgset, init)
    out = Path(args.out)
    pfm.write_normal_map(out, corrected)
    pfm.write_float3(args.delta_out or out.with_name(out.stem + "_delta.pfm"), delta, corrected.mask)
    pfm.write_float3(
        args.deltabar_out or out.with_name(out.stem + "_deltabar.pfm"), delta_bar, corrected.mask
    )
    print(f"corrected normals (init={args.init}) -> {out}")
    return 0


def _parses_as_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _read_xy_csv(path, expected_cols: int):
    rows = []
    with open(path, "r", encoding="ascii") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    start = 1 if lines and not any(map(_parses_as_float, lines[0].split(","))) else 0  # header
    for ln in lines[start:]:
        cells = [float(x) for x in ln.split(",")]
        if len(cells) != expected_cols:
            raise DataError(f"{path}: expected {expected_cols} columns per row")
        rows.append(cells)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.asarray(rows)


def _cmd_calibrate_lights(args) -> int:
    intrinsics = calib.CameraIntrinsics.from_json(Path(args.k).read_text())
    limb = _read_xy_csv(args.limb, 2)
    conic, _ = calib.fit_conic(limb)
    center, dist = calib.sphere_center(conic, intrinsics, args.radius, args.pair_tol)
    if args.highlights:
        rows = _read_xy_csv(args.highlights, 3)
        highlights = [(int(r[0]), (r[1], r[2])) for r in rows]
    else:
        if not args.images:
            raise UsageError("calibrate lights needs --highlights or --images")
        highlights = []
        for i, name in enumerate(sorted(os.listdir(args.images))):
            if not name.endswith(".pfm"):
                continue
            img = pfm.read_image(Path(args.images) / name)
            highlights.append((i, calib.detect_highlight_centroid(img, args.threshold, args.morph_radius)))
    lights = []
    for led_id, (hx, hy) in highlights:
        direction = calib.light_direction((hx, hy), intrinsics, np.zeros(3), center, args.radius)
        lights.append({"id": led_id, "lx": direction[0], "ly": direction[1], "lz": direction[2]})
    Path(args.out).write_text(json.dumps(lights, indent=1))
    print(
        f"sphere center ({center[0]:.2f}, {center[1]:.2f}, {center[2]:.2f}) mm, "
        f"d={dist:.2f} mm; {len(lights)} lights -> {args.out}"
    )
    return 0


def _cmd_calibrate_homography(args) -> int:
    pairs = _read_xy_csv(args.pairs, 4)
    src, dst = pairs[:, :2], pairs[:, 2:]
    h, dlt_err = calib.estimate_homography_dlt(src, dst)
    print(f"DLT mean symmetric transfer error: {dlt_err:.6g} px")
    if not args.no_refine:
        before = calib.sampson_error(h, src, dst)
        h = calib.refine_sampson(h, src, dst)
        after = calib.sampson_error(h, src, dst)
        print(f"Sampson error: {before:.6g} -> {after:.6g}")
    Path(args.out).write_text(h.to_json())
    return 0


def _cmd_calibrate_separate(args) -> int:
    i0 = pfm.read_image(args.i0)
    i1 = pfm.read_image(args.i1)
    if args.homography:
        h = calib.Homography.from_json(Path(args.homography).read_text())
        i0 = calib.warp_by_homography(i0, h)
    result = calib.separate_reflectance(i0, i1)
    pfm.write_image(args.out_specular, result.specular)
    pfm.write_image(args.out_diffuse, result.diffuse)
    print(f"separated; {result.clamp_count} negative specular pixels clamped")
    return 0


def _cmd_align(args) -> int:
    g = pfm.read_image(args.frames[0])
    gbar = pfm.read_image(args.frames[1])
    c = pfm.read_image(args.frames[2])
    params = alignment.FlowParams(alpha=args.alpha)
    u, v, residuals = alignment.joint_photometric_align(g, gbar, c, args.iters, params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pair = args.pair
    pfm.write_flow(out / f"flow_{pair}_u.pfm", u)
    pfm.write_flow(out / f"flow_{pair}_v.pfm", v)
    with open(out / "residuals.csv", "w", encoding="ascii") as f:
        f.write("iteration,residual\n")
        for i, r in enumerate(residuals):
            f.write(f"{i},{r}\n")
    if residuals:
        print(f"aligned pair {pair}: residual {residuals[0]:.4g} -> {residuals[-1]:.4g}")
    else:
        print(f"aligned pair {pair}: no completed iterations")
    return 0


def _cmd_sequence_plan(args) -> int:
    seq = sequencer.generate_sequence(args.n)
    total = sequencer.image_count(args.n, args.method)
    print(total)
    if args.out:
        if args.method != "minimal":
            raise UsageError("sequence CSV output is defined for the minimal method")
        Path(args.out).write_text(seq.to_csv())
    return 0


def _cmd_sequence_process(args) -> int:
    directory = Path(args.dir)
    seq_path = directory / "seq.csv"
    if not seq_path.exists():
        raise DataError(f"missing sequence file {seq_path}")
    seq = sequencer.CaptureSequence.from_csv(seq_path.read_text())
    frames = []
    for i in range(len(seq.frames)):
        path = directory / f"frame_{i:03d}.pfm"
        if not path.exists():
            raise DataError(f"missing frame image {path}")
        frames.append(pfm.read_image(path))
    result = sequencer.process_sequence(seq, frames, iterations=args.iters)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for idx, nm in sorted({**result.upsampled, **result.tracking}.items()):
        pfm.write_normal_map(out / f"normal_{idx:03d}.pfm", nm)
    print(
        f"processed {len(result.tracking)} tracking frames, "
        f"{len(result.upsampled)} upsampled frames -> {out}"
    )
    return 0


def _cmd_stimulus(args) -> int:
    nm = pfm.read_normal_map(args.normals)
    texture_img = pfm.read_image(args.texture)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    shape_img = stimulus.shape_only(nm, np.asarray(args.l1), np.asarray(args.l2))
    texture = stimulus.texture_only(texture_img)
    combo = stimulus.combined(shape_img, texture)
    for name, img in [("shape", shape_img), ("texture", texture), ("combined", combo)]:
        pfm.write_png(out / f"{name}.png", np.where(img.mask, img.samples, 0.0))
        pfm.write_image(out / f"{name}.pfm", img)
    print(f"stimulus images -> {out}")
    return 0


def _cmd_report(args) -> int:
    a = pfm.read_normal_map(args.a)
    b = pfm.read_normal_map(args.b)
    err = angular_error_map(a, b)
    bins = histogram(err, args.bin_width)
    pfm.write_histogram_csv(args.out, bins)
    vals = err.samples[err.mask]
    print(f"angular error: mean {vals.mean():.4f} deg, max {vals.max():.4f} deg -> {args.out}")
    return 0


def build_parser() -> tuple[_Parser, list[argparse.ArgumentParser]]:
    parser = _Parser(prog="gradientstage", description=__doc__)
    parser.add_argument("--config", help="JSON file of flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    all_parsers = []

    p = sub.add_parser("simulate", help="render a synthetic gradient image set")
    p.add_argument("--scene", choices=["sphere", "cylinder"], default="sphere")
    p.add_argument("--size", type=int, nargs=2, default=[128, 128], metavar=("W", "H"))
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--albedo", type=float, default=1.0)
    p.add_argument("--vp", type=float, default=1.0)
    p.add_argument("--delta", type=float, nargs=3, default=[0.0, 0.0, 0.0])
    p.add_argument("--deltabar", type=float, nargs=3, default=[0.0, 0.0, 0.0])
    p.add_argument("--leds", type=int, default=0, help="0 = analytic; else 12/42/162/642/41")
    p.add_argument("--quantization", type=int, default=4096)
    p.add_argument("--quantize", action="store_true", help="apply ILT quantization")
    p.add_argument("--led-noise", type=float, default=0.0)
    p.add_argument("--pixel-noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--conditions", nargs="+", default=[c.value for c in Condition])
    p.add_argument("--prefix", default="grad")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)
    all_parsers.append(p)

    p = sub.add_parser("recover", help="recover normals from a gradient image set")
    p.add_argument("--method", default="wilson", help=METHOD_HELP)
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--prefix", default="grad")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_recover)
    all_parsers.append(p)

    p = sub.add_parser("correct", help="QP-correct a recovered normal map")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--prefix", default="grad")
    p.add_argument("--init", default="wilson", help=METHOD_HELP)
    p.add_argument("--out", required=True)
    p.add_argument("--delta-out", default=None)
    p.add_argument("--deltabar-out", default=None)
    p.set_defaults(func=_cmd_correct)
    all_parsers.append(p)

    cal = sub.add_parser("calibrate", help="mirror-ball and beam-splitter calibration")
    calsub = cal.add_subparsers(dest="calibrate_command", required=True)
    p = calsub.add_parser("lights", help="light directions from mirror-ball highlights")
    p.add_argument("--k", required=True, help="camera intrinsics JSON")
    p.add_argument("--radius", type=float, required=True, help="mirror ball radius, mm")
    p.add_argument("--limb", required=True, help="CSV of limb points x,y")
    p.add_argument("--highlights", default=None, help="CSV of id,x,y highlight centroids")
    p.add_argument("--images", default=None, help="directory of per-LED PFM images")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--morph-radius", type=int, default=2)
    p.add_argument("--pair-tol", type=float, default=1e-3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_calibrate_lights)
    all_parsers.append(p)
    p = calsub.add_parser("homography", help="DLT + Sampson homography from correspondences")
    p.add_argument("--pairs", required=True, help="CSV of x0,y0,x1,y1")
    p.add_argument("--no-refine", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_calibrate_homography)
    all_parsers.append(p)
    p = calsub.add_parser("separate", help="diffuse/specular separation of cross-polarized images")
    p.add_argument("--i0", required=True)
    p.add_argument("--i1", required=True)
    p.add_argument("--homography", default=None)
    p.add_argument("--out-specular", required=True)
    p.add_argument("--out-diffuse", required=True)
    p.set_defaults(func=_cmd_calibrate_separate)
    all_parsers.append(p)

    p = sub.add_parser("align", help="joint photometric alignment of a complement pair")
    p.add_argument("--pair", default="x")
    p.add_argument("--frames", nargs=3, required=True, metavar=("G", "GBAR", "C"))
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_align)
    all_parsers.append(p)

    seq = sub.add_parser("sequence", help="capture sequence planning and processing")
    seqsub = seq.add_subparsers(dest="sequence_command", required=True)
    p = seqsub.add_parser("plan", help="print the image count; optionally write the sequence CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=["wilson", "minimal"], default="minimal")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sequence_plan)
    all_parsers.append(p)
    p = seqsub.add_parser("process", help="process a captured sequence directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sequence_process)
    all_parsers.append(p)

    p = sub.add_parser("stimulus", help="shape/texture/combined stimulus images")
    p.add_argument("--normals", required=True)
    p.add_argument("--texture", required=True)
    p.add_argument("--l1", type=float, nargs=3, default=list(stimulus.DEFAULT_LIGHT_1))
    p.add_argument("--l2", type=float, nargs=3, default=list(stimulus.DEFAULT_LIGHT_2))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stimulus)
    all_parsers.append(p)

    p = sub.add_parser("report", help="angular-error histogram between two normal maps")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--bin-width", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)
    all_parsers.append(p)

    return parser, all_parsers


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    # config file provides defaults; explicit flags override
    if "--config" in argv:
        cfg_path = argv[argv.index("--config") + 1]
        try:
            config = json.loads(Path(cfg_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
        for p in subparsers:
            for action in p._actions:
                if action.dest in config:
                    action.required = False
            known = {a.dest for a in p._actions}
            p.set_defaults(**{k: v for k, v in config.items() if k in known})
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
