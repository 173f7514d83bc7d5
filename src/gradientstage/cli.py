"""Batch command-line surface: simulate, recover, correct, calibrate, align,
sequence, stimulus, report.

Exit codes: 0 success, 1 usage error, 2 data error. A JSON config file can
supply any flag's default; explicit flags win.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import alignment, calib, photometric, qp, sequencer, stage, stimulus
from .core import Condition, GradientImageSet, _image, _radiance, angular_error_map, histogram
from . import pfm


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _set_path(directory, prefix, cond: Condition) -> Path:
    return Path(directory) / f"{prefix}_{cond.value}.pfm"


def _load_set(directory, prefix, conditions) -> GradientImageSet:
    imgs = {}
    for cond in conditions:
        path = _set_path(directory, prefix, cond)
        if not path.exists():
            raise ValueError(f"missing condition: {cond.value} ({path})")
        imgs[cond] = pfm.read_image(path)
    return GradientImageSet(imgs)


def _check_simulate_values(args) -> None:
    """Reject, by flag name, values outside their range and values that
    would silently write empty images, skip the noise, or be ignored by the
    chosen renderer."""
    noise = {"--led-noise": args.led_noise, "--pixel-noise": args.pixel_noise}
    values = {"--radius": [] if args.radius is None else [args.radius], "--delta": args.delta,
              "--deltabar": args.deltabar, **{flag: [level] for flag, level in noise.items()}}
    for flag, vals in values.items():
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"{flag} must be finite")
    if args.radius is not None and args.radius <= 0:
        raise ValueError("--radius must be > 0")
    for flag, value in {"--albedo": args.albedo, "--vp": args.vp}.items():
        if not 0 <= value <= 1:  # NaN too
            raise ValueError(f"{flag} must lie in [0, 1]")
    for flag, level in noise.items():
        if level < 0:
            raise ValueError(f"{flag} must be >= 0")
    if args.leds > 0:
        changed = {"--vp": args.vp != 1, "--delta": any(args.delta), "--deltabar": any(args.deltabar)}
        renderer = "the analytic renderer (--leds 0)"
    else:
        changed = {"--quantize": args.quantize, "--led-noise": args.led_noise != 0}
        renderer = "an LED stage (--leds > 0)"
    for flag, is_set in changed.items():
        if is_set:
            raise ValueError(f"{flag} needs {renderer}")
    if args.quantization != stage.ILT_LEVELS and not args.quantize:
        raise ValueError("--quantization needs --quantize")
    if args.quantization < 2:
        raise ValueError("--quantization must be >= 2")


def _cmd_simulate(args) -> int:
    _check_simulate_values(args)
    size = args.size
    radius = 0.4 * min(size) if args.radius is None else args.radius
    maker = stage.make_sphere_scene if args.scene == "sphere" else stage.make_cylinder_scene
    normals = maker(size[0], size[1], radius).true_normals
    distortion = np.array(list(args.delta) + list(args.deltabar))
    scene = stage.SceneSpec(normals, args.albedo, args.vp, distortion)
    rng = np.random.default_rng(args.seed)
    conditions = [Condition(c) for c in args.conditions]
    light_stage = None
    led_gain = None
    if args.leds > 0:
        light_stage = stage.LightStage.from_directions(stage.stage_directions(args.leds))
    levels = args.quantization if args.quantize else None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if light_stage is not None:
        (out / "stage.json").write_text(light_stage.to_json())
    for cond in conditions:
        if light_stage is None:
            img = stage.render_lambert_analytic(scene, cond)
        else:
            if args.led_noise > 0:
                led_gain = 1.0 + args.led_noise * rng.standard_normal(len(light_stage.leds))
            img = stage.render_lambert_discrete(scene, light_stage, cond, levels, led_gain)
        if args.pixel_noise > 0:
            noisy = rng.standard_normal(img.shape)
            noisy *= args.pixel_noise
            noisy += 1.0
            noisy *= img.samples
            np.maximum(noisy, 0.0, out=noisy)
            img = _radiance(_image(noisy, img.mask))
        pfm.write_image(_set_path(out, args.prefix, cond), img)
        del img  # freed before the next render allocates its frame
    pfm.write_normal_map(out / "gt_normals.pfm", scene.true_normals)
    print(f"wrote {len(conditions)} condition images to {out}")
    return 0


METHOD_HELP = "ma | wilson | specular | minimal[:<base>[:dual]]"

# recovery method -> (conditions read, estimator); the estimators look up
# photometric's functions at call time, so wrapping them there takes effect
_METHODS = {
    "ma": (photometric.RATIO_SET, lambda s: photometric.recover_ma(s)),
    "wilson": (photometric.DIFFERENCE_SET, lambda s: photometric.recover_wilson(s)),
    "specular": (photometric.RATIO_SET, lambda s: photometric.recover_specular(s)[1]),
}


def _method(spec_str: str):
    """(conditions read, estimator) for a method spec; see METHOD_HELP."""
    name, *suffix = spec_str.split(":")
    if name == "minimal" and suffix[1:] in ([], ["dual"]):
        base = Condition(suffix[0]) if suffix else Condition.X
        dual = bool(suffix[1:])
        return photometric.minimal_set(base, dual), lambda s: photometric.recover_minimal(s, base, dual)
    if suffix or name not in _METHODS:
        raise UsageError(f"unknown method: {spec_str}")
    return _METHODS[name]


def _cmd_recover(args) -> int:
    conditions, recover = _method(args.method)
    nm = recover(_load_set(args.indir, args.prefix, conditions))
    out = Path(args.out)
    pfm.write_normal_map(out, nm)
    pfm.write_masked(out.with_name(out.stem + "_mag.pfm"), nm.magnitude, nm.mask)
    print(f"recovered normals ({args.method}) -> {out}")
    return 0


def _cmd_correct(args) -> int:
    _, recover = _method(args.init)
    imgset = _load_set(args.indir, args.prefix, Condition)  # the QP reads all seven
    init = recover(imgset)
    corrected, delta, delta_bar = qp.correct_normal_map(imgset, init)
    del imgset, init  # freed before the writes allocate their float32 buffers
    out = Path(args.out)
    pfm.write_normal_map(out, corrected)
    pfm.write_masked(args.delta_out or out.with_name(out.stem + "_delta.pfm"), delta, corrected.mask)
    pfm.write_masked(
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
            raise ValueError(f"{path}: expected {expected_cols} columns per row")
        rows.append(cells)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows)


def _cmd_calibrate_lights(args) -> int:
    intrinsics = calib.CameraIntrinsics.from_json(Path(args.k).read_text())
    limb = _read_xy_csv(args.limb, 2)
    conic = calib.fit_conic(limb)
    center, dist = calib.sphere_center(conic, intrinsics, args.radius, args.pair_tol)
    if args.highlights:
        rows = _read_xy_csv(args.highlights, 3)
        for i, led_id in enumerate(rows[:, 0], 1):
            if not (led_id.is_integer() and -(2**63) <= led_id < 2**63):
                raise ValueError(
                    f"{args.highlights}: data row {i}: LED id {led_id} is not a whole number in int64 range"
                )
        highlights = [(int(r[0]), (r[1], r[2])) for r in rows]
    else:
        if not args.images:
            raise UsageError("calibrate lights needs --highlights or --images")
        highlights = []
        names = sorted(name for name in os.listdir(args.images) if name.endswith(".pfm"))
        for i, name in enumerate(names):
            img = pfm.read_image(Path(args.images) / name)
            highlights.append((i, calib.detect_highlight_centroid(img, args.threshold, args.morph_radius)))
    lights = stage.LightStage([
        stage.LedRecord(led_id, calib.light_direction(xy, intrinsics, np.zeros(3), center, args.radius))
        for led_id, xy in highlights
    ])
    Path(args.out).write_text(lights.to_json())
    print(
        f"sphere center ({center[0]:.2f}, {center[1]:.2f}, {center[2]:.2f}) mm, "
        f"d={dist:.2f} mm; {len(lights.leds)} lights -> {args.out}"
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
    pfm.write_csv(out / "residuals.csv", ("iteration", "residual"), enumerate(residuals))
    if residuals:
        print(f"aligned pair {pair}: residual {residuals[0]:.4g} -> {residuals[-1]:.4g}")
    else:
        print(f"aligned pair {pair}: no completed iterations")
    return 0


def _cmd_sequence_plan(args) -> int:
    print(sequencer.image_count(args.n, args.method))
    if args.out:
        if args.method != "minimal":
            raise UsageError("sequence CSV output is defined for the minimal method")
        Path(args.out).write_text(sequencer.generate_sequence(args.n).to_csv())
    return 0


def _cmd_sequence_process(args) -> int:
    directory = Path(args.dir)
    seq_path = directory / "seq.csv"
    if not seq_path.exists():
        raise ValueError(f"missing sequence file {seq_path}")
    seq = sequencer.CaptureSequence.from_csv(seq_path.read_text())
    frames = []
    for i in range(len(seq.frames)):
        path = directory / f"frame_{i:03d}.pfm"
        if not path.exists():
            raise ValueError(f"missing frame image {path}")
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
    shape_img = stimulus.shape_only(nm, np.asarray(args.l1), np.asarray(args.l2))
    texture = stimulus.texture_only(texture_img)
    combo = stimulus.combined(shape_img, texture)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, img in [("shape", shape_img), ("texture", texture), ("combined", combo)]:
        pfm.write_png(out / f"{name}.png", img.samples)
        pfm.write_image(out / f"{name}.pfm", img)
    print(f"stimulus images -> {out}")
    return 0


def _cmd_report(args) -> int:
    a = pfm.read_normal_map(args.a)
    b = pfm.read_normal_map(args.b)
    err = angular_error_map(a, b)
    if not err.mask.any():
        raise ValueError("no jointly valid pixels")
    bins = histogram(err, args.bin_width)
    pfm.write_csv(args.out, ("bin_center", "count"), bins)
    vals = err.samples[err.mask]
    print(f"angular error: mean {vals.mean():.4f} deg, max {vals.max():.4f} deg -> {args.out}")
    return 0


def _config_parser() -> _Parser:
    """The top-level options; `run` reads them before building the rest."""
    parser = _Parser(add_help=False, allow_abbrev=False)
    parser.add_argument("--config", help="JSON file of flag defaults")
    return parser


def build_parser() -> tuple[_Parser, list[argparse.ArgumentParser]]:
    parser = _Parser(
        prog="gradientstage", description=__doc__, parents=[_config_parser()], allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="command", required=True)
    all_parsers = []

    def add(subparsers, name, func, summary):
        """A subcommand parser that runs func; `_parse` applies --config to it."""
        p = subparsers.add_parser(name, help=summary)
        p.set_defaults(func=func)
        all_parsers.append(p)
        return p

    p = add(sub, "simulate", _cmd_simulate, "render a synthetic gradient image set")
    p.add_argument("--scene", choices=["sphere", "cylinder"], default="sphere")
    p.add_argument("--size", type=int, nargs=2, default=[128, 128], metavar=("W", "H"))
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--albedo", type=float, default=1.0)
    p.add_argument("--vp", type=float, default=1.0)
    p.add_argument("--delta", type=float, nargs=3, default=[0.0, 0.0, 0.0])
    p.add_argument("--deltabar", type=float, nargs=3, default=[0.0, 0.0, 0.0])
    p.add_argument("--leds", type=int, default=0, help="0 = analytic; else 12/42/162/642/41")
    p.add_argument("--quantization", type=int, default=stage.ILT_LEVELS)
    p.add_argument("--quantize", action="store_true", help="apply ILT quantization")
    p.add_argument("--led-noise", type=float, default=0.0)
    p.add_argument("--pixel-noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--conditions", nargs="+", default=[c.value for c in Condition])
    p.add_argument("--prefix", default="grad")
    p.add_argument("--out", required=True)

    p = add(sub, "recover", _cmd_recover, "recover normals from a gradient image set")
    p.add_argument("--method", default="wilson", help=METHOD_HELP)
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--prefix", default="grad")
    p.add_argument("--out", required=True)

    p = add(sub, "correct", _cmd_correct, "QP-correct a recovered normal map")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--prefix", default="grad")
    p.add_argument("--init", default="wilson", help=METHOD_HELP)
    p.add_argument("--out", required=True)
    p.add_argument("--delta-out", default=None)
    p.add_argument("--deltabar-out", default=None)

    cal = sub.add_parser("calibrate", help="mirror-ball and beam-splitter calibration")
    calsub = cal.add_subparsers(dest="calibrate_command", required=True)
    p = add(calsub, "lights", _cmd_calibrate_lights, "light directions from mirror-ball highlights")
    p.add_argument("--k", required=True, help="camera intrinsics JSON")
    p.add_argument("--radius", type=float, required=True, help="mirror ball radius, mm")
    p.add_argument("--limb", required=True, help="CSV of limb points x,y")
    p.add_argument("--highlights", default=None, help="CSV of id,x,y highlight centroids")
    p.add_argument("--images", default=None, help="directory of per-LED PFM images")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--morph-radius", type=int, default=2)
    p.add_argument("--pair-tol", type=float, default=calib.PAIR_TOL)
    p.add_argument("--out", required=True)
    p = add(calsub, "homography", _cmd_calibrate_homography, "DLT + Sampson homography from correspondences")
    p.add_argument("--pairs", required=True, help="CSV of x0,y0,x1,y1")
    p.add_argument("--no-refine", action="store_true")
    p.add_argument("--out", required=True)
    p = add(calsub, "separate", _cmd_calibrate_separate, "diffuse/specular separation of cross-polarized images")
    p.add_argument("--i0", required=True)
    p.add_argument("--i1", required=True)
    p.add_argument("--homography", default=None)
    p.add_argument("--out-specular", required=True)
    p.add_argument("--out-diffuse", required=True)

    p = add(sub, "align", _cmd_align, "joint photometric alignment of a complement pair")
    p.add_argument("--pair", default="x")
    p.add_argument("--frames", nargs=3, required=True, metavar=("G", "GBAR", "C"))
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--alpha", type=float, default=alignment.FlowParams.alpha)
    p.add_argument("--out", required=True)

    seq = sub.add_parser("sequence", help="capture sequence planning and processing")
    seqsub = seq.add_subparsers(dest="sequence_command", required=True)
    p = add(seqsub, "plan", _cmd_sequence_plan, "print the image count; optionally write the sequence CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=["wilson", "minimal"], default="minimal")
    p.add_argument("--out", default=None)
    p = add(seqsub, "process", _cmd_sequence_process, "process a captured sequence directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--out", required=True)

    p = add(sub, "stimulus", _cmd_stimulus, "shape/texture/combined stimulus images")
    p.add_argument("--normals", required=True)
    p.add_argument("--texture", required=True)
    p.add_argument("--l1", type=float, nargs=3, default=list(stimulus.DEFAULT_LIGHT_1))
    p.add_argument("--l2", type=float, nargs=3, default=list(stimulus.DEFAULT_LIGHT_2))
    p.add_argument("--out", required=True)

    p = add(sub, "report", _cmd_report, "angular-error histogram between two normal maps")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--bin-width", type=float, default=1.0)
    p.add_argument("--out", required=True)

    return parser, all_parsers


def _parse(argv) -> argparse.Namespace:
    """Parse argv; a --config file supplies flag defaults, explicit flags win."""
    parser, subparsers = build_parser()
    cfg_path = _config_parser().parse_known_args(argv)[0].config
    if cfg_path is not None:
        try:
            config = json.loads(Path(cfg_path).read_text())
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read config: {exc}") from exc
        if not isinstance(config, dict):
            raise ValueError("config must be a JSON object of flag defaults")
        # a key of any command is a shared default; one of none is a typo
        defined = {a.dest for p in (parser, *subparsers) for a in p._actions}
        unknown = sorted(set(config) - defined)
        if unknown:
            raise UsageError(f"config key defined by no command: {', '.join(unknown)}")
        for p in subparsers:
            for action in p._actions:
                if action.dest in config:
                    action.required = False
            known = {a.dest for a in p._actions}
            p.set_defaults(**{k: v for k, v in config.items() if k in known})
    return parser.parse_args(argv)


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
