"""Batch command-line surface: simulate, recover, correct, calibrate, align,
sequence, stimulus, report.

Exit codes: 0 success, 1 usage error, 2 data error. A JSON config file can
supply any flag's default; explicit flags win.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
import types
from pathlib import Path

import numpy as np

from . import alignment, calib, photometric, qp, sequencer, stage, stimulus
from .core import GRADIENTS, Condition, GradientImageSet, _image, _radiance, angular_error_map, histogram
from . import pfm


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises UsageError, and takes each token that float() reads, such as
    -1e-3, -inf or -nan, for a value: argparse's own pattern matches only
    -1 and -.5, so it read the others as unknown options."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse only calls .match on it
        self._negative_number_matcher = types.SimpleNamespace(match=_parses_as_float)

    def error(self, message):
        raise UsageError(message)


def _naming(exc, names):
    """An OSError or ValueError, as exc is, whose message names each output
    where exc's names its stand-in: the stand-ins are gone once it is
    printed."""
    message = str(exc)
    for stand_in, path in names.items():
        message = message.replace(stand_in, path)
    return (OSError if isinstance(exc, OSError) else ValueError)(message)


def _hidden_dir(beside, prefix, output) -> tempfile.TemporaryDirectory:
    """A hidden temporary directory in `beside` for the stand-ins of
    `output`; an OSError in making it names output, not the directory's
    random name."""
    try:
        return tempfile.TemporaryDirectory(dir=beside, prefix=prefix)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(output)) from None


@contextlib.contextmanager
def _staged(*paths):
    """A stand-in for each output file of `paths`, in a hidden directory
    beside it; each is moved onto its path once the block completes, so a
    command that fails leaves none of its outputs, and an existing one as
    it was."""
    for path in paths:  # else os.replace fails after moving the outputs before it
        if Path(path).is_dir():
            raise IsADirectoryError(f"output {path} is a directory")
    with contextlib.ExitStack() as stack:
        stand_ins = [
            Path(stack.enter_context(_hidden_dir(Path(p).absolute().parent, ".", p)), Path(p).name)
            for p in paths
        ]
        try:
            yield stand_ins
        except (OSError, ValueError) as exc:
            raise _naming(exc, {str(s): str(p) for s, p in zip(stand_ins, paths)}) from None
        for stand_in, path in zip(stand_ins, paths):
            os.replace(stand_in, path)


@contextlib.contextmanager
def _staged_dir(out):
    """A hidden directory for the files a command writes into the directory
    `out`, made beside it in its nearest existing ancestor; once the block
    completes, out is made if missing and the files are moved into it, so
    a command that fails leaves no outputs and makes no directory, and an
    existing out keeps its other files."""
    out = Path(out)
    beside = next((p for p in out.absolute().parents if p.is_dir()), out.absolute())
    with _hidden_dir(beside, f".{out.name}.", out) as staging:
        try:
            yield Path(staging)
        except (OSError, ValueError) as exc:
            raise _naming(exc, {staging: str(out)}) from None
        names = os.listdir(staging)
        out.mkdir(parents=True, exist_ok=True)
        for name in names:
            os.replace(Path(staging, name), out / name)


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
    _check_name_part("--prefix", args.prefix)


def _check_name_part(flag, value) -> None:
    """Reject a flag's value that would put the files it names outside --out."""
    if any(sep in value for sep in filter(None, (os.sep, os.altsep))):
        raise ValueError(f"{flag} {value!r} holds a path separator; it names files in --out")


def _cmd_simulate(args):
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
    with _staged_dir(args.out) as out:
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
    print(f"wrote {len(conditions)} condition images to {args.out}")


def _minimal(base: Condition, dual: bool):
    return photometric.minimal_set(base, dual), lambda s: photometric.recover_minimal(s, base, dual)


# recovery method spec -> (conditions read, estimator); the estimators look
# up photometric's functions at call time, so wrapping them there takes effect
_METHODS = {
    "ma": (photometric.RATIO_SET, lambda s: photometric.recover_ma(s)),
    "wilson": (photometric.DIFFERENCE_SET, lambda s: photometric.recover_wilson(s)),
    "specular": (photometric.RATIO_SET, lambda s: photometric.recover_specular(s)[1]),
    "minimal": _minimal(Condition.X, False),
    **{f"minimal:{base.value}{':dual' * dual}": _minimal(base, dual)
       for base in GRADIENTS for dual in (False, True)},
}

METHOD_HELP = " | ".join(_METHODS)


def _method(spec: str):
    """(conditions read, estimator) for a method spec, one of METHOD_HELP's."""
    if spec not in _METHODS:
        raise UsageError(f"unknown method: {spec}")
    return _METHODS[spec]


def _cmd_recover(args):
    conditions, recover = _method(args.method)
    nm = recover(_load_set(args.indir, args.prefix, conditions))
    out = Path(args.out)
    with _staged(out, out.with_name(out.stem + "_mag.pfm")) as (normals, magnitude):
        pfm.write_normal_map(normals, nm)
        pfm.write_masked(magnitude, nm.magnitude, nm.mask)
    print(f"recovered normals ({args.method}) -> {out}")


def _cmd_correct(args):
    _, recover = _method(args.init)
    imgset = _load_set(args.indir, args.prefix, Condition)  # the QP reads all seven
    init = recover(imgset)
    out = Path(args.out)
    fields = (args.delta_out or out.with_name(out.stem + "_delta.pfm"),
              args.deltabar_out or out.with_name(out.stem + "_deltabar.pfm"))
    with _staged(out, *fields) as (normals, delta_path, deltabar_path):
        # the QP hands over delta and delta_bar a block of rows at a time
        with pfm.masked_writer(delta_path, init.normals.shape) as write_delta, \
                pfm.masked_writer(deltabar_path, init.normals.shape) as write_deltabar:
            def emit(rows, delta, delta_bar, valid):
                write_delta(rows.start, delta, valid)
                write_deltabar(rows.start, delta_bar, valid)

            corrected = qp.correct_normal_map(imgset, init, emit)
        del imgset, init  # freed before the map's write allocates its float32 buffer
        pfm.write_normal_map(normals, corrected)
    print(f"corrected normals (init={args.init}) -> {out}")


def _parses_as_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _read(path, parse, encoding):
    """parse(the text of the file at path in `encoding`); a ValueError in
    decoding or parsing the text names the path."""
    try:
        return parse(Path(path).read_text(encoding=encoding))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_xy_csv(path, columns):
    """The data rows of a numeric CSV with one cell per name in `columns`,
    each finite; a first row with no number in it is a header."""
    rows = []
    lines = _read(path, lambda text: [ln.strip() for ln in text.split("\n") if ln.strip()], "ascii")
    start = 1 if lines and not any(map(_parses_as_float, lines[0].split(","))) else 0  # header
    for i, ln in enumerate(lines[start:], 1):
        cells = ln.split(",")
        if len(cells) != len(columns):
            raise ValueError(
                f"{path}: expected {len(columns)} columns per row, data row {i} has {len(cells)}"
            )
        for name, cell in zip(columns, cells):
            if not _parses_as_float(cell):
                raise ValueError(f"{path}: data row {i}: {name} {cell.strip()!r} is not a number")
            if not math.isfinite(float(cell)):
                raise ValueError(f"{path}: data row {i}: {name} {float(cell)} is not finite")
        rows.append([float(x) for x in cells])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows)


def _cmd_calibrate_lights(args):
    intrinsics = _read(args.k, calib.CameraIntrinsics.from_json, "utf-8")
    limb = _read_xy_csv(args.limb, ("x", "y"))
    conic = calib.fit_conic(limb)
    center, dist = calib.sphere_center(conic, intrinsics, args.radius, args.pair_tol)
    if args.highlights:
        rows = _read_xy_csv(args.highlights, ("LED id", "x", "y"))
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
    with _staged(args.out) as (out,):
        out.write_text(lights.to_json())
    print(
        f"sphere center ({center[0]:.2f}, {center[1]:.2f}, {center[2]:.2f}) mm, "
        f"d={dist:.2f} mm; {len(lights.leds)} lights -> {args.out}"
    )


def _cmd_calibrate_homography(args):
    pairs = _read_xy_csv(args.pairs, ("x0", "y0", "x1", "y1"))
    src, dst = pairs[:, :2], pairs[:, 2:]
    h, dlt_err = calib.estimate_homography_dlt(src, dst)
    print(f"DLT mean symmetric transfer error: {dlt_err:.6g} px")
    if not args.no_refine:
        before = calib.sampson_error(h, src, dst)
        h = calib.refine_sampson(h, src, dst)
        after = calib.sampson_error(h, src, dst)
        print(f"Sampson error: {before:.6g} -> {after:.6g}")
    with _staged(args.out) as (out,):
        out.write_text(h.to_json())


def _cmd_calibrate_separate(args):
    i0 = pfm.read_image(args.i0)
    i1 = pfm.read_image(args.i1)
    if args.homography:
        h = _read(args.homography, calib.Homography.from_json, "utf-8")
        i0 = calib.warp_by_homography(i0, h)
    result = calib.separate_reflectance(i0, i1)
    with _staged(args.out_specular, args.out_diffuse) as (specular, diffuse):
        pfm.write_image(specular, result.specular)
        pfm.write_image(diffuse, result.diffuse)
    print(f"separated; {result.clamp_count} negative specular pixels clamped")


def _cmd_align(args):
    _check_name_part("--pair", args.pair)
    g = pfm.read_image(args.frames[0])
    gbar = pfm.read_image(args.frames[1])
    c = pfm.read_image(args.frames[2])
    params = alignment.FlowParams(alpha=args.alpha)
    u, v, residuals = alignment.joint_photometric_align(g, gbar, c, args.iters, params)
    pair = args.pair
    with _staged_dir(args.out) as out:
        pfm.write_flow(out / f"flow_{pair}_u.pfm", u)
        pfm.write_flow(out / f"flow_{pair}_v.pfm", v)
        pfm.write_csv(out / "residuals.csv", ("iteration", "residual"), enumerate(residuals))
    if residuals:
        print(f"aligned pair {pair}: residual {residuals[0]:.4g} -> {residuals[-1]:.4g}")
    else:
        print(f"aligned pair {pair}: no completed iterations")


def _cmd_sequence_plan(args):
    if args.out and args.method != "minimal":
        raise UsageError("sequence CSV output is defined for the minimal method")
    print(sequencer.image_count(args.n, args.method))
    if args.out:
        with _staged(args.out) as (out,):
            out.write_text(sequencer.generate_sequence(args.n).to_csv())


class _FramePaths(list):
    """Frame paths that read their frame when indexed, so that only the
    frames a window is working on are held in memory."""

    def __getitem__(self, i):
        return pfm.read_image(super().__getitem__(i))


def _cmd_sequence_process(args):
    directory = Path(args.dir)
    seq_path = directory / "seq.csv"
    if not seq_path.exists():
        raise ValueError(f"missing sequence file {seq_path}")
    seq = _read(seq_path, sequencer.CaptureSequence.from_csv, "utf-8")
    frames = _FramePaths()
    for i in range(len(seq.frames)):
        path = directory / f"frame_{i:03d}.pfm"
        if not path.exists():
            raise ValueError(f"missing frame image {path}")
        frames.append(path)
    # each normal is written once its windows are done
    with _staged_dir(args.out) as out:
        residuals = sequencer.process_sequence(
            seq, frames, lambda i, nm: pfm.write_normal_map(out / f"normal_{i:03d}.pfm", nm),
            iterations=args.iters,
        )
        written = len(os.listdir(out))
    print(
        f"processed {len(residuals)} tracking frames, "
        f"{written - len(residuals)} upsampled frames -> {args.out}"
    )


def _cmd_stimulus(args):
    nm = pfm.read_normal_map(args.normals)
    texture_img = pfm.read_image(args.texture)
    shape_img = stimulus.shape_only(nm, np.asarray(args.l1), np.asarray(args.l2))
    texture = stimulus.texture_only(texture_img)
    combo = stimulus.combined(shape_img, texture)
    with _staged_dir(args.out) as out:
        for name, img in [("shape", shape_img), ("texture", texture), ("combined", combo)]:
            pfm.write_png(out / f"{name}.png", img.samples)
            pfm.write_image(out / f"{name}.pfm", img)
    print(f"stimulus images -> {args.out}")


def _cmd_report(args):
    a = pfm.read_normal_map(args.a)
    b = pfm.read_normal_map(args.b)
    err = angular_error_map(a, b)
    if not err.mask.any():
        raise ValueError("no jointly valid pixels")
    bins = histogram(err, args.bin_width)
    with _staged(args.out) as (out,):
        pfm.write_csv(out, ("bin_center", "count"), bins)
    vals = err.samples[err.mask]
    print(f"angular error: mean {vals.mean():.4f} deg, max {vals.max():.4f} deg -> {args.out}")


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


def _config_value(action: argparse.Action, value):
    """A --config value as the flag of `action` takes it, or the UsageError
    that names its key. A switch takes a JSON bool, a multi-value flag a
    list of its arity and any other flag one value; each value is a string
    or a number, converted by the flag's type from the token the command
    line would carry (a number as str() writes it) and checked against the
    flag's choices."""
    key = action.dest
    if action.nargs == 0:
        return value if isinstance(value, bool) else UsageError(f"config key {key!r} takes true or false")
    if action.nargs is None:
        tokens = [value]
    elif isinstance(value, list) and (len(value) == action.nargs or action.nargs == "+" and value):
        tokens = value
    else:
        count = "one or more" if action.nargs == "+" else action.nargs
        return UsageError(f"config key {key!r} takes a list of {count} values")
    converted = []
    for token in tokens:
        if isinstance(token, bool) or not isinstance(token, (str, int, float)):
            return UsageError(f"config key {key!r} takes strings or numbers, got {json.dumps(token)}")
        try:
            converted.append((action.type or str)(str(token)))
        except ValueError:
            return UsageError(f"config key {key!r}: invalid value {token!r}")
        if action.choices is not None and converted[-1] not in action.choices:
            return UsageError(f"config key {key!r}: {token!r} is not one of {', '.join(action.choices)}")
    return converted if action.nargs is not None else converted[0]


def _parse(argv) -> argparse.Namespace:
    """Parse argv; a --config file supplies flag defaults, explicit flags win."""
    parser, subparsers = build_parser()
    cfg_path = _config_parser().parse_known_args(argv)[0].config
    if cfg_path is not None:
        try:
            config = json.loads(Path(cfg_path).read_text())
        except (OSError, ValueError, RecursionError) as exc:  # RecursionError: deep nesting
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
                    action.default = _config_value(action, config[action.dest])
    args = parser.parse_args(argv)
    # a config value that a flag rejects is an error only for the command
    # that runs, and only where no explicit flag replaced it
    rejected = [v for v in vars(args).values() if isinstance(v, UsageError)]
    if rejected:
        raise rejected[0]
    return args


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        args.func(args)
        return 0
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
