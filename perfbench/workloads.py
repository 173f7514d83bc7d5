"""The four benchmark workloads: input generator, the CLI chain one op runs,
the checks on every op's outputs, and the call counts a traced op must show.

- still-1024: analytic 1024-px frame through recover, QP correct, report and
  stimulus. No alignment and no discrete renderer: the bypass workload for
  both.
- stage-512: 512-px sphere under the 162-LED stage; the discrete renderer and
  its (H, W, N) cosine tensor dominate time and peak memory.
- capture-seq: a moving capture through `sequence process`; photometric
  alignment does almost all the work.
- calib-1024: mirror-ball light calibration, homography fit and 1024-px
  cross-polarized separation through a homography warp.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import scenes
from tracer import OpProfile


class CheckError(Exception):
    """An op's output is missing or wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    frame_px: int  # input frame pixels one op consumes
    generate: Callable[[np.random.Generator, Path], object]
    chain: Callable[[object, Path], list[list[str]]]
    check: Callable[[object, Path], dict[str, float]]
    expected_calls: dict[str, int]
    trace_check: Callable[[OpProfile], list[str]] | None = None


def subcommand(argv: list[str]) -> str:
    """`simulate`, `calibrate_lights`, ... for span names."""
    i = 2 if argv[0] == "--config" else 0
    name = argv[i]
    if name in ("calibrate", "sequence"):
        name += "_" + argv[i + 1]
    return name


# ------------------------------------------------------------------ checks


def angle_deg(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angle between unit vectors in the well-conditioned chord form."""
    chord = np.linalg.norm(a - b, axis=-1)
    return 2.0 * np.degrees(np.arcsin(np.clip(chord / 2.0, 0.0, 1.0)))


def read_normals(path: Path) -> tuple[np.ndarray, np.ndarray]:
    if not path.is_file():
        raise CheckError(f"missing output {path.name}")
    arr = scenes.read_pfm(path)
    if arr.ndim != 3:
        raise CheckError(f"{path.name}: not a 3-channel normal map")
    valid = np.all(np.isfinite(arr), axis=2)
    if not valid.any():
        raise CheckError(f"{path.name}: no valid normals")
    if np.abs(np.linalg.norm(arr[valid], axis=1) - 1.0).max() > 1e-5:
        raise CheckError(f"{path.name}: valid normals are not unit length")
    return arr, valid


def normal_errors(path: Path, truth: np.ndarray, region: np.ndarray, min_coverage: float):
    """Per-pixel angular errors over `region`, after a coverage check."""
    arr, valid = read_normals(path)
    if arr.shape != truth.shape:
        raise CheckError(f"{path.name}: shape {arr.shape[:2]}, expected {truth.shape[:2]}")
    both = valid & region
    coverage = both.sum() / region.sum()
    if coverage < min_coverage:
        raise CheckError(f"{path.name}: {coverage:.3f} of the region valid (< {min_coverage})")
    return angle_deg(arr[both], truth[both])


def mean_error(path, truth, region, tol: float, min_coverage: float = 0.95) -> float:
    err = float(normal_errors(path, truth, region, min_coverage).mean())
    if not err <= tol:
        raise CheckError(f"{path.name}: mean normal error {err:.4f} deg > {tol} deg")
    return err


def check_report(path: Path, bin_width: float, a: Path, b: Path) -> None:
    """Histogram rows sit on multiples of the bin width and count every
    jointly valid pixel exactly once."""
    if not path.is_file():
        raise CheckError(f"missing output {path.name}")
    lines = path.read_text().splitlines()
    if lines[0] != "bin_center,count":
        raise CheckError(f"{path.name}: bad header {lines[0]!r}")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    offsets = rows[:, 0] / bin_width - 0.5
    if np.abs(offsets - np.round(offsets)).max() > 1e-6 or (rows[:, 1] <= 0).any():
        raise CheckError(f"{path.name}: bins off the {bin_width} grid or empty")
    expected = int((read_normals(a)[1] & read_normals(b)[1]).sum())
    if int(rows[:, 1].sum()) != expected:
        raise CheckError(f"{path.name}: counts sum to {int(rows[:, 1].sum())}, expected {expected}")


def check_unit_images(directory: Path, names) -> None:
    """Stimulus images: a PFM in [0, 1] and an 8-bit PNG per name."""
    for name in names:
        img = scenes.read_pfm(directory / f"{name}.pfm")
        vals = img[np.isfinite(img)]
        if vals.size == 0 or vals.min() < 0.0 or vals.max() > 1.0:
            raise CheckError(f"{name}.pfm: values outside [0, 1]")
        if (directory / f"{name}.png").read_bytes()[:8] != b"\x89PNG\r\n\x1a\n":
            raise CheckError(f"{name}.png: not a PNG")


def require_files(directory: Path, names) -> None:
    missing = [n for n in names if not (directory / n).is_file()]
    if missing:
        raise CheckError(f"missing outputs {', '.join(missing)}")


# -------------------------------------------------------------- still-1024


def _still_chain(inp: scenes.SphereInputs, out: Path) -> list[list[str]]:
    sim = str(out / "sim")
    corrected = str(out / "corrected.pfm")
    return [
        ["--config", str(inp.config), "simulate", "--out", sim],
        ["recover", "--method", "wilson", "--in", sim, "--out", str(out / "wilson.pfm")],
        ["recover", "--method", "minimal:x:dual", "--in", sim, "--out", str(out / "minimal_dual.pfm")],
        ["correct", "--init", "wilson", "--in", sim, "--out", corrected],
        ["report", "--a", corrected, "--b", f"{sim}/gt_normals.pfm", "--bin-width", "0.1",
         "--out", str(out / "report.csv")],
        ["stimulus", "--normals", corrected, "--texture", str(inp.texture), "--out", str(out / "stimulus")],
    ]


def _still_check(inp: scenes.SphereInputs, out: Path) -> dict[str, float]:
    truth, inside = scenes.image_sphere(inp.size)
    require_files(out / "sim", [f"grad_{c}.pfm" for c in scenes.CONDITIONS])
    require_files(out, ["corrected_delta.pfm", "corrected_deltabar.pfm", "wilson_mag.pfm"])
    # the lobe distortion biases the closed-form estimators; the minimal dual
    # set, which assumes r_a + r_abar = r_c, most
    wilson = mean_error(out / "wilson.pfm", truth, inside, tol=3.0)
    dual = mean_error(out / "minimal_dual.pfm", truth, inside, tol=8.0)
    err = mean_error(out / "corrected.pfm", truth, inside, tol=3.0)
    check_report(out / "report.csv", 0.1, out / "corrected.pfm", out / "sim" / "gt_normals.pfm")
    check_unit_images(out / "stimulus", ("shape", "texture", "combined"))
    return {"normal_err_deg": err, "wilson_err_deg": wilson, "minimal_dual_err_deg": dual}


# --------------------------------------------------------------- stage-512


def _stage_chain(inp: scenes.SphereInputs, out: Path) -> list[list[str]]:
    sim = str(out / "sim")
    minimal, wilson = str(out / "minimal.pfm"), str(out / "wilson.pfm")
    return [
        ["--config", str(inp.config), "simulate", "--out", sim],
        ["recover", "--method", "minimal:x", "--in", sim, "--out", minimal],
        ["recover", "--method", "wilson", "--in", sim, "--out", wilson],
        ["correct", "--init", "minimal:x", "--in", sim, "--out", str(out / "corrected.pfm")],
        ["report", "--a", minimal, "--b", wilson, "--bin-width", "0.01", "--out", str(out / "report.csv")],
    ]


def _stage_check(inp: scenes.SphereInputs, out: Path) -> dict[str, float]:
    truth, inside = scenes.image_sphere(inp.size)
    require_files(out / "sim", [f"grad_{c}.pfm" for c in scenes.CONDITIONS] + ["stage.json"])
    minimal, minimal_valid = read_normals(out / "minimal.pfm")
    mean_error(out / "minimal.pfm", truth, inside, tol=0.5)
    mean_error(out / "wilson.pfm", truth, inside, tol=0.5)
    # the paper's minimal-vs-difference comparison: near-identical maps
    gap = mean_error(out / "wilson.pfm", minimal, inside & minimal_valid, tol=0.3)
    err = mean_error(out / "corrected.pfm", truth, inside, tol=0.5)
    check_report(out / "report.csv", 0.01, out / "minimal.pfm", out / "wilson.pfm")
    return {"normal_err_deg": err, "minimal_vs_wilson_deg": gap}


# ------------------------------------------------------------- capture-seq


def _capture_chain(inp: scenes.CaptureInputs, out: Path) -> list[list[str]]:
    return [["sequence", "process", "--dir", str(inp.directory), "--iters", "10",
             "--out", str(out / "normals")]]


def _capture_check(inp: scenes.CaptureInputs, out: Path) -> dict[str, float]:
    centers = [i for i, c in enumerate(inp.conditions) if c == "c"]
    expected = {f"normal_{i:03d}.pfm" for i in range(len(inp.conditions))
                if any(abs(i - c) <= 2 for c in centers)}
    found = {p.name for p in (out / "normals").glob("*.pfm")}
    if found != expected:
        raise CheckError(f"normal maps {sorted(found)}, expected {sorted(expected)}")
    interior = np.zeros(scenes.CAPTURE_SHAPE, bool)
    interior[8:-8, 8:-8] = True  # warps invalidate up to 4 px at the border
    errors = [
        normal_errors(out / "normals" / name, inp.normals[int(name[7:10])], interior, 0.8)
        for name in sorted(expected)
    ]
    err = float(np.concatenate(errors).mean())
    if not err <= 2.5:
        raise CheckError(f"mean normal error {err:.4f} deg > 2.5 deg")
    return {"normal_err_deg": err}


def _capture_trace_check(prof: OpProfile) -> list[str]:
    """Each outer alignment iteration estimates two flows."""
    want = 2 * int(sum(prof.counters.get("alignment.outer_iters", [])))
    got = prof.calls.get("alignment.flow_estimate", 0)
    return [] if got == want else [f"alignment.flow_estimate: {got} calls, expected {want}"]


# -------------------------------------------------------------- calib-1024


def _calib_chain(inp: scenes.CalibInputs, out: Path) -> list[list[str]]:
    d = inp.directory
    h = str(out / "h.json")
    chain = [
        ["calibrate", "lights", "--k", str(d / "k.json"), "--radius", str(scenes.BALL_RADIUS),
         "--limb", str(d / "limb.csv"), "--images", str(d / "ball"), "--pair-tol", "1e-2",
         "--out", str(out / "lights.json")],
        ["calibrate", "homography", "--pairs", str(d / "pairs.csv"), "--out", h],
    ]
    for c in scenes.CONDITIONS:
        chain.append(
            ["calibrate", "separate", "--i0", str(d / f"i0_{c}.pfm"), "--i1", str(d / f"i1_{c}.pfm"),
             "--homography", h, "--out-specular", str(out / f"specular_{c}.pfm"),
             "--out-diffuse", str(out / f"diffuse_{c}.pfm")]
        )
    chain.append(["recover", "--method", "wilson", "--in", str(out), "--prefix", "diffuse",
                  "--out", str(out / "normals.pfm")])
    return chain


def _calib_check(inp: scenes.CalibInputs, out: Path) -> dict[str, float]:
    lights = json.loads((out / "lights.json").read_text())
    if [rec["id"] for rec in lights] != list(range(len(inp.light_dirs))):
        raise CheckError("lights.json does not list LEDs 0..40 in order")
    dirs = np.array([[rec["lx"], rec["ly"], rec["lz"]] for rec in lights])
    light_err = float(angle_deg(dirs, inp.light_dirs).mean())
    if not light_err <= 0.5:
        raise CheckError(f"mean light direction error {light_err:.4f} deg > 0.5 deg")

    h = np.array(json.loads((out / "h.json").read_text()))
    src = scenes.apply_homography(np.linalg.inv(inp.h_true), inp.corners)
    reproj = np.linalg.norm(scenes.apply_homography(h, src) - inp.corners, axis=1).mean()
    if not reproj <= 0.25:
        raise CheckError(f"homography reprojection error {reproj:.4f} px > 0.25 px")

    size = scenes.CROSS_SIZE
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    c = (size - 1) / 2.0
    interior = (xx - c) ** 2 + (yy - c) ** 2 <= (0.4 * size - 4.0) ** 2
    normals, _ = scenes.cross_sphere(xx, yy)
    spec_errs = []
    for cond in scenes.CONDITIONS:
        est = scenes.read_pfm(out / f"specular_{cond}.pfm")
        spec = scenes.mirror_specular(normals, scenes.CROSS_SPECULAR, cond)
        ok = np.isfinite(est) & interior
        if ok.sum() < 0.95 * interior.sum():
            raise CheckError(f"specular_{cond}.pfm: too few valid pixels")
        spec_errs.append(np.abs(est[ok] - spec[ok]).mean())
        if not spec_errs[-1] <= 0.01:
            raise CheckError(f"specular_{cond}.pfm: mean error {spec_errs[-1]:.4f} > 0.01")

    err = mean_error(out / "normals.pfm", normals, interior, tol=1.0)
    return {"normal_err_deg": err, "light_dir_err_deg": light_err,
            "homography_px": float(reproj), "specular_abs_err": float(max(spec_errs))}


# ---------------------------------------------------------------- registry

_NO_ALIGNMENT = {"alignment.joint_photometric_align": 0, "alignment.flow_estimate": 0,
                 "alignment.warp_image": 0, "alignment.warp_normals": 0}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "still-1024", 7 * 1024**2, scenes.make_still, _still_chain, _still_check,
            {**_NO_ALIGNMENT, "stage.render_lambert_analytic": 7,
             "stage.render_lambert_discrete": 0, "photometric.recover_wilson": 2,
             "photometric.recover_minimal": 1, "qp.correct_normal_map": 1},
        ),
        Workload(
            "stage-512", 7 * 512**2, scenes.make_stage, _stage_chain, _stage_check,
            {**_NO_ALIGNMENT, "stage.render_lambert_discrete": 7,
             "stage.render_lambert_analytic": 0, "photometric.recover_minimal": 2,
             "photometric.recover_wilson": 1, "qp.correct_normal_map": 1},
        ),
        Workload(
            "capture-seq", 9 * 96 * 128, scenes.make_capture, _capture_chain, _capture_check,
            {"alignment.joint_photometric_align": 2, "sequencer.process_sequence": 1,
             "sequencer.tracking_frame_normal": 2, "stage.render_lambert_discrete": 0,
             "stage.render_lambert_analytic": 0, "qp.correct_normal_map": 0},
            _capture_trace_check,
        ),
        Workload(
            "calib-1024", 41 * 512**2 + 14 * 1024**2, scenes.make_calib, _calib_chain, _calib_check,
            {**_NO_ALIGNMENT, "calib.detect_highlight_centroid": 41,
             "calib.warp_by_homography": 7, "calib.separate_reflectance": 7,
             "calib.refine_sampson": 1, "photometric.recover_wilson": 1},
        ),
    )
}
