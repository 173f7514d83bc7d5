"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are fixed here, not calibrated elsewhere. Run with -s to see the
per-criterion lines.
"""
import time

import numpy as np
from conftest import (
    A_MATRIX,
    closed_form,
    forward_highlight_point,
    max_angular_error,
    project_point,
    project_sphere_limb,
    qp_rhs,
    solve_kkt_dense,
    textured_radiance_scene,
)

from gradientstage.alignment import joint_photometric_align
from gradientstage.calib import (
    CameraIntrinsics,
    estimate_homography_dlt,
    fit_conic,
    light_direction,
    refine_sampson,
    sampson_error,
    sphere_center,
)
from gradientstage.core import (
    Condition,
    GradientImageSet,
    Image,
    NormalMap,
    mean_angular_error,
)
from gradientstage.photometric import (
    recover_ma,
    recover_minimal,
    recover_wilson,
)
from gradientstage.qp import constraint_violation, correct_normal_map
from gradientstage.sequencer import generate_sequence, image_count
from gradientstage.stage import (
    LightStage,
    SceneSpec,
    generate_icosphere_directions,
    make_cylinder_scene,
    make_sphere_scene,
    render_lambert_discrete,
    render_set,
)
from gradientstage.stimulus import combined, shape_only, texture_only

ALL_BASES = (Condition.X, Condition.Y, Condition.Z)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_ideal_round_trip():
    start = time.perf_counter()
    scene = make_sphere_scene(256, 256, 120)
    nm = recover_ma(render_set(scene, ["x", "y", "z", "c"]))
    elapsed = time.perf_counter() - start
    err = max_angular_error(nm, scene.true_normals)
    report(
        1,
        err < 1e-6 and elapsed < 1.0,
        f"256x256 ratio-method round trip: max error {err:.2e} deg in {elapsed:.2f} s",
    )


def test_criterion_2_cancellation_theorem():
    rng = np.random.default_rng(11)
    base = make_sphere_scene(64, 64, 28)
    h, w = base.true_normals.shape
    # per-pixel symmetric distortion, equal across axes; no asymmetric term
    sym = rng.uniform(-0.3, 0.3, (h, w))
    distortion = np.zeros((h, w, 6))
    distortion[:, :, :3] = sym[..., None]
    worst_diff = 0.0
    worst_ma = 0.0
    for vp in (0.3, 0.7, 1.0):
        scene = SceneSpec(base.true_normals, 1.0, vp, distortion)
        imgset = render_set(scene)
        wilson = recover_wilson(imgset)
        worst_diff = max(worst_diff, max_angular_error(wilson, scene.true_normals))
        for b in ALL_BASES:
            for dual in (False, True):
                nm = recover_minimal(imgset, b, dual)
                worst_diff = max(worst_diff, max_angular_error(nm, scene.true_normals))
        ma = recover_ma(imgset)
        unnorm = ma.normals * ma.magnitude[..., None]
        expected = distortion[:, :, :3] + scene.true_normals.normals / 3.0
        worst_ma = max(worst_ma, np.abs((unnorm - expected)[ma.mask]).max())
    report(
        2,
        worst_diff < 1e-6 and worst_ma < 1e-9,
        f"difference estimators max error {worst_diff:.2e} deg; "
        f"ratio method component residual {worst_ma:.2e}",
    )


def test_criterion_3_minimal_equals_wilson_identity():
    rng = np.random.default_rng(5)
    h, w = 32, 32
    rc = rng.uniform(0.5, 2.0, (h, w))
    imgs = {Condition.C: Image(rc)}
    for g in ALL_BASES:
        r = rng.uniform(0.05, 0.95, (h, w)) * rc
        imgs[g] = Image(r)
        imgs[g.complement] = Image(rc - r)
    imgset = GradientImageSet(imgs)
    wilson = recover_wilson(imgset)
    worst = 0.0
    for b in ALL_BASES:
        for dual in (False, True):
            nm = recover_minimal(imgset, b, dual)
            worst = max(worst, np.abs(nm.normals - wilson.normals).max())
    report(
        3,
        worst < 1e-12,
        f"six minimal/dual recoveries vs difference method: max component gap {worst:.2e}",
    )


def test_criterion_4_discretization_analogue():
    scene = make_cylinder_scene(201, 3, 99)
    trials = 20
    means = {}
    for sub, count in ((1, 42), (2, 162)):
        stage = LightStage.from_directions(generate_icosphere_directions(sub))
        deviations = []
        for trial in range(trials):
            rng = np.random.default_rng(1000 + trial)
            imgs = {}
            for cond in Condition:
                gain = 1.0 + 0.01 * rng.standard_normal(count)
                imgs[cond] = render_lambert_discrete(scene, stage, cond, led_gain=gain)
            imgset = GradientImageSet(imgs)
            deviations.append(
                mean_angular_error(recover_minimal(imgset, Condition.X), recover_wilson(imgset))
            )
        means[count] = float(np.mean(deviations))
    report(
        4,
        means[42] < 5.0 and means[162] < means[42],
        f"minimal-vs-difference deviation: {means[42]:.3f} deg at 42 LEDs, "
        f"{means[162]:.3f} deg at 162 LEDs (1% LED intensity noise, {trials} trials)",
    )


def test_criterion_5_qp_correction():
    rng = np.random.default_rng(3)
    # oracle equivalence on 1e4 random pixels
    b = rng.normal(size=(10_000, 6))
    x0 = rng.normal(size=(10_000, 9))
    fast = closed_form(b, x0)
    oracle = solve_kkt_dense(b, x0)
    oracle_gap = np.abs(fast - oracle).max()
    feas = constraint_violation(b, fast).max()
    # feasible start is a fixed point
    x_feas = rng.normal(size=9)
    fixed_gap = np.abs(
        closed_form(x_feas @ A_MATRIX.T, x_feas) - x_feas
    ).max()
    # full-frame timing
    scene = make_sphere_scene(512, 512, 250)
    h, w = scene.true_normals.shape
    distortion = np.zeros((h, w, 6))
    distortion[:, :, :3] = 0.1
    scene = SceneSpec(scene.true_normals, 1.0, 1.0, distortion)
    imgset = render_set(scene)
    init = recover_wilson(imgset)
    start = time.perf_counter()
    corrected, delta, delta_bar = correct_normal_map(imgset, init)
    elapsed = time.perf_counter() - start
    m = corrected.mask
    x_full = np.concatenate(
        [delta, delta_bar, corrected.normals * corrected.magnitude[..., None]], axis=2
    )
    frame_feas = constraint_violation(qp_rhs(imgset, m), x_full[m]).max()
    ok = (
        oracle_gap < 1e-9
        and feas < 1e-9
        and fixed_gap == 0.0
        and frame_feas < 1e-9
        and elapsed < 5.0
    )
    report(
        5,
        ok,
        f"KKT oracle gap {oracle_gap:.2e}, feasibility {feas:.2e}/{frame_feas:.2e}, "
        f"fixed-point gap {fixed_gap:.1e}, 512x512 corrected in {elapsed:.2f} s",
    )


def test_criterion_6_sequencer_table():
    wilson_expected = {1: 7, 2: 11, 3: 15, 4: 19, 5: 23, 6: 27}
    minimal_expected = {1: 5, 2: 9, 3: 11, 4: 15, 5: 17, 6: 21}
    table_ok = all(
        image_count(n, "wilson") == wilson_expected[n]
        and image_count(n, "minimal") == minimal_expected[n]
        for n in range(1, 7)
    )
    closed_ok = all(
        image_count(n, "wilson") == 4 * n + 3
        and image_count(n, "minimal") == (6 * (n // 2 + 1) - 1 if n % 2 else 3 * n + 3)
        for n in range(1, 51)
    )
    seq = generate_sequence(1)
    verbatim = [f.value for f in seq.frames] == ["x", "z", "c", "y", "xb"]
    report(
        6,
        table_ok and closed_ok and verbatim,
        f"capture table n=1..6 exact, closed forms to n=50, "
        f"unit sequence {[f.value for f in seq.frames]}",
    )


def test_criterion_7_calibration_closure():
    k = CameraIntrinsics(np.diag([2000.0, 2000.0, 1.0]))
    center_true = np.array([0.0, 0.0, 890.0])
    radius = 38.1
    dirs = generate_icosphere_directions(2)
    stage_dirs = dirs[np.argsort(dirs[:, 2])[:41]]  # 41 camera-facing LEDs
    lights = center_true + 790.0 * stage_dirs

    limb = project_sphere_limb(center_true, radius, k.k)
    conic = fit_conic(limb)
    center_est, dist = sphere_center(conic, k, radius)
    center_err = np.linalg.norm(center_est - center_true)

    angles = []
    highlights = []
    for light in lights:
        h3d = forward_highlight_point(light, center_true, radius)
        pixel = project_point(h3d, k.k)
        highlights.append(pixel)
        rec = light_direction(pixel, k, np.zeros(3), center_est, radius)
        truth = light - h3d
        truth /= np.linalg.norm(truth)
        angles.append(np.degrees(np.arccos(np.clip(rec @ truth, -1, 1))))
    max_angle = max(angles)

    # noisy variant: 0.5 px noise on limb and centroids; the sphere-center
    # discrepancy must stay within tens of mm
    rng = np.random.default_rng(2)
    noisy_limb = limb + rng.normal(0, 0.5, limb.shape)
    conic_n = fit_conic(noisy_limb)
    center_noisy, _ = sphere_center(conic_n, k, radius, pair_tol=1e-2)
    noisy_center_err = np.linalg.norm(center_noisy - center_true)
    noisy_angles = []
    for light, pixel in zip(lights, highlights):
        noisy_pixel = np.asarray(pixel) + rng.normal(0, 0.5, 2)
        rec = light_direction(noisy_pixel, k, np.zeros(3), center_noisy, radius)
        h3d = forward_highlight_point(light, center_true, radius)
        truth = light - h3d
        truth /= np.linalg.norm(truth)
        noisy_angles.append(np.degrees(np.arccos(np.clip(rec @ truth, -1, 1))))
    ok = max_angle < 0.5 and center_err < 1.0 and noisy_center_err < 25.0
    report(
        7,
        ok,
        f"noiseless: worst light direction {max_angle:.3e} deg, center error "
        f"{center_err:.2e} mm; 0.5 px noise: center error {noisy_center_err:.2f} mm, "
        f"mean direction error {np.mean(noisy_angles):.2f} deg",
    )


def test_criterion_8_alignment():
    g, gbar, c = textured_radiance_scene(182, 298, seed=0, shift=(3, 2))
    start = time.perf_counter()
    u, v, residuals = joint_photometric_align(g, gbar, c, 10)
    elapsed = time.perf_counter() - start
    inner = (slice(15, -15), slice(15, -15))
    flow_err = np.hypot(v.u[inner] + 2.0, v.v[inner] + 3.0).mean()
    monotone = all(b <= a * 1.01 for a, b in zip(residuals, residuals[1:]))
    ok = flow_err < 0.3 and monotone and elapsed < 60.0
    report(
        8,
        ok,
        f"flow error {flow_err:.3f} px after {len(residuals)} iterations, "
        f"residual {residuals[0]:.1f} -> {residuals[-1]:.1f} "
        f"({'monotone' if monotone else 'NOT monotone'}), 298x182 in {elapsed:.1f} s",
    )


def test_criterion_9_homography():
    h_true = np.array([[1.02, 0.01, 3.0], [-0.015, 0.98, -2.0], [1e-5, -2e-5, 1.0]])
    xs, ys = np.meshgrid(np.linspace(50, 600, 13), np.linspace(50, 450, 5))
    src = np.stack([xs.ravel(), ys.ravel()], axis=1)
    hom = np.c_[src, np.ones(len(src))] @ h_true.T
    dst = hom[:, :2] / hom[:, 2:3]
    assert len(src) == 65
    h0, _ = estimate_homography_dlt(src, dst)
    reproj = np.linalg.norm(h0.apply(src) - dst, axis=1).max()

    rng = np.random.default_rng(17)
    wins = 0
    for _ in range(100):
        s = src + rng.normal(0, 0.5, src.shape)
        d = dst + rng.normal(0, 0.5, dst.shape)
        hd, _ = estimate_homography_dlt(s, d)
        hs = refine_sampson(hd, s, d)
        if sampson_error(hs, s, d) < sampson_error(hd, s, d):
            wins += 1
    report(
        9,
        reproj < 1e-6 and wins >= 95,
        f"65 noiseless corners reproject to {reproj:.2e} px; Sampson beat DLT "
        f"in {wins}/100 noisy trials",
    )


def test_criterion_10_stimulus():
    scene = make_sphere_scene(49, 49, 22)
    nm = scene.true_normals
    checks = []
    frontal = NormalMap.from_components(np.array([[[0.0, 0.0, 1.0]]]))
    checks.append(abs(shape_only(frontal, (0, 0, 1.0), (0, 0, 1.0)).samples[0, 0] - 1.0) < 1e-12)
    shape_img = shape_only(nm)
    checks.append(0.0 <= shape_img.samples.min() and shape_img.samples.max() <= 1.0)
    tex_src = Image(np.where(nm.mask, 0.3 + 0.4 * np.abs(nm.normals[:, :, 0]), 0.0), nm.mask)
    tex = texture_only(tex_src)
    checks.append(abs(tex.samples[tex.mask].max() - 1.0) < 1e-12)
    combo = combined(shape_img, tex)
    ones = Image(np.ones(shape_img.shape))
    checks.append(np.array_equal(combined(shape_img, ones).samples[combo.mask], shape_img.samples[combo.mask]))
    zeros = Image(np.zeros(shape_img.shape))
    checks.append(np.all(combined(zeros, tex).samples == 0.0))
    checks.append(np.array_equal(combined(shape_img, tex).samples, combined(tex, shape_img).samples))
    checks.append(0.0 <= combo.samples.min() and combo.samples.max() <= 1.0)
    report(
        10,
        all(checks),
        f"{sum(checks)}/{len(checks)} stimulus identities and bounds hold",
    )
