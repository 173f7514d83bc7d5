import tracemalloc

import numpy as np
import pytest
from conftest import forward_highlight_point, project_point, project_sphere_limb
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from gradientstage import core
from gradientstage.calib import (
    CameraIntrinsics,
    Conic,
    Homography,
    detect_highlight_centroid,
    estimate_homography_dlt,
    fit_conic,
    light_direction,
    ray_sphere_intersect,
    refine_sampson,
    sampson_error,
    separate_reflectance,
    sphere_center,
    symmetric_transfer_error,
    warp_by_homography,
    _disk,
)
from gradientstage.core import Image
from gradientstage.stage import generate_icosphere_directions

K2000 = CameraIntrinsics.from_focal(2000.0)


def gaussian_spot(h, w, cx, cy, sigma=3.0, amplitude=1.0):
    yy, xx = np.mgrid[0:h, 0:w]
    return amplitude * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sigma**2))


def full_frame_centroid(img: Image, threshold: float = 0.5, morph_radius: int = 2):
    """detect_highlight_centroid with the opening, labelling and centroid
    over the whole frame: the reference for the windowed one."""
    vals = img.samples
    peak = vals.max()
    binary = vals >= threshold * peak if peak > 0 else np.zeros_like(vals, bool)
    if not binary.any():
        raise ValueError("no highlight: no pixel above threshold")
    selem = _disk(morph_radius)
    opened = ndimage.binary_dilation(ndimage.binary_erosion(binary, selem), selem)
    if not opened.any():
        opened = binary
    labels, count = ndimage.label(opened)
    sizes = ndimage.sum_labels(np.ones_like(vals), labels, index=range(1, count + 1))
    biggest = int(np.argmax(sizes)) + 1
    w = vals * (labels == biggest)
    total = w.sum()
    yy, xx = np.mgrid[0 : vals.shape[0], 0 : vals.shape[1]]
    return float((xx * w).sum() / total), float((yy * w).sum() / total)


def assert_matches_full_frame(img, threshold, morph_radius):
    got = detect_highlight_centroid(img, threshold, morph_radius)
    np.testing.assert_allclose(got, full_frame_centroid(img, threshold, morph_radius), rtol=0, atol=1e-9)
    return got


def mirror_ball_frames(seed, count=41, size=512):
    """Frames like the calibration benchmark's: a Gaussian highlight (sigma
    3.5 px) at each LED's mirror point over a dim ball (0.05), with 0.005
    sensor noise, clamped at 0 and rounded to float32 as in a PFM."""
    rng = np.random.default_rng(seed)
    center, radius = np.array([0.0, 0.0, 890.0]), 38.1
    k = np.array([[2000.0, 0.0, (size - 1) / 2], [0.0, 2000.0, (size - 1) / 2], [0.0, 0.0, 1.0]])
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    ball = project_point(center, k)
    on_ball = (xx - ball[0]) ** 2 + (yy - ball[1]) ** 2 <= (k[0, 0] * radius / center[2]) ** 2
    i = np.arange(count) + 0.5
    cos_t = 1.0 - 0.5 * i / count  # within 60 deg of the axis toward the camera
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    sin_t = np.sqrt(1.0 - cos_t**2)
    for d in np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), -cos_t], axis=1):
        hx, hy = project_point(forward_highlight_point(center + 790.0 * d, center, radius), k)
        img = 0.05 * on_ball + np.exp(-((xx - hx) ** 2 + (yy - hy) ** 2) / (2 * 3.5**2))
        img += 0.005 * rng.standard_normal(img.shape)
        yield Image(np.maximum(img, 0.0).astype(np.float32).astype(float))


class TestHighlightCentroid:
    def test_gaussian_spot_subpixel(self):
        img = Image(gaussian_spot(120, 200, 100.0, 50.0))
        x, y = detect_highlight_centroid(img, 0.3, 2)
        assert x == pytest.approx(100.0, abs=0.1)
        assert y == pytest.approx(50.0, abs=0.1)

    def test_largest_of_two_spots_wins(self):
        vals = gaussian_spot(100, 100, 30.0, 30.0, sigma=5.0) + gaussian_spot(
            100, 100, 70.0, 70.0, sigma=2.0
        )
        x, y = detect_highlight_centroid(Image(vals), 0.3, 1)
        assert x == pytest.approx(30.0, abs=0.5)
        assert y == pytest.approx(30.0, abs=0.5)

    def test_all_black_raises(self):
        with pytest.raises(ValueError, match="no highlight"):
            detect_highlight_centroid(Image(np.zeros((10, 10))), 0.5, 2)

    def test_morphology_removes_stray_pixels(self):
        vals = gaussian_spot(80, 80, 40.0, 40.0, sigma=4.0)
        vals[5, 5] = 2.0  # single hot pixel brighter than the spot
        x, y = detect_highlight_centroid(Image(vals), 0.3, 2)
        assert x == pytest.approx(40.0, abs=0.5)

    @pytest.mark.parametrize("cx", [0.0, 29.5, 59.0])
    @pytest.mark.parametrize("cy", [0.0, 19.5, 39.0])
    @pytest.mark.parametrize("morph_radius", [0, 1, 2, 3])
    def test_window_matches_full_frame_at_edges_and_corners(self, cx, cy, morph_radius):
        # the spot's centre on each edge and corner (and, once, inside)
        vals = gaussian_spot(40, 60, cx, cy, sigma=2.5)
        vals[0, 30] = vals[39, 0] = 0.9  # hot pixels on the border
        assert_matches_full_frame(Image(vals), 0.3, morph_radius)

    @pytest.mark.parametrize("morph_radius", [0, 1])
    def test_equal_components_first_in_raster_order(self, morph_radius):
        vals = np.zeros((30, 40))
        vals[12:17, 3:8] = 1.0  # starts on a later row, further left
        vals[10:15, 30:35] = 1.0
        x, y = assert_matches_full_frame(Image(vals), 0.5, morph_radius)
        assert (x, y) == (32.0, 12.0)

    def test_spot_removed_by_the_opening_falls_back_to_the_binary_image(self):
        vals = np.zeros((20, 30))
        vals[5:7, 10:12] = [[1.0, 0.5], [0.5, 1.0]]
        x, y = assert_matches_full_frame(Image(vals), 0.4, 2)
        assert (x, y) == (10.5, 5.5)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.floats(0.05, 0.95),
        st.integers(-1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_matches_full_frame_on_scattered_spots(self, seed, spots, threshold, radius):
        rng = np.random.default_rng(seed)
        vals = np.zeros((37, 45))
        for _ in range(spots):
            vals += gaussian_spot(37, 45, *rng.uniform(-3, 48, 2), sigma=rng.uniform(0.3, 4))
        vals[rng.random(vals.shape) < 0.01] += rng.uniform(0, 1.5)  # hot pixels
        assume(vals.max() > 0)
        assert_matches_full_frame(Image(vals), threshold, radius)

    def test_window_matches_full_frame_bitwise_on_mirror_ball_frames(self):
        for img in mirror_ball_frames(seed=3):
            assert detect_highlight_centroid(img) == full_frame_centroid(img)


class TestFitConic:
    def circle_points(self, cx, cy, r, n=8):
        t = np.linspace(0, 2 * np.pi, n, endpoint=False)
        return np.stack([cx + r * np.cos(t), cy + r * np.sin(t)], axis=1)

    def test_exact_circle(self):
        conic, residuals = fit_conic(self.circle_points(0.0, 0.0, 10.0))
        assert conic.a == pytest.approx(conic.c, rel=1e-9)
        assert conic.b == pytest.approx(0.0, abs=1e-9 * abs(conic.a))
        assert -conic.f / conic.a == pytest.approx(100.0, rel=1e-9)
        assert np.abs(residuals).max() < 1e-9

    def test_ellipse_axis_ratio(self):
        t = np.linspace(0, 2 * np.pi, 24, endpoint=False)
        pts = np.stack([20.0 * np.cos(t), 10.0 * np.sin(t)], axis=1)
        conic, _ = fit_conic(pts)
        # axis-aligned: semi-axes sqrt(-f/a) along x and sqrt(-f/c) along y
        assert conic.b == pytest.approx(0.0, abs=1e-9 * abs(conic.a))
        assert np.sqrt(conic.c / conic.a) == pytest.approx(2.0, rel=1e-6)

    def test_collinear_rejected(self):
        pts = np.stack([np.arange(6.0), 2.0 * np.arange(6.0)], axis=1)
        with pytest.raises(ValueError):
            fit_conic(pts)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_conic(self.circle_points(0, 0, 5, n=5))


class TestSphereCenter:
    def test_on_axis_recovery(self):
        true_center = np.array([0.0, 0.0, 890.0])
        pts = project_sphere_limb(true_center, 38.1, K2000.k)
        conic, _ = fit_conic(pts)
        center, dist = sphere_center(conic, K2000, 38.1)
        assert np.linalg.norm(center - true_center) < 0.5
        assert dist == pytest.approx(890.0, abs=0.5)

    def test_off_axis_direction(self):
        true_center = np.array([55.0, -35.0, 910.0])
        pts = project_sphere_limb(true_center, 38.1, K2000.k)
        conic, _ = fit_conic(pts)
        center, dist = sphere_center(conic, K2000, 38.1)
        cosang = (center @ true_center) / (np.linalg.norm(center) * np.linalg.norm(true_center))
        assert np.degrees(np.arccos(min(1.0, cosang))) < 0.05
        assert np.linalg.norm(center - true_center) < 0.5

    def test_norm_equals_distance(self):
        pts = project_sphere_limb([10.0, 5.0, 700.0], 38.1, K2000.k)
        conic, _ = fit_conic(pts)
        center, dist = sphere_center(conic, K2000, 38.1)
        assert np.linalg.norm(center) == pytest.approx(dist, abs=1e-9)

    def test_non_sphere_conic_rejected(self):
        # an elongated ellipse cannot be a sphere projection
        t = np.linspace(0, 2 * np.pi, 30, endpoint=False)
        pts = np.stack([500 + 200 * np.cos(t), 300 + 40 * np.sin(t)], axis=1)
        conic, _ = fit_conic(pts)
        with pytest.raises(ValueError, match="not a sphere projection"):
            sphere_center(conic, K2000, 38.1)

    def test_radius_guard(self):
        conic, _ = fit_conic(project_sphere_limb([0, 0, 890.0], 38.1, K2000.k))
        with pytest.raises(ValueError):
            sphere_center(conic, K2000, -1.0)

    def test_radius_sensitivity_sweep(self):
        # finite-distance lights mean the assumed ball radius matters: the
        # recovered center scales linearly with it, so radius error grows
        # the center error proportionally
        true_center = np.array([0.0, 0.0, 890.0])
        true_radius = 38.1
        conic, _ = fit_conic(project_sphere_limb(true_center, true_radius, K2000.k))
        errors = []
        for rel in (0.0, 0.02, 0.05, 0.10):
            center, dist = sphere_center(conic, K2000, true_radius * (1 + rel))
            errors.append(np.linalg.norm(center - true_center))
            assert dist == pytest.approx(890.0 * (1 + rel), rel=1e-9)
        assert errors[0] < 1e-9
        assert errors[1] < errors[2] < errors[3]
        assert errors[3] == pytest.approx(89.0, rel=1e-6)


class TestRaySphere:
    def test_straight_hit(self):
        hit = ray_sphere_intersect((0, 0, 0), (0, 0, 1), (0, 0, 10), 1.0)
        np.testing.assert_allclose(hit, [0, 0, 9], atol=1e-12)

    def test_tangent(self):
        hit = ray_sphere_intersect((0, 0, 0), (0, 0, 1), (1, 0, 10), 1.0)
        np.testing.assert_allclose(hit, [0, 0, 10], atol=1e-6)

    def test_miss_returns_none(self):
        assert ray_sphere_intersect((0, 0, 0), (0, 0, -1), (0, 0, 10), 1.0) is None


class TestLightDirection:
    def test_retro_reflection_at_near_pole(self):
        center = np.array([0.0, 0.0, 890.0])
        pixel = project_point([0.0, 0.0, 890.0 - 38.1], K2000.k)
        ell = light_direction(pixel, K2000, np.zeros(3), center, 38.1)
        np.testing.assert_allclose(ell, [0, 0, -1], atol=1e-9)

    def test_grazing_limit_formula(self):
        # N.V = 0 gives L = -V exactly
        v = np.array([0.0, 0.6, 0.8])
        n = np.array([1.0, 0.0, 0.0])
        ell = 2 * (n @ v) * n - v
        np.testing.assert_allclose(ell, -v)

    def test_synthetic_stage_lights_recovered(self):
        center = np.array([0.0, 0.0, 890.0])
        radius = 38.1
        dirs = generate_icosphere_directions(2)
        order = np.argsort(dirs[:, 2])
        lights = center + 790.0 * dirs[order[:41]]
        for light in lights[::5]:
            h3d = forward_highlight_point(light, center, radius)
            pixel = project_point(h3d, K2000.k)
            recovered = light_direction(pixel, K2000, np.zeros(3), center, radius)
            truth = light - h3d
            truth /= np.linalg.norm(truth)
            angle = np.degrees(np.arccos(np.clip(recovered @ truth, -1, 1)))
            assert angle < 0.5

    def test_off_sphere_pixel_raises(self):
        with pytest.raises(ValueError, match="highlight off sphere"):
            light_direction((5000.0, 5000.0), K2000, np.zeros(3), (0, 0, 890.0), 38.1)


class TestHomography:
    def checkerboard_pairs(self, h_true, n_cols=13, n_rows=5):
        xs, ys = np.meshgrid(np.linspace(50, 600, n_cols), np.linspace(50, 450, n_rows))
        src = np.stack([xs.ravel(), ys.ravel()], axis=1)
        return src, Homography(h_true).apply(src)

    H_TRUE = np.array([[1.02, 0.01, 3.0], [-0.015, 0.98, -2.0], [1e-5, -2e-5, 1.0]])

    def test_identity_pairs(self):
        rng = np.random.default_rng(0)
        src = rng.uniform(0, 500, (12, 2))
        h, err = estimate_homography_dlt(src, src)
        np.testing.assert_allclose(h.h / h.h[2, 2] * 1.0, np.eye(3) / np.linalg.norm(np.eye(3)) * h.h[2, 2] / h.h[2, 2], atol=1)
        np.testing.assert_allclose(h.h, np.eye(3) / np.sqrt(3.0), atol=1e-9)
        assert err < 1e-9

    def test_65_noiseless_corners(self):
        src, dst = self.checkerboard_pairs(self.H_TRUE)
        assert len(src) == 65
        h, _ = estimate_homography_dlt(src, dst)
        reproj = np.linalg.norm(h.apply(src) - dst, axis=1)
        assert reproj.max() < 1e-6

    def test_minimal_four_point_solve(self):
        src = np.array([[0.0, 0], [100, 0], [100, 100], [0, 100]])
        dst = Homography(self.H_TRUE).apply(src)
        h, _ = estimate_homography_dlt(src, dst)
        np.testing.assert_allclose(h.apply(src), dst, atol=1e-8)

    def test_degenerate_rejected(self):
        src = np.stack([np.arange(8.0), np.arange(8.0) * 2], axis=1)  # collinear
        with pytest.raises(ValueError):
            estimate_homography_dlt(src, src * 1.5)

    def test_four_pairs_with_three_collinear_rejected(self):
        src = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [5.0, 10.0]])
        dst = src + (1.0, 2.0)  # a translation the pairs do not determine
        with pytest.raises(ValueError, match="degenerate"):
            estimate_homography_dlt(src, dst)

    def test_similarity_invariance_on_exact_data(self):
        src, dst = self.checkerboard_pairs(self.H_TRUE)
        h_ref, _ = estimate_homography_dlt(src, dst)
        sa = np.array([[2.0, 0, 30], [0, 2.0, -10], [0, 0, 1]])
        sb = np.array([[0.5, 0, 5], [0, 0.5, 7], [0, 0, 1]])
        src2 = Homography(sa).apply(src)
        dst2 = Homography(sb).apply(dst)
        h2, _ = estimate_homography_dlt(src2, dst2)
        recovered = np.linalg.inv(sb) @ h2.h @ sa
        recovered /= np.linalg.norm(recovered)
        if recovered[2, 2] < 0:
            recovered = -recovered
        np.testing.assert_allclose(recovered, h_ref.h, atol=1e-9)


def sampson_error_by_solve(h: Homography, src, dst) -> float:
    """Oracle: the sum over pairs of eps^T (J J^T)^-1 eps by a linear solve,
    eps the algebraic error and J its Jacobian in (x, y, x', y')."""
    hv = h.h.ravel()
    x, y = src[:, 0], src[:, 1]
    xp, yp = dst[:, 0], dst[:, 1]
    w = hv[6] * x + hv[7] * y + hv[8]
    eps = np.stack([yp * w - (hv[3] * x + hv[4] * y + hv[5]), hv[0] * x + hv[1] * y + hv[2] - xp * w], axis=1)
    zeros = np.zeros_like(x)
    j = np.stack(
        [
            np.stack([-hv[3] + yp * hv[6], -hv[4] + yp * hv[7], zeros, w], axis=1),
            np.stack([hv[0] - xp * hv[6], hv[1] - xp * hv[7], -w, zeros], axis=1),
        ],
        axis=1,
    )
    jjt = j @ np.transpose(j, (0, 2, 1))
    return float(np.sum(eps * np.linalg.solve(jjt, eps[..., None])[..., 0]))


class TestSampson:
    H_TRUE = TestHomography.H_TRUE

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(4, 30),
        st.floats(1e-3, 1e3),
        st.sampled_from([1.0, -1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_solve_based_sum_and_ignores_scale(self, seed, n, scale, sign):
        rng = np.random.default_rng(seed)
        hm = np.eye(3) + 0.1 * rng.normal(size=(3, 3))
        hm[2, :2] *= 1e-2
        h = Homography(hm)
        src = rng.uniform(0, 100, (n, 2))
        assume(np.abs(src @ h.h[2, :2] + h.h[2, 2]).min() > 1e-3)  # w != 0 at every pair
        dst = h.apply(src) + rng.normal(0, 0.5, (n, 2))
        err = sampson_error(h, src, dst)
        assert err == pytest.approx(sampson_error_by_solve(h, src, dst), rel=1e-9)
        assert sampson_error(Homography(sign * scale * h.h), src, dst) == pytest.approx(err, rel=1e-9)

    def test_noiseless_unchanged(self):
        src, dst = TestHomography().checkerboard_pairs(self.H_TRUE)
        h0, _ = estimate_homography_dlt(src, dst)
        h1 = refine_sampson(h0, src, dst)
        np.testing.assert_allclose(h1.h, h0.h, atol=1e-9)

    def test_noisy_pairs_error_reduced(self):
        rng = np.random.default_rng(7)
        src, dst = TestHomography().checkerboard_pairs(self.H_TRUE)
        wins = 0
        trials = 20
        for _ in range(trials):
            s = src + rng.normal(0, 0.5, src.shape)
            d = dst + rng.normal(0, 0.5, dst.shape)
            h0, _ = estimate_homography_dlt(s, d)
            h1 = refine_sampson(h0, s, d)
            if sampson_error(h1, s, d) < sampson_error(h0, s, d):
                wins += 1
        assert wins >= 19

    def test_single_outlier_still_improves(self):
        rng = np.random.default_rng(3)
        src, dst = TestHomography().checkerboard_pairs(self.H_TRUE)
        s = src + rng.normal(0, 0.3, src.shape)
        d = dst + rng.normal(0, 0.3, dst.shape)
        d[10] += (25.0, -18.0)
        h0, _ = estimate_homography_dlt(s, d)
        h1 = refine_sampson(h0, s, d)
        assert sampson_error(h1, s, d) <= sampson_error(h0, s, d)


class TestSeparation:
    def test_direct_formula(self):
        i0 = Image(np.full((2, 2), 10.0))
        i1 = Image(np.full((2, 2), 4.0))
        result = separate_reflectance(i0, i1)
        assert np.all(result.specular.samples == 6.0)
        assert np.all(result.diffuse.samples == 8.0)
        assert result.clamp_count == 0

    def test_equal_images_zero_specular(self):
        img = Image(np.ones((3, 3)))
        result = separate_reflectance(img, img)
        assert np.all(result.specular.samples == 0.0)

    def test_negative_clamped_and_counted(self):
        i0 = Image(np.array([[1.0, 5.0]]))
        i1 = Image(np.array([[2.0, 1.0]]))
        result = separate_reflectance(i0, i1)
        assert result.specular.samples[0, 0] == 0.0
        assert result.clamp_count == 1

    def test_reconstruction_identity_unclamped(self):
        rng = np.random.default_rng(0)
        i1 = Image(rng.random((5, 5)))
        i0 = Image(i1.samples + rng.random((5, 5)))
        result = separate_reflectance(i0, i1)
        np.testing.assert_array_equal(
            result.specular.samples + result.diffuse.samples / 2.0, i0.samples
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            separate_reflectance(Image(np.ones((2, 2))), Image(np.ones((3, 2))))


class TestHomographyWarp:
    def test_identity_warp(self):
        rng = np.random.default_rng(0)
        img = Image(rng.random((8, 9)))
        out = warp_by_homography(img, Homography(np.eye(3)))
        np.testing.assert_allclose(out.samples[out.mask], img.samples[out.mask], atol=1e-12)

    def test_translation_warp(self):
        vals = np.zeros((10, 10))
        vals[4, 4] = 1.0
        h = np.eye(3)
        h[0, 2] = 2.0  # shift +x by 2
        out = warp_by_homography(Image(vals), Homography(h))
        assert out.samples[4, 6] == pytest.approx(1.0)

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_row_blocks_do_not_change_the_warp(self, rows):
        rng = np.random.default_rng(4)
        img = Image(rng.random((20, 13)), rng.random((20, 13)) > 0.05)
        h = Homography(np.array([[1.02, 0.03, 1.5], [-0.02, 0.98, -0.7], [1e-3, -2e-3, 1.0]]))
        want = warp_by_homography(img, h)
        with pytest.MonkeyPatch.context() as patch:
            # rows of 13 queries per block; 7 does not divide the 20 rows
            patch.setattr(core, "_CHUNK_BYTES", 8 * 13 * rows)
            got = warp_by_homography(img, h)
        np.testing.assert_array_equal(got.samples, want.samples)
        np.testing.assert_array_equal(got.mask, want.mask)

    def test_memory_of_a_1024_px_warp(self):
        # one-block resampling of this warp peaked at 97 MiB: int64 stencil
        # indices, offsets and a float copy of the mask, all full-size
        n = 1024
        yy, xx = np.mgrid[0:n, 0:n]
        img = Image(np.random.default_rng(0).random((n, n)), (xx - 500) ** 2 + (yy - 520) ** 2 <= 480**2)
        del yy, xx
        h = Homography(np.array([[1.004, 0.006, 2.5], [-0.005, 0.997, -1.8], [2e-6, -3e-6, 1.0]]))
        tracemalloc.start()
        try:
            warp_by_homography(img, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
