import tracemalloc

import numpy as np
import pytest
from conftest import (
    A_MATRIX,
    closed_form,
    correct_collected,
    from_components_reference,
    max_angular_error,
    qp_rhs,
    random_normal_map,
    solve_kkt_dense,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from gradientstage import core
from gradientstage.core import DARK_EPS, GRADIENTS, Condition, GradientImageSet, Image, NormalMap
from gradientstage.photometric import recover_ma, recover_wilson
from gradientstage.qp import constraint_violation, correct_normal_map
from gradientstage.stage import SceneSpec, make_sphere_scene, render_set


def distorted_set(delta, delta_bar=(0, 0, 0), size=15):
    base = make_sphere_scene(size, size, size // 2 - 1)
    scene = SceneSpec(base.true_normals, 1.0, 1.0, np.array(list(delta) + list(delta_bar)))
    return scene, render_set(scene)


class TestMatrix:
    # the oracle's constraint matrix: the two rows of each axis, stacked
    def test_exact_layout(self):
        expected = np.array(
            [
                [1, 0, 0, 0, 0, 0, 1 / 3, 0, 0],
                [0, 1, 0, 0, 0, 0, 0, 1 / 3, 0],
                [0, 0, 1, 0, 0, 0, 0, 0, 1 / 3],
                [0, 0, 0, -1, 0, 0, 2 / 3, 0, 0],
                [0, 0, 0, 0, -1, 0, 0, 2 / 3, 0],
                [0, 0, 0, 0, 0, -1, 0, 0, 2 / 3],
            ]
        )
        np.testing.assert_array_equal(A_MATRIX, expected)

    def test_full_row_rank(self):
        assert np.linalg.matrix_rank(A_MATRIX) == 6

    def test_constraint_violation_matches_the_matrix_form(self):
        rng = np.random.default_rng(5)
        b = rng.normal(size=(4, 7, 6))
        x = rng.normal(size=(4, 7, 9))
        want = np.abs(x @ A_MATRIX.T - b).max(axis=-1)
        np.testing.assert_allclose(constraint_violation(b, x), want, rtol=0, atol=1e-14)


class TestSolve:
    # the closed-form kernel, on stacked (..., 6) b and (..., 9) x0
    def test_feasible_point_is_fixed(self):
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=9)
        np.testing.assert_array_equal(closed_form(A_MATRIX @ x0, x0), x0)

    def test_start_on_the_constraint_rows_is_exact(self):
        # b formed elementwise from the two rows of each axis
        x0 = np.random.default_rng(4).normal(size=(20_000, 9))
        delta, delta_bar, n = x0[:, :3], x0[:, 3:6], x0[:, 6:]
        b = np.concatenate([delta + n / 3.0, n * (2.0 / 3.0) - delta_bar], axis=1)
        np.testing.assert_array_equal(closed_form(b, x0), x0)

    def test_feasibility_always(self):
        rng = np.random.default_rng(1)
        b = rng.normal(size=(50, 6))
        x = closed_form(b, rng.normal(size=(50, 9)))
        assert constraint_violation(b, x).max() < 1e-9

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.floats(1e-3, 10.0))
    def test_matches_dense_kkt_oracle(self, seed, pixels, scale):
        # every start has non-zero deltas, as a fitted prior gives
        rng = np.random.default_rng(seed)
        b = scale * rng.normal(size=(pixels, 6))
        x0 = rng.normal(size=(pixels, 9))
        np.testing.assert_allclose(closed_form(b, x0), solve_kkt_dense(b, x0), rtol=0, atol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(20, 6))
        x1 = closed_form(b, rng.normal(size=(20, 9)))
        np.testing.assert_allclose(closed_form(b, x1), x1, atol=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_minimality_against_null_space_moves(self, seed):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=6)
        x0 = rng.normal(size=9)
        x = closed_form(b, x0)
        basis = null_space(A_MATRIX)
        for _ in range(5):
            y = x + basis @ rng.normal(size=basis.shape[1])
            assert np.linalg.norm(x - x0) <= np.linalg.norm(y - x0) + 1e-12


class TestCorrectNormalMap:
    def test_wilson_seed_nearly_unchanged_on_ideal_data(self, sphere_scene, ideal_sphere_set):
        init = recover_wilson(ideal_sphere_set)
        corrected, delta, delta_bar = correct_collected(ideal_sphere_set, init)
        assert max_angular_error(corrected, init) < 0.1
        assert np.abs(delta).max() < 1e-9
        assert np.abs(delta_bar).max() < 1e-9

    def test_ma_seed_moves_toward_wilson_on_distorted_data(self):
        scene, imgset = distorted_set((0.25, 0.25, 0.25))
        ma = recover_ma(imgset)
        wilson = recover_wilson(imgset)
        corrected, _, _ = correct_collected(imgset, ma)
        before = max_angular_error(ma, wilson)
        after = max_angular_error(corrected, wilson)
        assert after < before

    def test_feasibility_of_all_corrected_pixels(self):
        scene, imgset = distorted_set((0.1, -0.2, 0.05), (0.02, 0.01, 0.0))
        init = recover_ma(imgset)
        corrected, delta, delta_bar = correct_collected(imgset, init)
        m = corrected.mask
        x = np.concatenate(
            [delta, delta_bar, corrected.normals * corrected.magnitude[..., None]],
            axis=2,
        )
        assert constraint_violation(qp_rhs(imgset, m), x[m]).max() < 1e-9

    def test_ideal_frontal_pixel(self, ideal_sphere_set):
        # there b = (0, 0, 1/3, 0, 0, 2/3): the start (0, 0, n = z) is feasible
        corrected, delta, delta_bar = correct_collected(
            ideal_sphere_set, recover_wilson(ideal_sphere_set)
        )
        c = corrected.shape[0] // 2
        np.testing.assert_allclose(corrected.normals[c, c], [0, 0, 1], atol=1e-12)
        assert corrected.magnitude[c, c] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(np.r_[delta[c, c], delta_bar[c, c]], 0.0, atol=1e-12)

    def test_forward_model_oracle_with_distortion(self):
        # seeded with the true normals, the correction is the KKT solve
        # for b = A x_true, x_true holding the injected scene state
        delta_true, delta_bar_true = (0.1, -0.05, 0.2), (0.03, 0.0, -0.08)
        scene, imgset = distorted_set(delta_true, delta_bar_true)
        n_true = scene.true_normals
        corrected, delta, delta_bar = correct_collected(imgset, n_true)
        m = corrected.mask
        assert m.sum() > 100
        n = n_true.normals[m]
        x_true = np.concatenate(
            [np.broadcast_to(delta_true, n.shape), np.broadcast_to(delta_bar_true, n.shape), n], axis=1
        )
        x0 = np.concatenate([np.zeros_like(n), np.zeros_like(n), n], axis=1)
        want = solve_kkt_dense(x_true @ A_MATRIX.T, x0)
        got = np.concatenate(
            [delta[m], delta_bar[m], corrected.normals[m] * corrected.magnitude[m][:, None]], axis=1
        )
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_dark_constant_masked(self, sphere_scene):
        imgs = dict(render_set(sphere_scene).images)
        imgs[Condition.C] = Image(np.zeros(sphere_scene.true_normals.shape), None)
        corrected, delta, delta_bar = correct_collected(
            GradientImageSet(imgs), sphere_scene.true_normals
        )
        assert not corrected.mask.any()
        assert not delta.any() and not delta_bar.any()

    def test_traced_peak_on_a_1024_frame(self):
        # output: the corrected map and its mask, about 33 MiB, and the
        # blocks' scratch; a full-frame distortion field adds 24 MiB, and
        # so does a full-frame vector field
        imgset = render_set(make_sphere_scene(1024, 1024, 500))
        init = recover_wilson(imgset)
        tracemalloc.start()
        try:
            correct_normal_map(imgset, init, lambda *block: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 45 * 2**20

    def test_single_pixel_perturbation_stays_local(self):
        scene, imgset = distorted_set((0.1, 0.1, 0.1))
        init = recover_wilson(imgset)
        corrected0, _, _ = correct_collected(imgset, init)
        bumped = dict(imgset.images)
        vals = bumped[Condition.X].samples.copy()
        c = vals.shape[0] // 2
        vals[c, c] *= 1.3
        bumped[Condition.X] = Image(vals, imgset[Condition.X].mask)
        corrected1, _, _ = correct_collected(GradientImageSet(bumped), init)
        changed = np.any(corrected0.normals != corrected1.normals, axis=2)
        assert changed[c, c]
        changed[c, c] = False
        assert not changed.any()

    def test_invalid_init_passthrough(self, sphere_scene, ideal_sphere_set):
        init = recover_wilson(ideal_sphere_set)
        hole_mask = init.mask.copy()
        assert hole_mask[24, 24]  # the sphere's center
        hole_mask[24, 24] = False
        holed = NormalMap.from_components(init.normals, hole_mask)
        corrected, _, _ = correct_collected(ideal_sphere_set, holed)
        assert not corrected.mask[24, 24]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8), st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_full_frame_closed_form(self, seed, h, w, rows):
        # invalid pixels, dark constants and an init with holes, in blocks
        # of any number of rows
        rng = np.random.default_rng(seed)
        images = {}
        for c in Condition:
            samples = rng.random((h, w))
            if c is Condition.C:
                samples[rng.random((h, w)) < 0.2] = rng.choice([0.0, 1e-12, DARK_EPS])
            images[c] = Image(samples, rng.random((h, w)) < 0.9)
        imgset = GradientImageSet(images)
        init = NormalMap.from_components(random_normal_map(rng, h, w).normals,
                                         rng.random((h, w)) < 0.9)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_CHUNK_BYTES", 8 * 3 * w * rows)
            corrected, delta, delta_bar = correct_collected(imgset, init)

        s = {c: imgset[c].samples for c in Condition}
        mask = imgset.joint_mask(Condition) & init.mask & (s[Condition.C] > DARK_EPS)
        rc = np.where(mask, s[Condition.C], 1.0)
        b_r = [s[g] / rc - 0.5 for g in GRADIENTS]
        b_d = [(s[g] - s[g.complement]) / rc for g in GRADIENTS]
        x0 = np.concatenate([np.zeros((h, w, 6)), init.normals], axis=2)
        x = closed_form(np.stack(b_r + b_d, axis=2), x0)
        want = (*from_components_reference(x[..., 6:], mask),
                np.where(mask[..., None], x[..., :3], 0.0),
                np.where(mask[..., None], x[..., 3:6], 0.0))
        got = (corrected.normals, corrected.magnitude, corrected.mask, delta, delta_bar)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("rows", [1, 2, 4])  # 4 does not divide the 15 rows
    def test_row_blocks_do_not_change_the_correction(self, rows):
        _, imgset = distorted_set((0.1, -0.2, 0.05), (0.02, 0.01, 0.0))
        init = recover_ma(imgset)

        def arrays():
            corrected, delta, delta_bar = correct_collected(imgset, init)
            return [a.tobytes() for a in (corrected.normals, corrected.magnitude, corrected.mask,
                                          delta, delta_bar)]

        want = arrays()  # one block
        with pytest.MonkeyPatch.context() as patch:
            # blocks of the map's 3 values per pixel, 15 pixels a row
            patch.setattr(core, "_CHUNK_BYTES", 8 * 3 * 15 * rows)
            assert arrays() == want
