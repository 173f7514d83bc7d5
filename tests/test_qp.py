import numpy as np
import pytest
from conftest import max_angular_error, solve_kkt_dense
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from gradientstage import core
from gradientstage.core import Condition, GradientImageSet, Image, NormalMap
from gradientstage.photometric import recover_ma, recover_wilson
from gradientstage.qp import (
    A_MATRIX,
    build_qp_system,
    constraint_violation,
    correct_normal_map,
    solve_normal_correction,
)
from gradientstage.stage import SceneSpec, make_sphere_scene, render_set

finite_arrays = st.lists(st.floats(-2, 2), min_size=6, max_size=6)


def distorted_set(delta, delta_bar=(0, 0, 0), size=15):
    base = make_sphere_scene(size, size, size // 2 - 1)
    scene = SceneSpec(base.true_normals, 1.0, 1.0, np.array(list(delta) + list(delta_bar)))
    return scene, render_set(scene)


class TestMatrix:
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


class TestBuildSystem:
    def test_ideal_frontal_pixel(self, sphere_scene, ideal_sphere_set):
        b, mask = build_qp_system(ideal_sphere_set)
        c = mask.shape[0] // 2
        np.testing.assert_allclose(b[c, c], [0, 0, 1 / 3, 0, 0, 2 / 3], atol=1e-12)

    def test_forward_model_oracle_with_distortion(self):
        # b must equal A x_true when x_true holds the injected scene state
        delta = (0.1, -0.05, 0.2)
        delta_bar = (0.03, 0.0, -0.08)
        scene, imgset = distorted_set(delta, delta_bar)
        b, m = build_qp_system(imgset)
        x_true = np.concatenate(
            [
                np.broadcast_to(delta, scene.true_normals.shape + (3,)),
                np.broadcast_to(delta_bar, scene.true_normals.shape + (3,)),
                scene.true_normals.normals,
            ],
            axis=2,
        )
        np.testing.assert_allclose(
            b[m], x_true[m] @ A_MATRIX.T, atol=1e-10
        )

    def test_dark_constant_masked(self, sphere_scene):
        imgs = dict(render_set(sphere_scene).images)
        imgs[Condition.C] = Image(np.zeros(sphere_scene.true_normals.shape), None)
        _, mask = build_qp_system(GradientImageSet(imgs))
        assert not mask.any()


class TestSolve:
    def test_feasible_point_is_fixed(self):
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=9)
        b = A_MATRIX @ x0
        x = solve_normal_correction(b, x0)
        np.testing.assert_array_equal(x, x0)

    def test_feasibility_always(self):
        rng = np.random.default_rng(1)
        b = rng.normal(size=(50, 6))
        x0 = rng.normal(size=(50, 9))
        x = solve_normal_correction(b, x0)
        assert constraint_violation(b, x).max() < 1e-9

    def test_matches_dense_kkt_oracle(self):
        rng = np.random.default_rng(2)
        b = rng.normal(size=(500, 6))
        x0 = rng.normal(size=(500, 9))
        fast = solve_normal_correction(b, x0)
        oracle = solve_kkt_dense(b, x0)
        np.testing.assert_allclose(fast, oracle, atol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(20, 6))
        x0 = rng.normal(size=(20, 9))
        x1 = solve_normal_correction(b, x0)
        x2 = solve_normal_correction(b, x1)
        np.testing.assert_allclose(x2, x1, atol=1e-9)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.floats(1e-3, 10.0))
    def test_folded_projector_matches_the_unfolded_formula(self, seed, pixels, scale):
        rng = np.random.default_rng(seed)
        b = scale * rng.normal(size=(pixels, 6))
        x0 = rng.normal(size=(pixels, 9))
        aat_inv = np.linalg.inv(A_MATRIX @ A_MATRIX.T)
        unfolded = x0 + ((b - x0 @ A_MATRIX.T) @ aat_inv) @ A_MATRIX
        got = solve_normal_correction(b, x0)
        np.testing.assert_allclose(got, unfolded, rtol=0, atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_minimality_against_null_space_moves(self, seed):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=6)
        x0 = rng.normal(size=9)
        x = solve_normal_correction(b, x0)
        basis = null_space(A_MATRIX)
        for _ in range(5):
            y = x + basis @ rng.normal(size=basis.shape[1])
            assert np.linalg.norm(x - x0) <= np.linalg.norm(y - x0) + 1e-12


class TestCorrectNormalMap:
    def test_wilson_seed_nearly_unchanged_on_ideal_data(self, sphere_scene, ideal_sphere_set):
        init = recover_wilson(ideal_sphere_set)
        corrected, delta, delta_bar = correct_normal_map(ideal_sphere_set, init)
        assert max_angular_error(corrected, init) < 0.1
        assert np.abs(delta).max() < 1e-9
        assert np.abs(delta_bar).max() < 1e-9

    def test_ma_seed_moves_toward_wilson_on_distorted_data(self):
        scene, imgset = distorted_set((0.25, 0.25, 0.25))
        ma = recover_ma(imgset)
        wilson = recover_wilson(imgset)
        corrected, _, _ = correct_normal_map(imgset, ma)
        before = max_angular_error(ma, wilson)
        after = max_angular_error(corrected, wilson)
        assert after < before

    def test_feasibility_of_all_corrected_pixels(self):
        scene, imgset = distorted_set((0.1, -0.2, 0.05), (0.02, 0.01, 0.0))
        init = recover_ma(imgset)
        corrected, delta, delta_bar = correct_normal_map(imgset, init)
        b, _ = build_qp_system(imgset)
        m = corrected.mask
        x = np.concatenate(
            [delta, delta_bar, corrected.normals * corrected.magnitude[..., None]],
            axis=2,
        )
        assert constraint_violation(b[m], x[m]).max() < 1e-9

    def test_single_pixel_perturbation_stays_local(self):
        scene, imgset = distorted_set((0.1, 0.1, 0.1))
        init = recover_wilson(imgset)
        corrected0, _, _ = correct_normal_map(imgset, init)
        bumped = dict(imgset.images)
        vals = bumped[Condition.X].samples.copy()
        c = vals.shape[0] // 2
        vals[c, c] *= 1.3
        bumped[Condition.X] = Image(vals, imgset[Condition.X].mask)
        corrected1, _, _ = correct_normal_map(GradientImageSet(bumped), init)
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
        corrected, _, _ = correct_normal_map(ideal_sphere_set, holed)
        assert not corrected.mask[24, 24]

    @pytest.mark.parametrize("rows", [1, 2, 4])  # 4 does not divide the 15 rows
    def test_row_blocks_do_not_change_the_correction(self, rows):
        _, imgset = distorted_set((0.1, -0.2, 0.05), (0.02, 0.01, 0.0))
        init = recover_ma(imgset)

        def arrays():
            corrected, delta, delta_bar = correct_normal_map(imgset, init)
            return [a.tobytes() for a in (corrected.normals, corrected.magnitude, corrected.mask,
                                          delta, delta_bar)]

        want = arrays()  # one block
        with pytest.MonkeyPatch.context() as patch:
            # blocks of 9 values per pixel, 15 pixels a row
            patch.setattr(core, "_CHUNK_BYTES", 8 * 9 * 15 * rows)
            assert arrays() == want
