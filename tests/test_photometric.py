import numpy as np
import pytest
from conftest import max_angular_error
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradientstage.alignment import FlowField
from gradientstage.core import (
    Condition,
    GradientImageSet,
    Image,
    NormalMap,
)
from gradientstage.photometric import (
    _difference_components,
    magnitude_stats,
    recover_ma,
    recover_minimal,
    recover_specular,
    recover_wilson,
)
from gradientstage.sequencer import generate_sequence, tracking_frame_normal
from gradientstage.stage import (
    SceneSpec,
    SpecularSceneSpec,
    make_sphere_scene,
    render_set,
    render_specular_analytic,
)

ALL_BASES = [Condition.X, Condition.Y, Condition.Z]


def distorted_scene(delta, delta_bar=(0.0, 0.0, 0.0), vp=1.0, albedo=1.0, size=17):
    base = make_sphere_scene(size, size, size // 2 - 1)
    distortion = np.array(list(delta) + list(delta_bar))
    return SceneSpec(base.true_normals, albedo, vp, distortion)


def constraint_satisfying_set(rng, h=6, w=7):
    """Random images that satisfy r_a + r_abar = r_c up to float rounding."""
    rc = rng.uniform(0.5, 2.0, (h, w))
    imgs = {Condition.C: Image(rc)}
    for g in ALL_BASES:
        r = rng.uniform(0.05, 0.95, (h, w)) * rc
        imgs[g] = Image(r)
        imgs[g.complement] = Image(rc - r)
    return GradientImageSet(imgs)


class TestRecoverMa:
    def test_ideal_round_trip_and_magnitude(self, sphere_scene, ideal_sphere_set):
        nm = recover_ma(ideal_sphere_set)
        assert max_angular_error(nm, sphere_scene.true_normals) < 1e-9
        np.testing.assert_allclose(nm.magnitude[nm.mask], 1.0 / 3.0, atol=1e-12)

    def test_distortion_tilts_normal(self):
        scene = distorted_scene((0.3, 0.0, 0.0))
        nm = recover_ma(render_set(scene))
        center = nm.shape[0] // 2
        # true normal is +z; delta_x pushes the estimate toward +x
        assert nm.normals[center, center, 0] > 0.1
        unnorm = nm.normals * nm.magnitude[..., None]
        m = nm.mask
        expected = scene.distortion[:, :, 0] + scene.true_normals.normals[:, :, 0] / 3.0
        np.testing.assert_allclose(unnorm[m][:, 0], expected[m], atol=1e-9)

    def test_all_dark_constant_invalidates(self, sphere_scene):
        imgs = render_set(sphere_scene, ["x", "y", "z"]).images
        dark = Image(np.zeros(sphere_scene.true_normals.shape), None)
        nm = recover_ma(GradientImageSet({**imgs, Condition.C: dark}))
        assert not nm.mask.any()

    def test_occlusion_invariance(self):
        reference = recover_ma(render_set(distorted_scene((0, 0, 0))))
        for vp in (0.3, 0.7):
            scene = distorted_scene((0, 0, 0), vp=vp)
            nm = recover_ma(render_set(scene))
            np.testing.assert_allclose(
                nm.normals[nm.mask], reference.normals[reference.mask], atol=1e-12
            )


class TestRecoverWilson:
    def test_ideal_difference_vector(self, sphere_scene, ideal_sphere_set):
        nm = recover_wilson(ideal_sphere_set)
        center = nm.shape[0] // 2
        # frontal pixel: unnormalized difference is (0, 0, pi/3)
        unnorm = nm.normals[center, center] * nm.magnitude[center, center]
        np.testing.assert_allclose(unnorm, [0, 0, np.pi / 3], atol=1e-12)

    def test_cancellation_per_axis_distortion(self):
        # independent symmetric distortion per axis cancels in each difference
        scene = distorted_scene((0.25, -0.1, 0.07), vp=0.6)
        nm = recover_wilson(render_set(scene))
        assert max_angular_error(nm, scene.true_normals) < 1e-9

    def test_asymmetric_distortion_pollutes(self):
        scene = distorted_scene((0.0, 0.0, 0.0), (0.2, 0.0, 0.0))
        nm = recover_wilson(render_set(scene))
        center = nm.shape[0] // 2
        # delta_xbar = 0.2 shifts the x component by -delta_xbar (toward -x here)
        unnorm = nm.normals * nm.magnitude[..., None]
        k = np.pi / 2
        assert unnorm[center, center, 0] == pytest.approx(-0.2 * k, abs=1e-9)

    def test_missing_image_rejected(self, ideal_sphere_set):
        partial = {c: ideal_sphere_set[c] for c in [*ALL_BASES, Condition.XBAR, Condition.YBAR]}
        with pytest.raises(ValueError, match="missing condition"):
            recover_wilson(GradientImageSet(partial))


class TestRecoverMinimal:
    def test_matches_wilson_under_exact_constraint(self):
        rng = np.random.default_rng(3)
        imgset = constraint_satisfying_set(rng)
        wilson = recover_wilson(imgset)
        for base in ALL_BASES:
            for dual in (False, True):
                nm = recover_minimal(imgset, base, dual)
                np.testing.assert_allclose(
                    nm.normals[nm.mask], wilson.normals[wilson.mask], atol=1e-12
                )

    def test_ideal_radiances_exact(self, sphere_scene, ideal_sphere_set):
        for base in ALL_BASES:
            for dual in (False, True):
                nm = recover_minimal(ideal_sphere_set, base, dual)
                assert max_angular_error(nm, sphere_scene.true_normals) < 1e-9

    def test_uniform_symmetric_distortion_cancels(self):
        scene = distorted_scene((0.22, 0.22, 0.22), vp=0.7)
        imgset = render_set(scene)
        for base in ALL_BASES:
            for dual in (False, True):
                nm = recover_minimal(imgset, base, dual)
                assert max_angular_error(nm, scene.true_normals) < 1e-9

    def test_per_axis_distortion_does_not_cancel(self):
        # unequal per-axis deltas break the substituted constant image, so
        # minimal (unlike wilson) picks up the difference
        scene = distorted_scene((0.3, 0.0, 0.0))
        nm = recover_minimal(render_set(scene), Condition.X)
        assert max_angular_error(nm, scene.true_normals) > 1.0

    def test_sparse_hemisphere_stage_stays_close_to_wilson(self):
        # 41 front-facing LEDs with mild intensity noise: the four-image
        # recovery deviates from the six-image difference recovery by only
        # a few degrees on a cylinder
        from gradientstage.stage import (
            LightStage,
            make_cylinder_scene,
            render_lambert_discrete,
            stage_directions,
        )

        dirs = stage_directions(41)
        stage = LightStage.from_directions(dirs)
        scene = make_cylinder_scene(101, 3, 49)
        rng = np.random.default_rng(0)
        imgs = {}
        for cond in Condition:
            gain = 1.0 + 0.01 * rng.standard_normal(41)
            imgs[cond] = render_lambert_discrete(scene, stage, cond, led_gain=gain)
        imgset = GradientImageSet(imgs)
        from gradientstage.core import mean_angular_error

        dev = mean_angular_error(recover_minimal(imgset, Condition.X), recover_wilson(imgset))
        assert dev < 5.0

    def test_missing_image_message(self, ideal_sphere_set):
        partial = GradientImageSet(
            {c: ideal_sphere_set[c] for c in [*ALL_BASES, Condition.YBAR]}
        )
        with pytest.raises(ValueError, match="missing condition: xb"):
            recover_minimal(partial, Condition.X)

    @pytest.mark.parametrize("dual", [False, True])
    def test_mixed_set_is_a_minimal_set(self, sphere_scene, ideal_sphere_set, dual):
        # the mixed capture window {zb, yb, x, z}: the other side of an axis
        # is read where the set lacks the side minimal_set names
        mixed = GradientImageSet({c: ideal_sphere_set[c] for c in ("zb", "yb", "x", "z")})
        nm = recover_minimal(mixed, Condition.Z, dual)
        assert max_angular_error(nm, sphere_scene.true_normals) < 1e-9
        # a four-image set is read from the sides it holds, whatever dual names
        gradients = GradientImageSet({c: ideal_sphere_set[c] for c in ("zb", "y", "x", "z")})
        assert_bitwise_equal(
            recover_minimal(gradients, Condition.Z, dual), recover_minimal(ideal_sphere_set, Condition.Z)
        )

    @pytest.mark.parametrize("dual, named", [(False, "y"), (True, "yb")])
    def test_axis_without_either_side_names_the_minimal_side(self, ideal_sphere_set, dual, named):
        partial = GradientImageSet({c: ideal_sphere_set[c] for c in ("x", "xb", "z", "zb")})
        with pytest.raises(ValueError, match=f"missing condition: {named}$"):
            recover_minimal(partial, Condition.X, dual)

    def test_bad_base(self, ideal_sphere_set):
        with pytest.raises(ValueError):
            recover_minimal(ideal_sphere_set, Condition.C)


class TestRecoverSpecular:
    def make_specular_set(self, u_map, strength=1.0):
        refl = SpecularSceneSpec(u_map, strength)
        return GradientImageSet(
            {
                c: render_specular_analytic(refl, c)
                for c in [Condition.X, Condition.Y, Condition.Z, Condition.C]
            }
        )

    def test_recovers_side_mirror(self):
        u = NormalMap.from_components(np.array([[[1.0, 0.0, 0.0]]]))
        refl, _ = recover_specular(self.make_specular_set(u))
        np.testing.assert_allclose(refl.normals[0, 0], [1, 0, 0], atol=1e-12)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(5)
        u = NormalMap.from_components(rng.normal(size=(9, 9, 3)))
        refl, _ = recover_specular(self.make_specular_set(u, strength=0.7))
        assert max_angular_error(refl, u) < 1e-9
        # delta-lobe magnitude N_s = s / 2
        np.testing.assert_allclose(refl.magnitude[refl.mask], 0.35, atol=1e-12)

    def test_frontal_patch_halfway(self):
        u = NormalMap.from_components(np.array([[[0.0, 0.0, 1.0]]]))
        _, halfway = recover_specular(self.make_specular_set(u))
        np.testing.assert_allclose(halfway.normals[0, 0], [0, 0, 1], atol=1e-12)

    def test_zero_strength_invalidates(self):
        u = NormalMap.from_components(np.ones((3, 3, 3)))
        refl, halfway = recover_specular(self.make_specular_set(u, strength=0.0))
        assert not refl.mask.any()
        assert not halfway.mask.any()


class TestMagnitudeStats:
    def test_ideal_diffuse_constant_third(self, ideal_sphere_set):
        stats = magnitude_stats(recover_ma(ideal_sphere_set))
        assert stats.min == pytest.approx(1 / 3, abs=1e-9)
        assert stats.max == pytest.approx(1 / 3, abs=1e-9)
        assert stats.mean == pytest.approx(1 / 3, abs=1e-9)

    def test_single_pixel(self):
        nm = NormalMap.from_components(np.array([[[0.0, 0.0, 2.5]]]))
        stats = magnitude_stats(nm)
        assert stats.min == stats.max == stats.mean == 2.5

    def test_empty_mask_rejected(self):
        nm = NormalMap.from_components(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError):
            magnitude_stats(nm)


class TestUnitOutput:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_all_recovered_maps_unit(self, seed):
        rng = np.random.default_rng(seed)
        imgset = constraint_satisfying_set(rng, 4, 4)
        for nm in (
            recover_ma(imgset),
            recover_wilson(imgset),
            recover_minimal(imgset, Condition.Y, dual=True),
        ):
            lens = np.linalg.norm(nm.normals[nm.mask], axis=1)
            assert np.all(np.abs(lens - 1.0) < 1e-12)


@st.composite
def integer_constraint_sets(draw):
    """Integer-valued images with one shared mask on which r_a + r_abar = r_c
    holds exactly, so every estimator's arithmetic is exact."""
    shape = draw(st.tuples(st.integers(1, 5), st.integers(1, 5)))
    rc = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 64)))
    mask = draw(hnp.arrays(bool, shape))
    imgs = {Condition.C: Image(rc.astype(float), mask)}
    for g in ALL_BASES:
        frac = draw(hnp.arrays(float, shape, elements=st.floats(0.0, 1.0)))
        r = np.floor(frac * rc)
        imgs[g] = Image(r, mask)
        imgs[g.complement] = Image(rc - r, mask)
    return GradientImageSet(imgs)


def assert_bitwise_equal(nm, ref):
    assert nm.normals.tobytes() == ref.normals.tobytes()
    assert nm.magnitude.tobytes() == ref.magnitude.tobytes()
    assert nm.mask.tobytes() == ref.mask.tobytes()


class TestComplementDifference:
    @given(integer_constraint_sets())
    @settings(max_examples=200, deadline=None)
    def test_minimal_sets_equal_difference_method(self, imgset):
        wilson = recover_wilson(imgset)
        for base in ALL_BASES:
            for dual in (False, True):
                assert_bitwise_equal(recover_minimal(imgset, base, dual), wilson)

    @given(integer_constraint_sets())
    @settings(max_examples=200, deadline=None)
    def test_static_tracking_windows_equal_difference_method(self, imgset):
        wilson = recover_wilson(imgset)
        seq = generate_sequence(12)
        zero = FlowField.zero(imgset.shape)
        for center in seq.tracking_indices:
            window = {c: imgset[c] for c in seq.frames[center - 2 : center + 3] if c is not Condition.C}
            assert_bitwise_equal(tracking_frame_normal(window, dict.fromkeys(window, zero)), wilson)

    def test_one_sided_axes_use_the_constant(self):
        a, b, c = np.full((1, 1), 3.0), np.full((1, 1), 1.0), np.full((1, 1), 5.0)
        comp = _difference_components(
            {Condition.X: a, Condition.XBAR: b, Condition.Y: a, Condition.ZBAR: b}, c
        )
        assert comp[0, 0].tolist() == [2.0, 1.0, 3.0]

    def test_axis_without_image_rejected(self):
        one = np.ones((2, 2))
        with pytest.raises(ValueError, match="no image for the z axis"):
            _difference_components({Condition.X: one, Condition.XBAR: one, Condition.Y: one}, one)

    def test_one_sided_axis_without_constant_rejected(self):
        one = np.ones((2, 2))
        samples = {Condition.X: one, Condition.XBAR: one, Condition.Y: one, Condition.ZBAR: one}
        with pytest.raises(ValueError, match="no constant image"):
            _difference_components(samples)
