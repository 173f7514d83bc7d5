import numpy as np
import pytest
from conftest import outcome
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradientstage.core import Image, NormalMap, unit
from gradientstage.stage import make_sphere_scene
from gradientstage.stimulus import combined, shape_only, texture_only


def former_shape_only(nm, l1, l2):
    """The former shape-only image: two shades summed into a third frame,
    copied by Image."""
    l1, l2 = unit(l1), unit(l2)
    shade1 = np.maximum(0.0, nm.normals @ l1)
    shade2 = np.maximum(0.0, nm.normals @ l2)
    return Image(0.5 * (shade1 + shade2), nm.mask)


def former_texture_only(diffuse_c):
    """The former texture-only image: the peak over the valid samples alone,
    rejected only when no valid sample is positive."""
    vals = diffuse_c.samples[diffuse_c.mask]
    peak = vals.max() if vals.size else 0.0
    if not peak > 0:
        raise ValueError("texture image is all zero")
    return Image(diffuse_c.samples / peak, diffuse_c.mask)


def former_combined(shape, texture):
    """The former combined image: clipped into a fresh frame, copied by Image."""
    if shape.shape != texture.shape:
        raise ValueError(f"dimension mismatch: {shape.shape} vs {texture.shape}")
    return Image(np.clip(shape.samples * texture.samples, 0.0, 1.0), shape.mask & texture.mask)


# valid radiance: zeros of either sign, subnormals and values whose products
# overflow or leave [0, 1]
SAMPLES = st.one_of(st.floats(0.0, 4.0), st.sampled_from([0.0, -0.0, 5e-324, 1e-9, 1e300]))
SHAPES = st.tuples(st.integers(1, 12), st.integers(1, 12))


def images(shape):
    return st.builds(Image, hnp.arrays(float, shape, elements=SAMPLES), hnp.arrays(bool, shape))


@given(st.data(), SHAPES)
def test_stimuli_equal_the_former_stimuli(data, shape):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    nm = NormalMap.from_components(rng.normal(size=shape + (3,)), rng.random(shape) < 0.8)
    l1, l2 = rng.normal(size=3), rng.normal(size=3)
    l1[2], l2[2] = abs(l1[2]) + 0.1, abs(l2[2]) + 0.1
    assert outcome(shape_only, nm, l1, l2) == outcome(former_shape_only, nm, l1, l2)
    texture = data.draw(images(shape))
    assert outcome(texture_only, texture) == outcome(former_texture_only, texture)
    other = data.draw(st.sampled_from([shape, (shape[0], shape[1] + 1)]))
    a, b = data.draw(images(shape)), data.draw(images(other))
    assert outcome(combined, a, b) == outcome(former_combined, a, b)


def frontal_map():
    v = np.zeros((1, 1, 3))
    v[0, 0] = (0, 0, 1.0)
    return NormalMap.from_components(v)


class TestShapeOnly:
    def test_frontal_with_frontal_lights(self):
        img = shape_only(frontal_map(), (0, 0, 1.0), (0, 0, 1.0))
        assert img.samples[0, 0] == pytest.approx(1.0)

    def test_orthogonal_lights_dark(self):
        v = np.zeros((1, 1, 3))
        v[0, 0] = (0, 0, 1.0)
        nm = NormalMap.from_components(v)
        img = shape_only(nm, (1.0, 0, 1e-9), (0, 1.0, 1e-9))
        assert img.samples[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_sphere_brightest_along_bisector(self):
        scene = make_sphere_scene(61, 61, 28)
        l1 = np.array([0.3, 0.3, 0.906])
        l2 = np.array([-0.3, 0.3, 0.906])
        img = shape_only(scene.true_normals, l1, l2)
        bisector = (l1 / np.linalg.norm(l1) + l2 / np.linalg.norm(l2))
        bisector /= np.linalg.norm(bisector)
        dots = scene.true_normals.normals @ bisector
        dots[~scene.true_normals.mask] = -1
        by, bx = np.unravel_index(np.argmax(dots), dots.shape)
        iy, ix = np.unravel_index(
            np.argmax(np.where(img.mask, img.samples, -1)), img.shape
        )
        assert abs(by - iy) <= 1 and abs(bx - ix) <= 1

    def test_bounded_unit_interval(self):
        rng = np.random.default_rng(0)
        nm = NormalMap.from_components(rng.normal(size=(16, 16, 3)))
        img = shape_only(nm)
        assert img.samples.min() >= 0.0 and img.samples.max() <= 1.0

    def test_albedo_independent(self):
        scene = make_sphere_scene(21, 21, 9)
        assert np.array_equal(
            shape_only(scene.true_normals).samples, shape_only(scene.true_normals).samples
        )

    def test_non_front_light_warns(self):
        with pytest.warns(UserWarning):
            shape_only(frontal_map(), (0, 0, -1.0), (0, 0, 1.0))


class TestTextureOnly:
    def test_normalized_to_unit_max(self):
        img = texture_only(Image(np.array([[0.5, 2.0]])))
        assert img.samples.max() == 1.0

    def test_constant_becomes_one(self):
        img = texture_only(Image(np.full((3, 3), 0.7)))
        np.testing.assert_allclose(img.samples, 1.0)

    def test_ratios_preserved(self):
        rng = np.random.default_rng(1)
        vals = rng.random((6, 6)) + 0.1
        img = texture_only(Image(vals))
        ratio_before = vals[0, 0] / vals[3, 3]
        ratio_after = img.samples[0, 0] / img.samples[3, 3]
        assert ratio_after == pytest.approx(ratio_before, rel=1e-9)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            texture_only(Image(np.zeros((2, 2))))

    @pytest.mark.parametrize("level", [5e-10, 5e-324])
    def test_faint_texture_normalized(self, level):
        # below DARK_EPS but positive: ratios are still well defined
        img = texture_only(Image(np.array([[level, 0.0]])))
        assert img.samples.tolist() == [[1.0, 0.0]]


class TestCombined:
    def test_unit_texture_identity(self):
        shape = Image(np.array([[0.25, 0.75]]))
        tex = Image(np.ones((1, 2)))
        np.testing.assert_array_equal(combined(shape, tex).samples, shape.samples)

    def test_black_shape_black_output(self):
        shape = Image(np.zeros((2, 2)))
        tex = Image(np.ones((2, 2)))
        assert np.all(combined(shape, tex).samples == 0.0)

    def test_commutes(self):
        rng = np.random.default_rng(2)
        a = Image(rng.random((4, 4)))
        b = Image(rng.random((4, 4)))
        np.testing.assert_array_equal(combined(a, b).samples, combined(b, a).samples)

    def test_monotone_in_each_argument(self):
        tex = Image(np.full((1, 1), 0.8))
        low = combined(Image(np.full((1, 1), 0.3)), tex)
        high = combined(Image(np.full((1, 1), 0.6)), tex)
        assert high.samples[0, 0] > low.samples[0, 0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            combined(Image(np.ones((2, 2))), Image(np.ones((2, 3))))
