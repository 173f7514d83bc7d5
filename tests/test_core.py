import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradientstage.core import (
    Condition,
    GradientImageSet,
    Image,
    NormalMap,
    angular_error_map,
    histogram,
)


def nm_from_vectors(vecs):
    return NormalMap.from_components(np.asarray(vecs, dtype=float))


class TestImage:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Image(np.array([[1.0, np.nan]]), None)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Image(np.array([[1.0, -0.5]]), None)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Image(np.zeros((0, 4)), None)

    def test_masked_pixels_unchecked(self):
        img = Image(np.array([[1.0, -5.0]]), np.array([[True, False]]))
        assert img.mask.tolist() == [[True, False]]

    def test_immutable(self):
        img = Image(np.ones((2, 2)), None)
        with pytest.raises(ValueError):
            img.samples[0, 0] = 3.0


class TestNormalMap:
    def test_rejects_non_unit(self):
        bad = np.zeros((1, 1, 3))
        bad[0, 0] = (0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            NormalMap(bad, np.ones((1, 1)), np.ones((1, 1), bool))

    def test_from_components_normalizes_and_records_length(self):
        nm = nm_from_vectors([[[0.0, 0.0, 2.0]]])
        assert nm.normals[0, 0].tolist() == [0.0, 0.0, 1.0]
        assert nm.magnitude[0, 0] == 2.0

    def test_zero_vector_masked(self):
        nm = nm_from_vectors([[[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
        assert not nm.mask[0, 0]
        assert nm.mask[0, 1]


class TestGradientImageSet:
    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            GradientImageSet(
                {
                    Condition.X: Image(np.ones((2, 2)), None),
                    Condition.C: Image(np.ones((3, 2)), None),
                }
            )

    def test_missing_condition_message(self):
        s = GradientImageSet({Condition.X: Image(np.ones((2, 2)), None)})
        with pytest.raises(ValueError, match="missing condition"):
            s.require([Condition.X, Condition.YBAR])

    def test_complement_mapping(self):
        assert Condition.X.complement is Condition.XBAR
        assert Condition.ZBAR.complement is Condition.Z
        with pytest.raises(ValueError):
            Condition.C.complement


class TestAngularErrorMap:
    def test_identical_maps_zero(self):
        nm = nm_from_vectors([[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]])
        err = angular_error_map(nm, nm)
        assert np.all(err.samples == 0.0)

    def test_orthogonal_is_90(self):
        a = nm_from_vectors([[[0.0, 0.0, 1.0]]])
        b = nm_from_vectors([[[0.0, 1.0, 0.0]]])
        assert angular_error_map(a, b).samples[0, 0] == pytest.approx(90.0)

    def test_five_degrees_closed_form(self):
        t = np.radians(5.0)
        a = nm_from_vectors([[[0.0, 0.0, 1.0]]])
        b = nm_from_vectors([[[0.0, np.sin(t), np.cos(t)]]])
        assert angular_error_map(a, b).samples[0, 0] == pytest.approx(5.0, abs=1e-6)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a = NormalMap.from_components(rng.normal(size=(4, 5, 3)))
        b = NormalMap.from_components(rng.normal(size=(4, 5, 3)))
        ab = angular_error_map(a, b)
        ba = angular_error_map(b, a)
        np.testing.assert_array_equal(ab.samples, ba.samples)

    def test_dimension_mismatch(self):
        a = nm_from_vectors(np.ones((2, 2, 3)))
        b = nm_from_vectors(np.ones((2, 3, 3)))
        with pytest.raises(ValueError):
            angular_error_map(a, b)

    def test_invalid_where_either_invalid(self):
        vecs = np.zeros((1, 2, 3))
        vecs[..., 2] = 1.0
        a = NormalMap.from_components(vecs, mask=np.array([[True, False]]))
        b = NormalMap.from_components(vecs, mask=np.array([[True, True]]))
        assert angular_error_map(a, b).mask.tolist() == [[True, False]]


def histogram_reference(values, bin_width):
    """The per-bin scan: one pass over the valid pixels for every bin."""
    vals = values.samples[values.mask]
    if vals.size == 0:
        return []
    idx = np.floor(vals / bin_width).astype(int)
    out = []
    for i in range(idx.min(), idx.max() + 1):
        count = int(np.sum(idx == i))
        if count:
            out.append(((i + 0.5) * bin_width, count))
    return out


class TestHistogram:
    def test_constant_image_single_bin(self):
        img = Image(np.full((5, 5), 3.0), None)
        bins = histogram(img, 1.0)
        assert bins == [(3.5, 25)]

    def test_empty_mask(self):
        img = Image(np.ones((2, 2)), np.zeros((2, 2), bool))
        assert histogram(img, 1.0) == []

    def test_uniform_ramp_counts(self):
        vals = np.linspace(0.0, 10.0, 1000, endpoint=False).reshape(25, 40)
        bins = histogram(Image(vals, None), 1.0)
        assert len(bins) == 10
        assert all(count == 100 for _, count in bins)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            histogram(Image(np.ones((2, 2)), None), 0.0)

    @given(st.integers(min_value=1, max_value=400), st.floats(min_value=0.05, max_value=10))
    def test_counts_sum_to_valid_pixels(self, n, width):
        rng = np.random.default_rng(n)
        vals = rng.random((1, n)) * 20
        mask = rng.random((1, n)) > 0.3
        img = Image(np.where(mask, vals, 0.0), mask)
        bins = histogram(img, width)
        assert sum(c for _, c in bins) == int(mask.sum())

    @given(
        st.integers(0, 2**32 - 1),
        st.tuples(st.integers(1, 30), st.integers(1, 30)),
        st.floats(min_value=1e-3, max_value=50),
        st.floats(min_value=0.0, max_value=5.0),  # at most 5000 bins for the reference scan
    )
    @settings(deadline=None)
    def test_matches_per_bin_reference(self, seed, shape, width, scale):
        rng = np.random.default_rng(seed)
        vals = rng.random(shape) * scale
        vals[rng.random(shape) < 0.2] = scale  # repeated values share a bin
        mask = rng.random(shape) > 0.3
        img = Image(np.where(mask, vals, 0.0), mask)
        bins = histogram(img, width)
        ref = histogram_reference(img, width)
        assert bins == ref
        assert [tuple(map(type, b)) for b in bins] == [tuple(map(type, b)) for b in ref]
        assert sum(c for _, c in bins) == int(mask.sum())
