import tracemalloc

import numpy as np
import pytest
from conftest import from_components_reference, outcome
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradientstage import core
from gradientstage.alignment import FlowField
from gradientstage.core import (
    COMPLEMENTS,
    GRADIENTS,
    Condition,
    GradientImageSet,
    Image,
    NormalMap,
    _fill,
    _image,
    _length,
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
    def test_three_array_constructor_is_gone(self):
        with pytest.raises(TypeError):
            NormalMap(np.zeros((1, 1, 3)), np.ones((1, 1)), np.ones((1, 1), bool))

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
            s.joint_mask([Condition.X, Condition.YBAR])

    def test_complement_mapping(self):
        assert Condition.X.complement is Condition.XBAR
        assert Condition.ZBAR.complement is Condition.Z
        for g, gbar in zip(GRADIENTS, COMPLEMENTS):
            assert (g.complement, gbar.complement) == (gbar, g)
        with pytest.raises(ValueError):
            Condition.C.complement


@pytest.mark.parametrize(
    "make",
    [
        lambda: Image(np.ones((2, 2))),
        lambda: nm_from_vectors(np.ones((2, 2, 3))),
        lambda: GradientImageSet({Condition.X: Image(np.ones((2, 2)))}),
        lambda: FlowField.zero((2, 2)),
    ],
    ids=["Image", "NormalMap", "GradientImageSet", "FlowField"],
)
def test_grids_compare_by_identity_and_hash(make):
    # a generated __eq__ would compare tuples of arrays and raise
    a, b = make(), make()
    assert (a == b) is False and (a == a) is True
    assert len({a, b, a}) == 2 and hash(a) == hash(a)


def former_angular_error_map(a, b):
    """The former angular-error map: np.linalg.norm over an HxWx3 difference,
    whole-frame temporaries, copied by Image."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    chord = np.linalg.norm(a.normals - b.normals, axis=2)
    deg = 2.0 * np.degrees(np.arcsin(np.clip(chord / 2.0, 0.0, 1.0)))
    return Image(deg, a.mask & b.mask)


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

    @given(st.data(), st.integers(1, 12), st.integers(1, 12), st.booleans())
    def test_equals_the_former_map(self, data, h, w, same_shape):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        v = rng.normal(size=(h, w, 3))
        # scaled copies of v give parallel normals, -v antiparallel ones:
        # chords at both ends of the clip
        u = v * rng.uniform(0.5, 2.0, (h, w, 1)) if data.draw(st.booleans()) else -v
        u[rng.random((h, w)) < 0.3] = rng.normal(size=3)
        a = NormalMap.from_components(v, rng.random((h, w)) < 0.8)
        b = NormalMap.from_components(u if same_shape else np.concatenate([u, u[:, :1]], axis=1))
        assert outcome(angular_error_map, a, b) == outcome(former_angular_error_map, a, b)

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

    @pytest.mark.parametrize("width", [np.nan, np.inf, -np.inf, 1e-310, 1e-19])
    def test_rejects_non_finite_or_overflowing_width(self, width):
        # 1 / 1e-19 = 1e19 bins exceeds int64; the cast used to wrap
        with pytest.raises(ValueError, match="bin width"):
            histogram(Image(np.array([[0.5, 1.0]])), width)

    def test_smallest_width_that_fits_int64(self):
        [(center, count)] = histogram(Image(np.array([[1.0]])), 1e-18)
        assert count == 1 and center == pytest.approx(1.0)

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


# The invalid-pixel rule. The references are the former constructor checks,
# which gathered the valid pixels with a boolean index before testing them.


def image_accepts_reference(samples, mask):
    vals = samples[mask]
    return not (vals.size and (not np.all(np.isfinite(vals)) or np.any(vals < 0)))


def flow_accepts_reference(vectors, mask):
    return not (mask.any() and not np.all(np.isfinite(vectors[mask])))


SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.nan, np.inf, -np.inf])
FLOATS = st.one_of(st.floats(-4.0, 4.0), SPECIAL)
SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 6))


def grid(draw, shape, elements=FLOATS):
    return draw(hnp.arrays(float, shape, elements=elements))


def construct(cls, *args):
    try:
        return cls(*args)
    except ValueError:
        return None


def assert_private(obj, caller_arrays):
    """The caller's arrays stay writable and share no memory with obj."""
    for a in caller_arrays:
        assert a.flags.writeable
        for field in vars(obj).values():
            assert not np.shares_memory(field, a)
            assert not field.flags.writeable


class TestInvalidPixelRule:
    @given(st.data(), SHAPES, st.booleans())
    def test_image(self, data, shape, no_mask):
        samples = grid(data.draw, shape)
        mask = np.ones(shape, bool) if no_mask else data.draw(hnp.arrays(bool, shape))
        before = samples.copy()
        img = construct(Image, samples, None if no_mask else mask)
        assert (img is not None) == image_accepts_reference(samples, mask)
        if img is None:
            return
        assert img.mask.tolist() == mask.tolist()
        assert img.samples[~mask].tobytes() == np.zeros((~mask).sum()).tobytes()  # +0.0
        assert img.samples[mask].tobytes() == before[mask].tobytes()
        assert_private(img, [samples] if no_mask else [samples, mask])

    @given(st.data(), SHAPES)
    def test_flow_field(self, data, shape):
        vectors = grid(data.draw, shape + (2,))
        mask = data.draw(hnp.arrays(bool, shape))
        before = vectors.copy()
        flow = construct(FlowField, vectors, mask)
        assert (flow is not None) == flow_accepts_reference(vectors, mask)
        if flow is None:
            return
        assert flow.mask.tolist() == mask.tolist()
        assert flow.vectors[~mask].tobytes() == np.zeros(((~mask).sum(), 2)).tobytes()
        assert flow.vectors[mask].tobytes() == before[mask].tobytes()
        assert_private(flow, [vectors, mask])

    def test_every_single_pixel_value_matches_reference(self):
        values = [1.5, -1.5, 0.0, -0.0, 5e-324, -5e-324, 1e308, np.nan, np.inf, -np.inf]
        for valid in (True, False):
            mask = np.array([[valid]])
            for x in values:
                samples = np.array([[x]])
                assert (construct(Image, samples, mask) is not None) == image_accepts_reference(
                    samples, mask
                )
                for y in values:
                    vec = np.array([[[x, y]]])
                    assert (construct(FlowField, vec, mask) is not None) == flow_accepts_reference(
                        vec, mask
                    )

    @given(st.data(), SHAPES, st.integers(1, 4))
    def test_length_is_bitwise_linalg_norm(self, data, shape, channels):
        v = grid(data.draw, shape + (channels,), st.one_of(st.floats(-1e200, 1e200), FLOATS))
        with np.errstate(over="ignore"):
            assert _length(v).tobytes() == np.linalg.norm(v, axis=2).tobytes()

    def test_caller_array_stays_writable(self):
        a = np.ones((2, 2))
        Image(a)
        a[0, 0] = 2.0

    def test_view_of_mutated_base_does_not_change_image(self):
        base = np.ones((4, 4))
        img = Image(base[1:3])  # a contiguous view
        base[...] = 5.0
        assert np.all(img.samples == 1.0)

    @given(st.data(), SHAPES, st.sampled_from([None, 1, 3]))
    def test_fill_equals_a_where_reference_bitwise(self, data, shape, channels):
        """A scalar (0 or NaN) on HxW or HxWxC, or one value per channel."""
        scalars = st.sampled_from([0.0, np.nan])
        value = data.draw(scalars if channels is None else scalars | st.tuples(*[FLOATS] * channels))
        array = grid(data.draw, shape if channels is None else shape + (channels,))
        invalid = data.draw(hnp.arrays(bool, shape))
        want = np.where(invalid if channels is None else invalid[..., None], value, array)
        _fill(array, invalid, value)
        assert array.tobytes() == want.tobytes()

    @pytest.mark.parametrize("junk", [np.nan, 7.0, -np.inf])
    def test_adopted_image_holds_zero_at_invalid_samples(self, junk):
        samples = np.array([[junk, 1.5], [junk, junk]])
        mask = np.array([[False, True], [False, False]])
        img = _image(samples, mask)
        assert img.samples.tobytes() == np.array([[0.0, 1.5], [0.0, 0.0]]).tobytes()
        assert img.mask is mask
        assert not (img.samples.flags.writeable or img.mask.flags.writeable)


# The whole-array from_components that the row-block kernel replaced, kept
# as its reference: the same arrays bitwise.


def arrays(result):
    """dtype, shape and bytes of each array of a map or a reference."""
    if isinstance(result, NormalMap):
        result = (result.normals, result.magnitude, result.mask)
    return [(a.dtype, a.shape, a.tobytes()) for a in result]


# 1x1, 1xN and Nx1 grids drawn often, then any up to 9x9
GRID_SHAPES = st.one_of(
    st.sampled_from([(1, 1), (1, 9), (9, 1)]), st.tuples(st.integers(1, 9), st.integers(1, 9))
)
COMPONENTS = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-200, 1e200, -1e200, np.nan, np.inf, -np.inf]),
)


def draw_mask(draw, kind, shape):
    if kind == "none":
        return None
    return np.zeros(shape, bool) if kind == "all invalid" else draw(hnp.arrays(bool, shape))


def patch_block_rows(patch, rows, width):
    """Make the constructor's blocks `rows` rows of a grid `width` wide."""
    patch.setattr(core, "_CHUNK_BYTES", 8 * 3 * width * rows)


MASK_KINDS = st.sampled_from(["none", "partial", "all invalid"])


class TestBlockedNormalMap:
    @given(st.data(), GRID_SHAPES, MASK_KINDS)
    @settings(max_examples=200, deadline=None)
    def test_from_components_matches_the_whole_array_reference(self, data, shape, mask_kind):
        vectors = data.draw(hnp.arrays(float, shape + (3,), elements=COMPONENTS))
        mask = draw_mask(data.draw, mask_kind, shape)
        rows = data.draw(st.integers(1, shape[0] + 1))  # may not divide the height
        before = vectors.copy()
        with pytest.MonkeyPatch.context() as patch:
            patch_block_rows(patch, rows, shape[1])
            nm = NormalMap.from_components(vectors, mask)
        assert arrays(nm) == arrays(from_components_reference(vectors, mask))
        # valid by construction: unit normals and finite lengths >= 0 at valid
        # pixels, (0, 0, 1) and 0 elsewhere
        valid = nm.mask
        lengths = np.linalg.norm(nm.normals[valid], axis=1)
        assert np.all(np.abs(lengths - 1.0) <= 4 * np.finfo(float).eps)
        mag = nm.magnitude[valid]
        assert np.all(np.isfinite(mag)) and np.all(mag >= 0)
        with np.errstate(over="ignore"):
            assert mag.tobytes() == np.linalg.norm(before, axis=2)[valid].tobytes()
        invalid = int((~valid).sum())
        assert nm.normals[~valid].tobytes() == np.tile([0.0, 0.0, 1.0], (invalid, 1)).tobytes()
        assert nm.magnitude[~valid].tobytes() == np.zeros(invalid).tobytes()
        assert vectors.tobytes() == before.tobytes()
        assert_private(nm, [vectors] if mask is None else [vectors, mask])

    @pytest.mark.parametrize(
        "vectors, mask, message",
        [
            (np.ones((2, 2)), None, "HxWx3"),
            (np.ones((2, 2, 4)), None, "HxWx3"),
            (np.ones((0, 3, 3)), None, "HxWx3"),
            (np.ones((2, 2, 3)), np.ones((3, 2), bool), "mask shape"),
        ],
    )
    def test_from_components_rejects_a_grid_of_the_wrong_shape(self, vectors, mask, message):
        with pytest.raises(ValueError, match=message):
            NormalMap.from_components(vectors, mask)

    @given(st.data(), GRID_SHAPES)
    @settings(max_examples=200, deadline=None)
    def test_walk_ands_each_kernels_validity_with_the_lengths(self, data, shape):
        # one-row blocks; each returns None, one row or a whole block of validity
        vectors = data.draw(hnp.arrays(float, shape + (3,), elements=COMPONENTS))
        field = np.empty(shape + (3,))
        mask = np.empty(shape, bool)

        def kernel(block, planes):
            np.copyto(planes, vectors[block].transpose(2, 0, 1))
            field[block] = planes.transpose(1, 2, 0)
            kind = data.draw(st.sampled_from(["none", "row", "block"]))
            valid = None if kind == "none" else data.draw(
                hnp.arrays(bool, (shape[1],) if kind == "row" else planes.shape[1:])
            )
            mask[block] = True if valid is None else valid
            return valid

        with pytest.MonkeyPatch.context() as patch:
            patch_block_rows(patch, 1, shape[1])
            nm = core._walk(shape, kernel)
        assert arrays(nm) == arrays(NormalMap.from_components(field, mask))

    def test_memory_of_a_1024_px_from_components(self):
        # the 33 MiB result and one block of scratch; the whole-array version
        # peaked at 82 MiB, and one that copies its result again at 67 MiB
        vectors = np.random.default_rng(0).standard_normal((1024, 1024, 3))
        tracemalloc.start()
        try:
            NormalMap.from_components(vectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20
