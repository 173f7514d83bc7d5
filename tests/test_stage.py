import json
import tracemalloc

import numpy as np
import pytest
from conftest import outcome
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gradientstage import core
from gradientstage.core import Condition, Image, NormalMap, unit
from gradientstage.stage import (
    LedRecord,
    LightStage,
    SceneSpec,
    _icosahedron,
    _ilt_levels,
    generate_icosphere_directions,
    gradient_intensity,
    make_cylinder_scene,
    make_sphere_scene,
    render_lambert_analytic,
    render_lambert_discrete,
    render_specular_analytic,
    stage_directions,
)

unit_vectors = st.builds(
    lambda a, b: np.array(
        [np.cos(a) * np.cos(b), np.sin(a) * np.cos(b), np.sin(b)]
    ),
    st.floats(0, 2 * np.pi),
    st.floats(-np.pi / 2, np.pi / 2),
)

# directions a LightStage can hold: unit() leaves them unchanged
stage_unit_vectors = unit_vectors.map(unit).filter(lambda d: np.array_equal(unit(d), d))

SUPPORTED_STAGES = {12: 0, 41: 2, 42: 1, 162: 2, 642: 3}


def former_subdivide(verts, faces):
    """The former icosphere subdivision: shared edge midpoints found by
    their coordinates rounded to 12 digits."""
    verts = [tuple(v) for v in verts]
    index = {}

    def key(v):
        return tuple(np.round(v, 12))

    for i, v in enumerate(verts):
        index[key(np.asarray(v))] = i

    def midpoint(a, b):
        m = np.asarray(verts[a]) + np.asarray(verts[b])
        m /= np.linalg.norm(m)
        k = key(m)
        if k not in index:
            index[k] = len(verts)
            verts.append(tuple(m))
        return index[k]

    out = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
    return np.asarray(verts), out


def former_select_hemisphere(directions, axis, count):
    """The former general selection: the count directions of largest dot
    product against axis, in input order, ties broken by input order."""
    order = np.argsort(-(directions @ unit(axis)), kind="stable")
    return directions[np.sort(order[:count])]


def supported_directions(count):
    """The LED directions of each supported stage, built by the former
    construction."""
    v, f = _icosahedron()
    for _ in range(SUPPORTED_STAGES[count]):
        v, f = former_subdivide(v, f)
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    if count == 41:
        return former_select_hemisphere(v, (0, 0, 1), 41)
    return v


def former_make_cylinder_scene(width, height, radius_px, albedo=1.0):
    """The former cylinder maker: a tiled row, stacked, then normalized."""
    if not 0 < 2 * radius_px <= width:
        raise ValueError("cylinder radius must be positive and fit in the image")
    x = np.arange(width) - (width - 1) / 2.0
    nx = np.tile(x / radius_px, (height, 1))
    inside = np.abs(nx) <= 1.0
    nz = np.sqrt(np.maximum(1.0 - nx**2, 0.0))
    nm = NormalMap.from_components(np.stack([nx, np.zeros_like(nx), nz], axis=2), inside)
    return SceneSpec(nm, albedo, 1.0, np.zeros(6))


def former_make_sphere_scene(width, height, radius_px, albedo=1.0):
    """The former sphere maker: two mgrid frames, stacked, then normalized."""
    if not 0 < 2 * radius_px <= min(width, height):
        raise ValueError("sphere radius must be positive and fit in the image")
    y, x = np.mgrid[0:height, 0:width].astype(float)
    nx = (x - (width - 1) / 2.0) / radius_px
    ny = (y - (height - 1) / 2.0) / radius_px
    r2 = nx**2 + ny**2
    inside = r2 <= 1.0
    nz = np.sqrt(np.maximum(1.0 - r2, 0.0))
    nm = NormalMap.from_components(np.stack([nx, ny, nz], axis=2), inside)
    return SceneSpec(nm, albedo, 1.0, np.zeros(6))


def former_render_lambert_analytic(scene, condition):
    """The former analytic renderer: whole-frame arithmetic on the broadcast
    scene parameters, copied by Image."""
    condition = Condition(condition)
    k = np.pi * scene.albedo * scene.occlusion / 2.0
    mask = scene.true_normals.mask
    if condition is Condition.C:
        return Image(k, mask)
    axis = condition.axis
    n_a = scene.true_normals.normals[:, :, axis]
    d_a = scene.distortion[:, :, axis]
    if condition.is_complement:
        term = d_a + scene.distortion[:, :, axis + 3] - n_a / 3.0 + 0.5
    else:
        term = d_a + n_a / 3.0 + 0.5
    r = k * term
    return Image(r, mask & (r >= 0))


def gradient_intensity_reference(direction, condition):
    """The former one-LED law: normalize, then (g+1)/2 of the signed axis."""
    condition = Condition(condition)
    if condition is Condition.C:
        return 1.0
    d = unit(direction)
    g = d[condition.axis]
    if condition.is_complement:
        g = -g
    return float((g + 1.0) / 2.0)


def ilt_reference(stage, condition, levels):
    """The per-LED ILT loop: a gradient LED's level rounds its intensity
    half up; a complement LED takes the levels its gradient leaves."""
    condition = Condition(condition)
    gradient = condition.complement if condition.is_complement else condition
    out = []
    for led in stage.leds:
        p = gradient_intensity_reference(led.direction, gradient)
        level = int(np.floor(p * (levels - 1) + 0.5))
        out.append(levels - 1 - level if condition.is_complement else level)
    return out


def led_weights_reference(stage, condition, levels=None, led_gain=None):
    """Each LED's drive p_i as the discrete renderer weighs it."""
    p = gradient_intensity(stage.directions, condition)
    if levels is not None:
        p = _ilt_levels(stage.directions, condition, levels) / (levels - 1)
    if led_gain is not None:
        p = p * np.asarray(led_gain, dtype=float)
    return p


def render_lambert_discrete_reference(scene, stage, condition, levels=None, led_gain=None):
    """The former renderer: one (H, W, N) cosine tensor built by einsum."""
    dirs = stage.directions
    p = led_weights_reference(stage, condition, levels, led_gain)
    nm = scene.true_normals
    cos = np.einsum("hwc,nc->hwn", nm.normals, dirs)
    np.maximum(cos, 0.0, out=cos)
    r = (4.0 * np.pi / len(dirs)) * (scene.albedo / 2.0) * (cos @ p)
    return Image(r, nm.mask & (r >= 0))


def render_rounding_bound(scene, stage, condition, levels=None, led_gain=None):
    """How far two discrete renders that sum the same terms in different
    orders may differ at each pixel.

    A computed dot product of length k is off by at most about k eps / 2
    times the dot product of the absolute values. Each render forms the
    three-term cosines n . d_i, sums N weighted terms and scales by the
    quadrature constant, so two renders differ by at most (N + 6) eps
    times the constant times sum_i |p_i| |n| . |d_i|. The bound holds where
    the cosines nearly cancel, which a bound relative to the result cannot.
    """
    dirs = stage.directions
    p = led_weights_reference(stage, condition, levels, led_gain)
    magnitude = np.abs(scene.true_normals.normals) @ np.abs(dirs).T @ np.abs(p)
    constant = (4.0 * np.pi / len(dirs)) * (scene.albedo / 2.0)
    return (len(dirs) + 6) * np.finfo(float).eps * constant * magnitude


class TestIcosphere:
    @pytest.mark.parametrize("sub,count", [(0, 12), (1, 42), (2, 162), (3, 642)])
    def test_vertex_counts(self, sub, count):
        assert len(generate_icosphere_directions(sub)) == count

    def test_unit_length(self):
        dirs = generate_icosphere_directions(2)
        assert np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) < 1e-12

    def test_unsupported_subdivision(self):
        with pytest.raises(ValueError):
            generate_icosphere_directions(4)

    def test_centrally_symmetric(self):
        dirs = generate_icosphere_directions(1)
        d2 = ((dirs[:, None] + dirs[None, :]) ** 2).sum(-1)
        assert np.all(d2.min(axis=1) < 1e-18)


class TestSelectHemisphere:
    """The 41-LED stage: the front (+z) hemisphere of the 162."""

    def test_41_front_facing(self):
        dirs = generate_icosphere_directions(2)
        sel = stage_directions(41)
        assert len(sel) == 41
        cutoff = np.sort(dirs[:, 2])[-41]
        assert np.all(sel[:, 2] >= cutoff - 1e-12)


class TestStageDirections:
    @pytest.mark.parametrize("count", sorted(SUPPORTED_STAGES))
    def test_supported_counts(self, count):
        dirs = stage_directions(count)
        assert dirs.shape == (count, 3)
        assert dirs.tobytes() == supported_directions(count).tobytes()

    @given(st.integers(-1000, 100_000).filter(lambda n: n not in SUPPORTED_STAGES))
    def test_other_counts_raise(self, count):
        with pytest.raises(ValueError, match=f"unsupported LED count {count}; use 12, 42"):
            stage_directions(count)


class TestGradientIntensity:
    def test_formula_endpoints(self):
        assert gradient_intensity((1, 0, 0), Condition.X) == 1.0
        assert gradient_intensity((-1, 0, 0), Condition.X) == 0.0

    def test_complement_flip(self):
        d = np.array([0.5, 0.0, np.sqrt(0.75)])
        assert gradient_intensity(d, Condition.XBAR) == pytest.approx(0.25)

    def test_constant_full_power(self):
        assert gradient_intensity((0, 1, 0), Condition.C) == 1.0

    @given(unit_vectors)
    def test_complement_sum_is_one(self, d):
        for cond in (Condition.X, Condition.Y, Condition.Z):
            total = gradient_intensity(d, cond) + gradient_intensity(d, cond.complement)
            assert total == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(stage_unit_vectors, min_size=1, max_size=30), st.sampled_from(list(Condition)))
    def test_array_law_equals_one_led_law(self, dirs, cond):
        dirs = np.array(dirs)
        want = np.array([gradient_intensity_reference(d, cond) for d in dirs])
        got = gradient_intensity(dirs, cond)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("count", sorted(SUPPORTED_STAGES))
    def test_array_law_on_supported_stages(self, count):
        dirs = LightStage.from_directions(stage_directions(count)).directions
        for cond in Condition:
            want = [gradient_intensity_reference(d, cond) for d in dirs]
            np.testing.assert_array_equal(gradient_intensity(dirs, cond), want)


class TestIlt:
    """The ILT rounding that the quantized discrete renderer applies."""

    @staticmethod
    def ilt(stage, condition, levels):
        return _ilt_levels(stage.directions, condition, levels).tolist()

    @pytest.fixture
    def stage(self):
        dirs = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 0, 1.0]])
        return LightStage.from_directions(dirs)

    def test_extremes_and_half(self, stage):
        levels = self.ilt(stage, Condition.X, 4096)
        assert levels[0] == 4095  # intensity 1.0
        assert levels[1] == 0  # intensity 0.0
        assert levels[2] == 2048  # 0.5 rounds half up: round(0.5 * 4095)
        # the complement takes the levels the gradient leaves
        assert self.ilt(stage, Condition.XBAR, 4096) == [0, 4095, 2047]

    def test_levels_in_range(self, stage):
        for cond in Condition:
            for level in self.ilt(stage, cond, 4096):
                assert 0 <= level <= 4095

    @given(
        st.lists(stage_unit_vectors, min_size=1, max_size=30),
        st.integers(2, 70_000),
        st.sampled_from(list(Condition)),
    )
    def test_equals_per_led_loop(self, dirs, levels, cond):
        stage = LightStage.from_directions(dirs)
        assert self.ilt(stage, cond, levels) == ilt_reference(stage, cond, levels)

    @pytest.mark.parametrize("count", sorted(SUPPORTED_STAGES))
    @pytest.mark.parametrize("levels", [2, 4, 256, 4096])
    def test_supported_stages_equal_per_led_loop(self, count, levels):
        stage = LightStage.from_directions(stage_directions(count))
        for cond in Condition:
            assert self.ilt(stage, cond, levels) == ilt_reference(stage, cond, levels)

    def test_quantization_floor(self):
        stage = LightStage.from_directions(np.array([[0, 0, 1.0]]))
        scene = make_sphere_scene(5, 5, 2)
        with pytest.raises(ValueError, match="need at least 2 ILT levels, got 1"):
            render_lambert_discrete(scene, stage, Condition.X, levels=1)

    @given(
        st.sampled_from(sorted(SUPPORTED_STAGES)),
        st.integers(2, 4096),
        st.sampled_from([Condition.X, Condition.Y, Condition.Z]),
        st.none() | st.floats(0.5, 1.5),
    )
    def test_gradient_and_complement_sum_to_the_constant(self, count, levels, cond, gain):
        # at every LED, so quantized renders keep r_a + r_abar = r_c; an LED
        # at a zero coordinate rounds half up under both, which broke it
        stage = LightStage.from_directions(stage_directions(count))
        dirs = stage.directions
        total = _ilt_levels(dirs, cond, levels) + _ilt_levels(dirs, cond.complement, levels)
        assert np.all(total == levels - 1)
        scene = make_sphere_scene(7, 7, 3)
        kw = {"levels": levels, "led_gain": None if gain is None else np.full(count, gain)}
        r, rbar, rc = (render_lambert_discrete(scene, stage, c, **kw).samples
                       for c in (cond, cond.complement, Condition.C))
        m = scene.true_normals.mask
        np.testing.assert_allclose((r + rbar)[m], rc[m], rtol=1e-12)


class TestAnalyticRender:
    def test_frontal_z_gradient(self):
        scene = make_sphere_scene(9, 9, 4)
        img = render_lambert_analytic(scene, Condition.Z)
        assert img.samples[4, 4] == pytest.approx(5 * np.pi / 12, abs=1e-9)

    def test_frontal_constant(self):
        scene = make_sphere_scene(9, 9, 4)
        img = render_lambert_analytic(scene, Condition.C)
        assert img.samples[4, 4] == pytest.approx(np.pi / 2, abs=1e-12)

    def test_distortion_term(self):
        scene = make_sphere_scene(9, 9, 4)
        distorted = SceneSpec(
            scene.true_normals, 1.0, 1.0, np.array([0.1, 0, 0, 0, 0, 0])
        )
        img = render_lambert_analytic(distorted, Condition.X)
        assert img.samples[4, 4] == pytest.approx(0.3 * np.pi, abs=1e-12)

    @pytest.mark.parametrize(
        "albedo, occlusion, distortion",
        [(np.nan, 1.0, 0.0), (1.0, np.nan, 0.0), (1.0, 1.0, [np.nan] * 6)],
    )
    def test_nan_scene_parameters_rejected(self, albedo, occlusion, distortion):
        nm = make_sphere_scene(8, 8, 3).true_normals
        with pytest.raises(ValueError):
            SceneSpec(nm, albedo, occlusion, distortion)

    def test_scene_parameters_are_read_only_views_of_private_copies(self):
        nm = make_sphere_scene(8, 8, 3).true_normals
        albedo = np.full((8, 8), 0.5)
        distortion = np.array([0.1, 0, 0, 0, 0, 0])
        scene = SceneSpec(nm, albedo, 1.0, distortion)
        albedo[...] = 0.25
        distortion[0] = 0.3
        assert np.all(scene.albedo == 0.5) and np.all(scene.distortion[..., 0] == 0.1)
        for a in (scene.albedo, scene.occlusion, scene.distortion):
            assert not a.flags.writeable
        # a constant is one value broadcast over the grid, not a frame
        assert scene.occlusion.strides == (0, 0)
        assert scene.distortion.shape == (8, 8, 6) and scene.distortion.strides[:2] == (0, 0)

    def test_scene_parameters_are_checked_at_valid_pixels_only(self):
        nm = make_sphere_scene(8, 8, 3).true_normals
        outside = ~nm.mask
        distortion = np.zeros((8, 8, 6))
        distortion[outside, 2] = np.nan
        albedo = np.where(outside, 7.0, 0.5)
        SceneSpec(nm, albedo, np.where(outside, np.nan, 1.0), distortion)
        distortion[4, 4, 5] = np.inf
        with pytest.raises(ValueError, match="distortion"):
            SceneSpec(nm, albedo, 1.0, distortion)
        with pytest.raises(ValueError, match="albedo"):
            SceneSpec(nm, np.where(outside, 0.5, 7.0), 1.0, 0.0)

    def test_complement_constraint_ideal(self):
        scene = make_sphere_scene(33, 33, 15)
        for cond in (Condition.X, Condition.Y, Condition.Z):
            r = render_lambert_analytic(scene, cond)
            rbar = render_lambert_analytic(scene, cond.complement)
            rc = render_lambert_analytic(scene, Condition.C)
            m = scene.true_normals.mask
            np.testing.assert_allclose(
                (r.samples + rbar.samples)[m], rc.samples[m], atol=1e-12
            )


    @given(st.data(), st.integers(1, 12), st.integers(1, 12), st.sampled_from(list(Condition)))
    def test_equals_the_former_renderer(self, data, h, w, cond):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        v = rng.normal(size=(h, w, 3))
        mask = rng.random((h, w)) < 0.8
        nm = NormalMap.from_components(v, mask)

        def parameter(low, high, channels=()):
            """A constant, a row or one value per pixel; NaN at invalid pixels
            of a per-pixel value."""
            form = data.draw(st.sampled_from(["constant", "row", "column", "pixel"]))
            if form == "constant":
                return rng.uniform(low, high, channels)
            if form == "row":
                return rng.uniform(low, high, (w,) + channels)
            if form == "column":
                return rng.uniform(low, high, (h, 1) + channels)
            values = rng.uniform(low, high, (h, w) + channels)
            values[~nm.mask] = np.nan
            return values

        # distortions of either sign, so that r < 0 at some valid pixels
        special = data.draw(st.sampled_from([None, 0.0, -0.0, 1e308, -1e308]))
        distortion = parameter(-1.0, 1.0, (6,))
        if special is not None:
            distortion = np.full(6, special)
        scene = SceneSpec(nm, parameter(0.0, 1.0), parameter(0.0, 1.0), distortion)
        assert outcome(render_lambert_analytic, scene, cond) == outcome(
            former_render_lambert_analytic, scene, cond
        )


class TestDiscreteRender:
    def make_stage(self, sub):
        return LightStage.from_directions(generate_icosphere_directions(sub))

    def test_642_within_2pct_of_analytic(self):
        scene = make_sphere_scene(5, 5, 2)
        img = render_lambert_discrete(scene, self.make_stage(3), Condition.C)
        assert img.samples[2, 2] == pytest.approx(np.pi / 2, rel=0.02)

    def test_coarser_stage_larger_error(self):
        scene = make_sphere_scene(17, 17, 7)
        analytic = render_lambert_analytic(scene, Condition.X)
        m = scene.true_normals.mask
        errors = []
        for sub in (0, 1, 3):
            img = render_lambert_discrete(scene, self.make_stage(sub), Condition.X)
            errors.append(np.abs(img.samples - analytic.samples)[m].mean())
        assert errors[2] < errors[1] < errors[0]

    def test_all_leds_occluded_is_dark(self):
        scene = make_sphere_scene(5, 5, 2)
        stage = self.make_stage(0)
        img = render_lambert_discrete(scene, stage, Condition.C, led_gain=np.zeros(12))
        assert np.all(img.samples == 0.0)

    def test_ilt_quantization_path(self):
        scene = make_sphere_scene(5, 5, 2)
        stage = LightStage.from_directions(generate_icosphere_directions(1))
        plain = render_lambert_discrete(scene, stage, Condition.X)
        quantized = render_lambert_discrete(scene, stage, Condition.X, levels=4)
        assert not np.array_equal(plain.samples, quantized.samples)
        # coarse 4-level quantization still lands near the unquantized value
        np.testing.assert_allclose(
            quantized.samples[2, 2], plain.samples[2, 2], rtol=0.25
        )

    def test_complement_constraint_exact_for_common_led_set(self):
        # per-LED intensities of a gradient and its complement sum to 1,
        # so the constraint survives discretization exactly
        scene = make_sphere_scene(9, 9, 4)
        stage = self.make_stage(1)
        rx = render_lambert_discrete(scene, stage, Condition.X)
        rxb = render_lambert_discrete(scene, stage, Condition.XBAR)
        rc = render_lambert_discrete(scene, stage, Condition.C)
        m = scene.true_normals.mask
        np.testing.assert_allclose(
            (rx.samples + rxb.samples)[m], rc.samples[m], rtol=1e-12
        )

    @given(st.lists(st.booleans(), min_size=42, max_size=42).filter(any),
           st.sampled_from(list(Condition)))
    def test_hidden_leds_drop_out_of_the_sum(self, bits, cond):
        # switching LEDs off (zero gain) equals a stage of the visible ones
        # reweighted from 4 pi / N to 4 pi / n
        stage = self.make_stage(1)
        vis = np.array(bits)
        scene = make_sphere_scene(7, 7, 3)
        per_led = render_lambert_discrete(scene, stage, cond, led_gain=vis.astype(float)).samples
        visible = LightStage.from_directions(stage.directions[vis])
        want = render_lambert_discrete(scene, visible, cond).samples * vis.sum() / 42
        np.testing.assert_allclose(per_led, want, rtol=1e-12, atol=1e-15)

    @given(
        st.sampled_from([0, 1]),
        st.sampled_from(list(Condition)[:6]),
        st.data(),
    )
    def test_complement_constraint_for_any_visible_set_and_gain(self, sub, cond, data):
        # gradient + complement = constant for any LED subset (the LEDs
        # left on) and any per-LED gain the two share
        stage = self.make_stage(sub)
        n = len(stage.leds)
        vis = data.draw(arrays(np.bool_, n))
        gain = data.draw(arrays(np.float64, n, elements=st.floats(0.5, 1.5)))
        scene = make_sphere_scene(7, 7, 3)
        kw = {"led_gain": vis * gain}
        r = render_lambert_discrete(scene, stage, cond, **kw).samples
        rbar = render_lambert_discrete(scene, stage, cond.complement, **kw).samples
        rc = render_lambert_discrete(scene, stage, Condition.C, **kw).samples
        m = scene.true_normals.mask
        np.testing.assert_allclose((r + rbar)[m], rc[m], rtol=1e-12)


    @given(
        st.integers(1, 40),
        st.integers(1, 40),
        st.sampled_from([12, 41, 162]),
        st.sampled_from(list(Condition)),
        st.booleans(),
        st.sampled_from(["one pixel", "uneven", "default"]),
        st.data(),
    )
    def test_blocked_render_equals_einsum_reference(
        self, width, height, count, cond, quantize, block, data
    ):
        # random normals in every direction, a fifth of the pixels masked
        rng = np.random.default_rng([width, height, count])
        normals = NormalMap.from_components(
            rng.standard_normal((height, width, 3)), rng.random((height, width)) > 0.2
        )
        scene = SceneSpec(normals, 0.7, 1.0, np.zeros(6))
        stage = LightStage.from_directions(stage_directions(count))
        levels = 256 if quantize else None
        gain = data.draw(st.none() | st.lists(st.floats(0.5, 1.5), min_size=count, max_size=count))
        pixels = max(1, int(normals.mask.sum()))  # the renderer walks the valid pixels
        with pytest.MonkeyPatch.context() as patch:
            if block == "one pixel":
                patch.setattr(core, "_CHUNK_BYTES", 8 * count)
            elif block == "uneven":
                per_block = data.draw(st.integers(2, pixels + 1).filter(lambda k: pixels % k))
                patch.setattr(core, "_CHUNK_BYTES", 8 * count * per_block)
            kw = {"levels": levels, "led_gain": gain}
            got = render_lambert_discrete(scene, stage, cond, **kw)
        want = render_lambert_discrete_reference(scene, stage, cond, **kw)
        np.testing.assert_array_equal(got.mask, want.mask)
        bound = render_rounding_bound(scene, stage, cond, levels, gain)
        assert np.all(np.abs(got.samples - want.samples) <= bound)

    def test_memory_does_not_grow_with_led_count(self):
        # the (H, W, N) cosine tensor of this render would be 337 MB
        scene = make_sphere_scene(256, 256, 100)
        stage = self.make_stage(3)
        tracemalloc.start()
        try:
            render_lambert_discrete(scene, stage, Condition.X, levels=4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestSpecularRender:
    def test_frontal_mirror(self):
        refl = make_sphere_scene(3, 3, 1).true_normals
        img = render_specular_analytic(refl, 1.0, Condition.Z)
        assert img.samples[1, 1] == pytest.approx(1.0)

    def test_side_mirror(self):
        from gradientstage.core import NormalMap

        u = NormalMap.from_components(np.array([[[1.0, 0.0, 0.0]]]))
        assert render_specular_analytic(u, 1.0, Condition.X).samples[0, 0] == pytest.approx(1.0)
        assert render_specular_analytic(u, 1.0, Condition.Y).samples[0, 0] == pytest.approx(0.5)

    def test_constant_is_lobe_strength(self):
        refl = make_sphere_scene(3, 3, 1).true_normals
        assert render_specular_analytic(refl, 0.8, Condition.C).samples[1, 1] == pytest.approx(0.8)


class TestScenes:
    def test_cylinder_center_and_edge(self):
        scene = make_cylinder_scene(21, 5, 10)
        nm = scene.true_normals
        np.testing.assert_allclose(nm.normals[2, 10], [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(nm.normals[2, 0], [-1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(nm.normals[2, 20], [1, 0, 0], atol=1e-12)

    def test_sphere_center_pixel(self):
        scene = make_sphere_scene(21, 21, 9)
        np.testing.assert_allclose(scene.true_normals.normals[10, 10], [0, 0, 1], atol=1e-12)

    def test_background_masked(self):
        scene = make_sphere_scene(21, 21, 5)
        assert not scene.true_normals.mask[0, 0]

    def test_degenerate_radius_rejected(self):
        with pytest.raises(ValueError):
            make_sphere_scene(21, 21, 0)
        with pytest.raises(ValueError):
            make_cylinder_scene(10, 10, 20)

    @given(st.integers(1, 40), st.integers(1, 40), st.data())
    @pytest.mark.parametrize(
        "maker, former",
        [(make_sphere_scene, former_make_sphere_scene),
         (make_cylinder_scene, former_make_cylinder_scene)],
    )
    def test_equals_the_former_maker(self, maker, former, width, height, data):
        bound = (min(width, height) if maker is make_sphere_scene else width) / 2.0
        radius = data.draw(st.one_of(
            st.sampled_from([bound, np.nextafter(bound, np.inf), 0.0, -1.0, np.nan, 5e-324]),
            st.floats(0.0, bound, exclude_min=True),
        ))

        def normals(*args):
            return maker(*args).true_normals

        def former_normals(*args):
            return former(*args).true_normals

        assert outcome(normals, width, height, radius) == outcome(
            former_normals, width, height, radius
        )

    @pytest.mark.parametrize("height", [0, -3])
    def test_cylinder_rejects_an_empty_frame(self, height):
        with pytest.raises(ValueError, match="height"):
            make_cylinder_scene(10, height, 2)

    def test_sphere_traced_peak_at_1024(self):
        # the map's own arrays are 33 MiB; the former maker peaked at 108
        tracemalloc.start()
        try:
            make_sphere_scene(1024, 1024, 409.6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    @pytest.mark.parametrize("maker", [make_sphere_scene, make_cylinder_scene])
    def test_nan_radius_rejected(self, maker):
        with pytest.raises(ValueError, match="radius"):
            maker(8, 8, np.nan)


class TestStageJson:
    def test_round_trip(self):
        stage = LightStage.from_directions(generate_icosphere_directions(0))
        assert [*json.loads(stage.to_json())[0]] == ["id", "lx", "ly", "lz"]
        back = LightStage.from_json(stage.to_json())
        np.testing.assert_allclose(back.directions, stage.directions, atol=1e-15)

    @pytest.mark.parametrize("count", sorted(SUPPORTED_STAGES))
    def test_file_holds_the_whole_stage(self, count):
        stage = LightStage.from_directions(stage_directions(count))
        back = LightStage.from_json(stage.to_json())
        assert [led.id for led in back.leds] == [led.id for led in stage.leds]
        assert back.directions.tobytes() == stage.directions.tobytes()

    def test_repeated_id_rejected(self):
        text = json.dumps([{"id": 3, "lx": 0, "ly": 0, "lz": 1}, {"id": 3, "lx": 1, "ly": 0, "lz": 0}])
        with pytest.raises(ValueError, match="repeated LED id 3"):
            LightStage.from_json(text)
        with pytest.raises(ValueError, match="repeated LED id 7"):
            LightStage([LedRecord(7, (0, 0, 1)), LedRecord(1, (1, 0, 0)), LedRecord(7, (0, 1, 0))])
