import weakref

import numpy as np
import pytest
from conftest import max_angular_error, outcome
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from gradientstage import sequencer
from gradientstage.alignment import FlowField, warp_image, warp_normals
from gradientstage.core import Condition, GradientImageSet, Image, NormalMap, angular_error_map
from gradientstage.photometric import _difference_components, recover_minimal
from gradientstage.sequencer import (
    CaptureSequence,
    generate_sequence,
    image_count,
    intermediate_warped_normal,
    process_sequence,
    tracking_frame_normal,
    validate_sequence,
)
from gradientstage.stage import SceneSpec, make_sphere_scene, render_lambert_analytic

C = Condition


def conds(*names):
    return tuple(Condition(n) for n in names)


def to_csv_reference(seq):
    """The former labelling loop: argmin over every tracking frame."""
    lines = ["frame_index,condition,subsequence_label"]
    centers = seq.tracking_indices
    for i, f in enumerate(seq.frames):
        if centers:
            nearest = int(np.argmin([abs(i - c) for c in centers]))
            label = seq.labels[nearest] if nearest < len(seq.labels) else ""
        else:
            label = ""
        lines.append(f"{i},{f.value},{label}")
    return "\n".join(lines) + "\n"


class TestImageCount:
    @pytest.mark.parametrize(
        "n,wilson,minimal",
        [(1, 7, 5), (2, 11, 9), (3, 15, 11), (4, 19, 15), (5, 23, 17), (6, 27, 21)],
    )
    def test_reproduces_table(self, n, wilson, minimal):
        assert image_count(n, "wilson") == wilson
        assert image_count(n, "minimal") == minimal

    def test_closed_forms_to_50(self):
        for n in range(1, 51):
            assert image_count(n, "wilson") == 4 * n + 3
            expected = 6 * (n // 2 + 1) - 1 if n % 2 else 3 * n + 3
            assert image_count(n, "minimal") == expected

    def test_minimal_always_beats_wilson(self):
        for n in range(1, 51):
            assert image_count(n, "minimal") < image_count(n, "wilson")

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            image_count(0, "minimal")


class TestGenerateSequence:
    def test_n1_verbatim(self):
        seq = generate_sequence(1)
        assert seq.frames == conds("x", "z", "c", "y", "xb")

    def test_n3_expanded_unit_sequence(self):
        seq = generate_sequence(3)
        assert seq.frames == conds(
            "x", "z", "c", "y", "xb", "c", "zb", "yb", "c", "x", "z"
        )

    def test_first_unit_labels(self):
        assert generate_sequence(3).labels == ("s_x", "s_ybar", "s_zbar")

    def test_all_generated_sequences_valid(self):
        for n in range(1, 21):
            seq = generate_sequence(n)
            assert validate_sequence(seq) == [], f"n={n}"

    def test_counts_and_tracking_frames_to_50(self):
        for n in range(1, 51):
            seq = generate_sequence(n)
            assert len(seq.frames) == image_count(n, "minimal")
            assert len(seq.tracking_indices) == n

    def test_windows_cover_axes_with_base_pair_outermost(self):
        for n in range(1, 25):
            seq = generate_sequence(n)
            for c in seq.tracking_indices:
                w = seq.frames[c - 2 : c + 3]
                assert w[0].complement is w[4]
                assert {w[0].axis, w[1].axis, w[3].axis} == {0, 1, 2}

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            generate_sequence(0)


class TestValidateSequence:
    def test_alternate_window_order_accepted(self):
        # base pair outermost and all axes covered: structurally fine
        seq = CaptureSequence(conds("x", "y", "c", "z", "xb"))
        assert validate_sequence(seq) == []

    @pytest.mark.parametrize("frames", [(), ("x", "y", "z")], ids=["empty", "gradients-only"])
    def test_no_tracking_frame_flagged(self, frames):
        assert "no tracking frame" in validate_sequence(CaptureSequence(conds(*frames)))

    def test_early_tracking_frame_flagged(self):
        seq = CaptureSequence(conds("x", "c", "y", "z", "xb"))
        assert any("complete 5-frame window" in v for v in validate_sequence(seq))

    def test_wilson_spacing_flagged(self):
        seq = CaptureSequence(conds("x", "y", "z", "c", "xb", "yb", "zb", "c", "x", "y", "z"))
        assert any("rule 2" in v for v in validate_sequence(seq))

    def test_non_complement_ends_flagged(self):
        seq = CaptureSequence(conds("x", "y", "c", "z", "yb"))
        assert any("rule 1" in v for v in validate_sequence(seq))

    def test_missing_axis_flagged(self):
        seq = CaptureSequence(conds("x", "y", "c", "yb", "xb"))
        assert any("all three axes" in v for v in validate_sequence(seq))

    def test_tracking_frame_inside_a_window_flagged(self):
        seq = CaptureSequence(conds("x", "c", "c", "y", "xb"))
        assert "window at 2 contains another tracking frame" in validate_sequence(seq)

    def test_forbidden_units_flagged(self):
        seq = CaptureSequence(
            generate_sequence(3).frames, ("s_x", "s_y", "s_z")
        )
        assert any("impossible unit" in v for v in validate_sequence(seq))
        seq = CaptureSequence(
            generate_sequence(3).frames, ("s_xbar", "s_ybar", "s_zbar")
        )
        assert any("impossible unit" in v for v in validate_sequence(seq))


class TestCsvRoundTrip:
    def test_round_trip(self):
        seq = generate_sequence(4)
        back = CaptureSequence.from_csv(seq.to_csv())
        assert back.frames == seq.frames
        assert back.labels == seq.labels

    def test_header(self):
        assert generate_sequence(1).to_csv().splitlines()[0] == (
            "frame_index,condition,subsequence_label"
        )

    @given(st.integers(1, 199), st.integers(0, 200))
    def test_generated_matches_reference(self, n, keep):
        seq = generate_sequence(n)
        seq = CaptureSequence(seq.frames, seq.labels[:keep])
        assert seq.to_csv() == to_csv_reference(seq)

    @given(
        st.lists(st.sampled_from(list(Condition)), max_size=40),
        st.lists(st.sampled_from(["s_x", "s_ybar", "s_z"]), max_size=20),
    )
    def test_ties_go_to_the_earlier_tracking_frame(self, frames, labels):
        # arbitrary spacing makes frames equidistant from two tracking frames
        seq = CaptureSequence(tuple(frames), tuple(labels))
        assert seq.to_csv() == to_csv_reference(seq)

    def test_long_sequence(self):
        seq = generate_sequence(100_000)
        assert len(seq.to_csv().splitlines()) == len(seq.frames) + 1

    @given(st.integers(1, 60), st.integers(0, 60))
    def test_round_trip_with_labels_cut_to_a_prefix(self, n, keep):
        seq = generate_sequence(n)
        seq = CaptureSequence(seq.frames, seq.labels[:keep])
        assert CaptureSequence.from_csv(seq.to_csv()) == seq

    def test_rejects_a_labelled_tracking_row_after_an_unlabelled_one(self):
        # blanking the first tracking row's label once shifted every later
        # label onto the tracking frame before its own
        header, *rows = generate_sequence(3).to_csv().splitlines()
        assert rows[2] == "2,c,s_x"
        rows[2] = "2,c,"
        with pytest.raises(ValueError, match="row 6 labels a tracking frame after unlabelled row 3"):
            CaptureSequence.from_csv("\n".join([header, *rows]))

    def test_rejects_reversed_rows(self):
        # the reversed frames form a sequence that validate_sequence accepts,
        # so taking them in row order would mislabel every frame file
        header, *rows = generate_sequence(2).to_csv().splitlines()
        reversed_frames = [Condition(r.split(",")[1]) for r in reversed(rows)]
        assert validate_sequence(CaptureSequence(tuple(reversed_frames))) == []
        with pytest.raises(ValueError, match="row 1 has frame_index 8, expected 0"):
            CaptureSequence.from_csv("\n".join([header, *reversed(rows)]))

    def test_rejects_a_repeated_index(self):
        for rows in ("5,x,\n5,z,\n5,c,s_x", "0,x,\n1,z,\n1,c,s_x"):
            with pytest.raises(ValueError, match="frame_index [15], expected [02]"):
                CaptureSequence.from_csv("frame_index,condition,subsequence_label\n" + rows)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,q,", "sequence row 2: 'q' is not a valid Condition"),
            ("1.5,z,", "sequence row 2: invalid literal for int() with base 10: '1.5'"),
            ("1", "sequence row 2: '' is not a valid Condition"),
        ],
        ids=["condition", "fractional-index", "one-cell"],
    )
    def test_names_the_row_that_does_not_parse(self, row, message):
        text = f"frame_index,condition,subsequence_label\n0,x,\n{row}\n"
        with pytest.raises(ValueError) as info:
            CaptureSequence.from_csv(text)
        assert str(info.value) == message


def analytic_frames(scene, sequence):
    return [render_lambert_analytic(scene, cond if cond is not C.C else C.C) for cond in sequence.frames]


def former_tracking_frame_normal(window, flow_first, flow_last):
    """The former tracking-frame normal: a 5-frame (condition, image) list,
    its inner frames warped by half the end flows, and the complement
    differences combined by hand rather than through recover_minimal."""
    if flow_first is None or flow_last is None:
        raise ValueError("missing flow for the window's base pair")
    if len(window) != 5:
        raise ValueError("window must contain exactly 5 frames")
    conds = [Condition(c) for c, _ in window]
    imgs = [img for _, img in window]
    if conds[2] is not Condition.C:
        raise ValueError("window center must be the tracking frame")
    if conds[0].complement is not conds[4]:
        raise ValueError("window ends must be a base complement pair")
    first_w = warp_image(imgs[0], flow_first)
    last_w = warp_image(imgs[4], flow_last)
    inner_l = warp_image(imgs[1], flow_first.scaled(0.5))
    inner_r = warp_image(imgs[3], flow_last.scaled(0.5))
    samples = {
        conds[0]: first_w.samples, conds[1]: inner_l.samples,
        conds[3]: inner_r.samples, conds[4]: last_w.samples,
    }
    comp = _difference_components(samples, first_w.samples + last_w.samples)
    mask = first_w.mask & last_w.mask & inner_l.mask & inner_r.mask
    return NormalMap.from_components(comp, mask)


def window_flows(conditions, flow_first, flow_last):
    """The four gradient frames' flows of a 5-frame window, as
    process_sequence builds them: the inner frames move half as far."""
    first, inner_l, _, inner_r, last = conditions
    return {
        first: flow_first, inner_l: flow_first.scaled(0.5),
        inner_r: flow_last.scaled(0.5), last: flow_last,
    }


@st.composite
def flow_fields(draw, shape):
    """Zero, sub-pixel, integer or partly out-of-frame flows with a partial
    mask."""
    vec_shape = shape + (2,)
    kind = draw(st.sampled_from(["zero", "sub-pixel", "integer", "out of frame"]))
    if kind == "zero":
        vec = np.zeros(vec_shape)
    elif kind == "sub-pixel":
        vec = draw(hnp.arrays(float, vec_shape, elements=st.floats(-1.0, 1.0)))
    elif kind == "integer":
        vec = draw(hnp.arrays(np.int64, vec_shape, elements=st.integers(-2, 2))).astype(float)
    else:
        reach = float(max(shape) + 2)
        vec = draw(hnp.arrays(float, vec_shape, elements=st.floats(-reach, reach)))
    return FlowField(vec, draw(hnp.arrays(bool, shape)))


@given(st.data())
@settings(deadline=None)
def test_windows_equal_the_former_tracking_frame_normal(data):
    shape = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    images = {
        c: Image(
            data.draw(hnp.arrays(float, shape, elements=st.floats(0.0, 4.0))),
            data.draw(hnp.arrays(bool, shape)),
        )
        for c in Condition
    }
    seq = generate_sequence(12)  # pure, dual and mixed windows
    for c in seq.tracking_indices:
        conditions = seq.frames[c - 2 : c + 3]
        first, last = data.draw(flow_fields(shape)), data.draw(flow_fields(shape))
        flows = window_flows(conditions, first, last)
        window = [(k, images[k]) for k in conditions]
        assert outcome(tracking_frame_normal, {k: (images[k], f) for k, f in flows.items()}) == outcome(
            former_tracking_frame_normal, window, first, last
        )


class TestTrackingFrameNormal:
    def setup_method(self):
        self.scene = make_sphere_scene(31, 31, 13)
        self.zero = FlowField.zero(self.scene.true_normals.shape)

    def images(self, *names):
        return {Condition(n): render_lambert_analytic(self.scene, n) for n in names}

    def static_window(self, frames):
        return {c: (img, self.zero) for c, img in frames.items()}

    def test_static_equals_recover_minimal_bitwise(self):
        frames = self.images("x", "z", "y", "xb")
        nm = tracking_frame_normal(self.static_window(frames))
        ref = recover_minimal(GradientImageSet(frames), C.X)
        np.testing.assert_array_equal(nm.normals, ref.normals)
        np.testing.assert_array_equal(nm.magnitude, ref.magnitude)
        np.testing.assert_array_equal(nm.mask, ref.mask)

    def test_dual_window_matches_dual_formula(self):
        frames = self.images("y", "xb", "zb", "yb")
        nm = tracking_frame_normal(self.static_window(frames))
        ref = recover_minimal(GradientImageSet(frames), C.Y, dual=True)
        np.testing.assert_array_equal(nm.normals, ref.normals)

    def test_mixed_window_recovers_truth_on_ideal_data(self):
        # the third window of the unit sequence: {zb, yb, x, z}
        frames = self.images("zb", "yb", "x", "z")
        nm = tracking_frame_normal(self.static_window(frames))
        assert max_angular_error(nm, self.scene.true_normals) < 1e-9

    def test_bad_window_rejected(self):
        for names, pairs in [(("x", "xb", "y", "yb"), 2), (("x", "y", "z"), 0)]:
            frames = self.images(*names)
            with pytest.raises(ValueError, match=f"holds {pairs} complement pairs"):
                tracking_frame_normal(self.static_window(frames))

    def test_uniform_translation_recovered_within_degree(self):
        # scene translates 1 px/frame along +x; frames sampled accordingly
        big = make_sphere_scene(41, 41, 13)
        conditions = conds("x", "z", "c", "y", "xb")
        window = []
        for offset, cond in zip(range(-2, 3), conditions):
            img = render_lambert_analytic(big, cond)
            shifted = np.roll(img.samples, offset, axis=1)
            window.append((cond, Image(shifted, np.roll(img.mask, offset, axis=1))))
        h, w = big.true_normals.shape
        flow_first = FlowField(np.broadcast_to([-2.0, 0.0], (h, w, 2)).copy(), np.ones((h, w), bool))
        flow_last = FlowField(np.broadcast_to([2.0, 0.0], (h, w, 2)).copy(), np.ones((h, w), bool))
        flows = window_flows(conditions, flow_first, flow_last)
        nm = tracking_frame_normal({c: (img, flows[c]) for c, img in window if c in flows})
        from gradientstage.core import mean_angular_error

        assert mean_angular_error(nm, big.true_normals) < 1.0


class TestIntermediateWarpedNormal:
    def setup_method(self):
        self.scene = make_sphere_scene(21, 21, 9)
        self.nm = self.scene.true_normals
        self.zero = FlowField.zero(self.nm.shape)

    def test_identical_inputs_any_weights(self):
        out = intermediate_warped_normal([(self.nm, self.zero, 1), (self.nm, self.zero, 5)])
        np.testing.assert_allclose(
            out.normals[out.mask], self.nm.normals[self.nm.mask], atol=1e-12
        )

    def test_weights_follow_opposite_distance(self):
        a = np.zeros((1, 1, 3))
        a[0, 0] = (1.0, 0, 0)
        b = np.zeros((1, 1, 3))
        b[0, 0] = (0, 1.0, 0)
        na = NormalMap.from_components(a)
        nb = NormalMap.from_components(b)
        zero = FlowField.zero((1, 1))
        # t_prev=1, t_next=2: weights 2:1 -> (2a + b) direction
        out = intermediate_warped_normal([(na, zero, 1), (nb, zero, 2)])
        expected = np.array([2.0, 1.0, 0.0]) / np.sqrt(5.0)
        np.testing.assert_allclose(out.normals[0, 0], expected, atol=1e-12)
        # wilson spacing: t_prev=1, t_next=3 -> weights 3:1
        out = intermediate_warped_normal([(na, zero, 1), (nb, zero, 3)])
        expected = np.array([3.0, 1.0, 0.0]) / np.sqrt(10.0)
        np.testing.assert_allclose(out.normals[0, 0], expected, atol=1e-12)

    def test_single_sided_where_one_warp_invalid(self):
        h, w = self.nm.shape
        off = FlowField(np.full((h, w, 2), 1e6), np.ones((h, w), bool))
        out = intermediate_warped_normal([(self.nm, self.zero, 1), (self.nm, off, 1)])
        np.testing.assert_array_equal(out.mask, self.nm.mask)

    def test_one_side_is_its_warp_bitwise(self):
        h, w = self.nm.shape
        rng = np.random.default_rng(0)
        flow = FlowField(rng.uniform(-1.5, 1.5, (h, w, 2)), rng.random((h, w)) < 0.9)
        out = intermediate_warped_normal([(self.nm, flow, 2)])
        ref = warp_normals(self.nm, flow.scaled(-1.0))
        assert out.normals.tobytes() == ref.normals.tobytes()
        assert out.magnitude.tobytes() == ref.magnitude.tobytes()
        assert out.mask.tobytes() == ref.mask.tobytes()

    def test_rejects_bad_distances(self):
        for distances in [(0,), (1, 0), (0, 1), (), (1, 1, 1)]:
            with pytest.raises(ValueError, match="one or two sides"):
                intermediate_warped_normal([(self.nm, self.zero, t) for t in distances])


def processed(seq, frames, iterations):
    """process_sequence into a dict sink: the tracking and the upsampled
    normals, each keyed by frame index."""
    upsampled = {}
    residuals = process_sequence(seq, frames, upsampled.__setitem__, iterations)
    tracking = {c: upsampled.pop(c) for c in residuals}
    return tracking, upsampled


class TestProcessSequence:
    def test_static_scene_degeneracy(self):
        scene = make_sphere_scene(33, 33, 14)
        seq = generate_sequence(3)
        frames = [render_lambert_analytic(scene, f) for f in seq.frames]
        tracking, upsampled = processed(seq, frames, iterations=2)
        assert sorted(tracking) == [2, 5, 8]
        # tracking frames reproduce their zero-flow tracking normal bit for
        # bit, the mixed third window included
        zero = FlowField.zero(frames[0].shape)
        for center in tracking:
            window = {seq.frames[i]: (frames[i], zero) 
                      for i in (center - 2, center - 1, center + 1, center + 2)}
            ref = tracking_frame_normal(window)
            got = tracking[center]
            np.testing.assert_array_equal(got.normals, ref.normals)
        # pure window at the first tracking frame: bitwise equal to recover_minimal
        imgset = GradientImageSet({seq.frames[i]: frames[i] for i in [0, 1, 3, 4]})
        ref = recover_minimal(imgset, Condition.X)
        np.testing.assert_array_equal(tracking[2].normals, ref.normals)
        # single-sided upsampled frames equal their tracking normal bitwise
        np.testing.assert_array_equal(
            upsampled[0].normals, tracking[2].normals
        )
        np.testing.assert_array_equal(
            upsampled[1].normals, tracking[2].normals
        )
        # two-sided upsampled frames blend two windows' normals: equal to
        # the flanking tracking normals to floating-point blending error
        for i in (3, 4, 6, 7):
            err = max_angular_error(upsampled[i], tracking[2])
            assert err < 1e-10

    def test_even_n_with_trailing_frame_processes(self):
        scene = make_sphere_scene(24, 24, 10)
        seq = generate_sequence(2)
        frames = [render_lambert_analytic(scene, f) for f in seq.frames]
        tracking, upsampled = processed(seq, frames, iterations=2)
        assert sorted(tracking) == [2, 5]
        # the extra trailing gradient frame has no flanking window: absent
        assert len(seq.frames) - 1 not in upsampled

    def test_frame_count_mismatch_rejected(self):
        seq = generate_sequence(1)
        with pytest.raises(ValueError):
            process_sequence(seq, [], print, iterations=1)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_one_pass_over_the_windows(self, n):
        """The frames alive at each emit are one window's five, whatever the
        capture's length; each frame within two of a tracking frame is
        emitted once, in rising order, and the residuals are keyed by the
        tracking frames."""
        scene = make_sphere_scene(16, 16, 6)
        seq = generate_sequence(n)
        live = weakref.WeakSet()

        class Source(list):
            def __getitem__(self, i):
                img = super().__getitem__(i)
                fresh = Image(img.samples, img.mask)
                live.add(fresh)
                return fresh

        emitted, held = [], []

        def emit(i, normal):
            emitted.append(i)
            held.append(len(live))

        frames = Source(render_lambert_analytic(scene, f) for f in seq.frames)
        residuals = process_sequence(seq, frames, emit, iterations=1)
        assert max(held) <= 5
        centers = seq.tracking_indices
        assert emitted == [i for i in range(len(seq.frames)) if any(abs(i - c) <= 2 for c in centers)]
        assert list(residuals) == centers

    @pytest.mark.parametrize("seed", range(4))
    def test_uniform_noise_one_pixel_high(self, seed):
        """Flows on such frames can leave no pixel jointly valid; each
        window then keeps its best flows so far instead of raising."""
        seq = generate_sequence(2)
        rng = np.random.default_rng(seed)
        frames = [Image(rng.random((1, 8))) for _ in seq.frames]
        with pytest.warns(UserWarning, match="no jointly valid pixels"):
            tracking, _ = processed(seq, frames, 10)
        assert sorted(tracking) == [2, 5]

    @pytest.mark.parametrize(
        "positions, start_bound, cold_bound",
        [
            # 1 px per frame: the start is within 0.03 px; without it the
            # alternation stops 0.5-0.9 deg short after ten iterations
            (tuple(range(9)), 0.1, None),
            # constant acceleration: the start extrapolates the tracking
            # frames' mean speed to each window's far end, up to 2.3 px off;
            # measured mean 1.839 deg with it, 1.537 deg without
            ((0, 0, 1, 2, 4, 6, 9, 12, 16), 1.84, 1.54),
        ],
        ids=["constant-velocity", "accelerated"],
    )
    def test_captures_with_and_without_the_start(
        self, monkeypatch, positions, start_bound, cold_bound
    ):
        """Mean tracking error over scenes 0-3 of two-window captures whose
        frame i sits positions[i] px along x."""

        def mean_error():
            errors = []
            for seed in range(4):
                seq, frames, truth = shifted_capture(positions, (64, 80), seed)
                tracking, _ = processed(seq, frames, 10)
                errors += [tracking_error(tracking[c], truth[c]) for c in truth]
            return np.mean(errors)

        with_start = mean_error()
        monkeypatch.setattr(sequencer, "_tracking_start", lambda *args: None)
        without = mean_error()
        assert with_start < start_bound
        if cold_bound is None:
            assert with_start < without
        else:
            assert without < cold_bound


class TestTrackingStart:
    @pytest.mark.parametrize("f", [(1.5, -1.0), (0.0, 0.0)], ids=["moving", "static"])
    def test_recovers_a_constant_velocity_translation(self, f):
        # frame i samples a smooth analytic texture at x - i f, so the
        # flow of frame i toward tracking frame c is (i - c) f; a static
        # capture's start is +0.0 bit for bit
        f = np.array(f)
        seq = generate_sequence(2)
        yy, xx = np.mgrid[0:64, 0:80].astype(float)
        frames = []
        for i in range(len(seq.frames)):
            x, y = xx - i * f[0], yy - i * f[1]
            tex = 1.0 + 0.3 * np.sin(0.3 * x + 0.15 * y) + 0.25 * np.cos(0.1 * x - 0.3 * y)
            frames.append(Image(tex))
        inner = np.s_[8:-8, 8:-8]
        centers = seq.tracking_indices
        for c in centers:
            ends = (c - 2, c + 2)
            for i, flow in zip(ends, sequencer._tracking_start(frames, centers, c, ends, frames[c])):
                want = (i - c) * f
                assert np.hypot(flow.u[inner] - want[0], flow.v[inner] - want[1]).mean() < 0.1
                if not f.any():
                    assert flow.vectors.tobytes() == np.zeros(flow.vectors.shape).tobytes()

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_tracking_frame_or_flat_ones_give_none(self, n):
        # the sphere's constant frames are flat inside its mask
        scene = make_sphere_scene(24, 24, 10)
        seq = generate_sequence(n)
        frames = [render_lambert_analytic(scene, f) for f in seq.frames]
        assert sequencer._tracking_start(frames, seq.tracking_indices, 2, (0, 4), frames[2]) is None


def shifted_capture(positions, shape, seed):
    """generate_sequence(2) over a textured height field whose frame i is
    shifted positions[i] px along x: integer crops of one analytic render,
    so motion adds no interpolation error. Returns the sequence, its frames
    and each tracking frame's true normals."""
    seq = generate_sequence(2)
    assert len(positions) == len(seq.frames)
    pad = max(positions)
    h, w = shape[0], shape[1] + pad
    rng = np.random.default_rng(seed)
    tex = ndimage.gaussian_filter(rng.random((h, w)), 1.5) + ndimage.gaussian_filter(
        rng.random((h, w)), 5.0
    )
    tex = 0.2 + 0.6 * (tex - tex.min()) / (tex.max() - tex.min())
    height = ndimage.gaussian_filter(rng.standard_normal((h, w)), 6.0)
    height *= 3.0 / np.abs(height).max()
    hy, hx = np.gradient(height)
    normals = NormalMap.from_components(np.stack([-hx, -hy, np.ones_like(hx)], axis=2))
    scene = SceneSpec(normals, tex, 1.0, 0.0)
    crops = [np.s_[:, pad - p : pad - p + shape[1]] for p in positions]
    frames = []
    for crop, cond in zip(crops, seq.frames):
        img = render_lambert_analytic(scene, cond)
        frames.append(Image(img.samples[crop], img.mask[crop]))
    truth = {c: NormalMap.from_components(normals.normals[crops[c]]) for c in seq.tracking_indices}
    return seq, frames, truth


def tracking_error(nm, truth):
    """Mean angular error in degrees over the valid pixels 8 px inside the
    border, at least 99 % of them."""
    err = angular_error_map(nm, truth)
    inner = err.mask[8:-8, 8:-8]
    assert inner.mean() >= 0.99
    return float(err.samples[8:-8, 8:-8][inner].mean())
