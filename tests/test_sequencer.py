import numpy as np
import pytest
from conftest import max_angular_error
from hypothesis import given
from hypothesis import strategies as st
from scipy import ndimage

from gradientstage import sequencer
from gradientstage.alignment import FlowField
from gradientstage.core import Condition, GradientImageSet, Image, NormalMap, angular_error_map
from gradientstage.photometric import recover_minimal
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
                w = seq.window(c)
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


def analytic_frames(scene, sequence):
    return [render_lambert_analytic(scene, cond if cond is not C.C else C.C) for cond in sequence.frames]


class TestTrackingFrameNormal:
    def setup_method(self):
        self.scene = make_sphere_scene(31, 31, 13)
        self.zero = FlowField.zero(self.scene.true_normals.shape)

    def images(self, *names):
        return [(Condition(n), render_lambert_analytic(self.scene, n)) for n in names]

    def test_static_equals_recover_minimal_bitwise(self):
        window = self.images("x", "z", "c", "y", "xb")
        nm = tracking_frame_normal(window, self.zero, self.zero)
        imgset = GradientImageSet({c: img for c, img in window if c is not C.C})
        ref = recover_minimal(imgset, C.X)
        np.testing.assert_array_equal(nm.normals, ref.normals)
        np.testing.assert_array_equal(nm.magnitude, ref.magnitude)
        np.testing.assert_array_equal(nm.mask, ref.mask)

    def test_dual_window_matches_dual_formula(self):
        window = self.images("y", "xb", "c", "zb", "yb")
        nm = tracking_frame_normal(window, self.zero, self.zero)
        imgs = {c: img for c, img in window if c is not C.C}
        ref = recover_minimal(GradientImageSet(imgs), C.Y, dual=True)
        np.testing.assert_array_equal(nm.normals, ref.normals)

    def test_mixed_window_recovers_truth_on_ideal_data(self):
        # the third window of the unit sequence: {zb, yb, x, z}
        window = self.images("zb", "yb", "c", "x", "z")
        nm = tracking_frame_normal(window, self.zero, self.zero)
        assert max_angular_error(nm, self.scene.true_normals) < 1e-9

    def test_missing_flow_rejected(self):
        window = self.images("x", "z", "c", "y", "xb")
        with pytest.raises(ValueError, match="missing flow"):
            tracking_frame_normal(window, None, self.zero)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            tracking_frame_normal(self.images("x", "z", "c", "y", "yb"), self.zero, self.zero)

    def test_uniform_translation_recovered_within_degree(self):
        # scene translates 1 px/frame along +x; frames sampled accordingly
        big = make_sphere_scene(41, 41, 13)
        offsets = {0: -2, 1: -1, 2: 0, 3: 1, 4: 2}
        names = ["x", "z", "c", "y", "xb"]
        window = []
        for i, name in enumerate(names):
            img = render_lambert_analytic(big, name)
            shifted = np.roll(img.samples, offsets[i], axis=1)
            mask = np.roll(img.mask, offsets[i], axis=1)
            from gradientstage.core import Image

            window.append((Condition(name), Image(shifted, mask)))
        h, w = big.true_normals.shape
        flow_first = FlowField(np.broadcast_to([-2.0, 0.0], (h, w, 2)).copy(), np.ones((h, w), bool))
        flow_last = FlowField(np.broadcast_to([2.0, 0.0], (h, w, 2)).copy(), np.ones((h, w), bool))
        nm = tracking_frame_normal(window, flow_first, flow_last)
        from gradientstage.core import mean_angular_error

        assert mean_angular_error(nm, big.true_normals) < 1.0


class TestIntermediateWarpedNormal:
    def setup_method(self):
        self.scene = make_sphere_scene(21, 21, 9)
        self.nm = self.scene.true_normals
        self.zero = FlowField.zero(self.nm.shape)

    def test_identical_inputs_any_weights(self):
        out = intermediate_warped_normal(self.nm, self.nm, self.zero, self.zero, 1, 5)
        np.testing.assert_allclose(
            out.normals[out.mask], self.nm.normals[self.nm.mask], atol=1e-12
        )

    def test_weights_follow_opposite_distance(self):
        a = np.zeros((1, 1, 3))
        a[0, 0] = (1.0, 0, 0)
        b = np.zeros((1, 1, 3))
        b[0, 0] = (0, 1.0, 0)
        from gradientstage.core import NormalMap

        na = NormalMap.from_components(a)
        nb = NormalMap.from_components(b)
        zero = FlowField.zero((1, 1))
        # t_prev=1, t_next=2: weights 2:1 -> (2a + b) direction
        out = intermediate_warped_normal(na, nb, zero, zero, 1, 2)
        expected = np.array([2.0, 1.0, 0.0]) / np.sqrt(5.0)
        np.testing.assert_allclose(out.normals[0, 0], expected, atol=1e-12)
        # wilson spacing: t_prev=1, t_next=3 -> weights 3:1
        out = intermediate_warped_normal(na, nb, zero, zero, 1, 3)
        expected = np.array([3.0, 1.0, 0.0]) / np.sqrt(10.0)
        np.testing.assert_allclose(out.normals[0, 0], expected, atol=1e-12)

    def test_single_sided_where_one_warp_invalid(self):
        h, w = self.nm.shape
        off = FlowField(np.full((h, w, 2), 1e6), np.ones((h, w), bool))
        out = intermediate_warped_normal(self.nm, self.nm, self.zero, off, 1, 1)
        np.testing.assert_array_equal(out.mask, self.nm.mask)

    def test_rejects_bad_distances(self):
        with pytest.raises(ValueError):
            intermediate_warped_normal(self.nm, self.nm, self.zero, self.zero, 0, 1)


class TestProcessSequence:
    def test_static_scene_degeneracy(self):
        scene = make_sphere_scene(33, 33, 14)
        seq = generate_sequence(3)
        frames = [render_lambert_analytic(scene, f) for f in seq.frames]
        result = process_sequence(seq, frames, iterations=2)
        assert sorted(result.tracking) == [2, 5, 8]
        # tracking frames reproduce recover_minimal bit for bit
        for center in result.tracking:
            window_conds = seq.window(center)
            imgs = {
                c: frames[i]
                for i, c in zip(range(center - 2, center + 3), window_conds)
                if c is not Condition.C
            }
            base = window_conds[0] if not window_conds[0].is_complement else window_conds[4]
            # mixed windows fall outside recover_minimal's contract; compare
            # against the shared kernel through tracking_frame_normal instead
            zero = FlowField.zero(frames[0].shape)
            ref = tracking_frame_normal(
                [(c, frames[i]) for i, c in zip(range(center - 2, center + 3), window_conds)],
                zero,
                zero,
            )
            got = result.tracking[center]
            np.testing.assert_array_equal(got.normals, ref.normals)
        # pure window at the first tracking frame: bitwise equal to recover_minimal
        imgset = GradientImageSet({seq.frames[i]: frames[i] for i in [0, 1, 3, 4]})
        ref = recover_minimal(imgset, Condition.X)
        np.testing.assert_array_equal(result.tracking[2].normals, ref.normals)
        # single-sided upsampled frames equal their tracking normal bitwise
        np.testing.assert_array_equal(
            result.upsampled[0].normals, result.tracking[2].normals
        )
        np.testing.assert_array_equal(
            result.upsampled[1].normals, result.tracking[2].normals
        )
        # two-sided upsampled frames blend two windows' normals: equal to
        # the flanking tracking normals to floating-point blending error
        for i in (3, 4, 6, 7):
            err = max_angular_error(result.upsampled[i], result.tracking[2])
            assert err < 1e-10

    def test_even_n_with_trailing_frame_processes(self):
        scene = make_sphere_scene(24, 24, 10)
        seq = generate_sequence(2)
        frames = [render_lambert_analytic(scene, f) for f in seq.frames]
        result = process_sequence(seq, frames, iterations=2)
        assert sorted(result.tracking) == [2, 5]
        # the extra trailing gradient frame has no flanking window: absent
        assert len(seq.frames) - 1 not in result.upsampled

    def test_frame_count_mismatch_rejected(self):
        seq = generate_sequence(1)
        with pytest.raises(ValueError):
            process_sequence(seq, [], iterations=1)

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
                result = process_sequence(seq, frames, 10)
                errors += [tracking_error(result.tracking[c], truth[c]) for c in truth]
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
            for i, flow in zip(ends, sequencer._tracking_start(frames, centers, c, ends)):
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
        assert sequencer._tracking_start(frames, seq.tracking_indices, 2, (0, 4)) is None


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
