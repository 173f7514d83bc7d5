"""Tests of the benchmark's input generators and their ground truth.

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""
import filecmp
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import scenes  # noqa: E402
from gradientstage import calib, pfm, sequencer, stage  # noqa: E402


def _files(root: Path) -> list[Path]:
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def test_pfm_round_trip_keeps_orientation_and_invalid_pixels(tmp_path):
    a = np.arange(12, dtype=float).reshape(3, 4)
    a[1, 2] = np.nan
    scenes.write_pfm(tmp_path / "a.pfm", a)
    b = scenes.read_pfm(tmp_path / "a.pfm")
    np.testing.assert_array_equal(np.isnan(b), np.isnan(a))
    np.testing.assert_array_equal(b[~np.isnan(a)], a[~np.isnan(a)])
    v = np.random.default_rng(0).random((4, 5, 3))
    scenes.write_pfm(tmp_path / "v.pfm", v)
    np.testing.assert_allclose(scenes.read_pfm(tmp_path / "v.pfm"), v, rtol=1e-7)


def test_pfm_files_agree_with_the_program(tmp_path):
    a = np.random.default_rng(1).random((5, 7))
    scenes.write_pfm(tmp_path / "ours.pfm", a)
    np.testing.assert_array_equal(pfm.read_pfm_array(tmp_path / "ours.pfm"), a.astype(np.float32))
    pfm.write_pfm_array(tmp_path / "theirs.pfm", a)
    np.testing.assert_array_equal(scenes.read_pfm(tmp_path / "theirs.pfm"), a.astype(np.float32))


@pytest.mark.parametrize(
    "make", [scenes.make_still, scenes.make_stage, scenes.make_capture, scenes.make_calib]
)
def test_generators_are_deterministic_in_the_seed(tmp_path, make):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        make(np.random.default_rng(seed), tmp_path / name)
    files = _files(tmp_path / "a")
    assert files == _files(tmp_path / "b") == _files(tmp_path / "c")
    same, diff, _ = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", files, shallow=False)
    assert not diff and len(same) == len(files)
    _, diff, _ = filecmp.cmpfiles(tmp_path / "a", tmp_path / "c", files, shallow=False)
    assert diff


def test_sphere_truth_matches_the_simulated_scene():
    truth, inside = scenes.image_sphere(64)
    scene = stage.make_sphere_scene(64, 64, 0.4 * 64)
    np.testing.assert_array_equal(inside, scene.true_normals.mask)
    np.testing.assert_allclose(truth[inside], scene.true_normals.normals[inside], atol=1e-12)


def test_simulate_configs_name_real_flags(tmp_path):
    from gradientstage import cli

    _, subparsers = cli.build_parser()
    simulate = next(p for p in subparsers if p.prog.endswith("simulate"))
    known = {a.dest for a in simulate._actions}
    for make in (scenes.make_still, scenes.make_stage):
        inp = make(np.random.default_rng(0), tmp_path / make.__name__, size=32)
        assert set(json.loads(inp.config.read_text())) <= known


def test_lambert_model_satisfies_the_complement_constraint():
    normals, inside = scenes.image_sphere(33)
    for axis in "xyz":
        total = scenes.lambert(normals, 0.7, axis) + scenes.lambert(normals, 0.7, axis + "b")
        np.testing.assert_allclose(total[inside], scenes.lambert(normals, 0.7, "c")[inside])


def test_capture_is_a_valid_sequence_of_a_translating_surface(tmp_path):
    inp = scenes.make_capture(np.random.default_rng(3), tmp_path)
    seq = sequencer.CaptureSequence.from_csv((tmp_path / "seq.csv").read_text())
    assert sequencer.validate_sequence(seq) == []
    assert len(seq.frames) == len(inp.conditions) == 9
    assert [c.value for c in seq.frames] == list(inp.conditions)
    for i in range(len(inp.conditions) - 1):
        assert np.subtract(inp.displacement[i + 1], inp.displacement[i]).tolist() == [1, 1]
        # content at p in frame i sits at p + (1, 1) in frame i + 1
        np.testing.assert_array_equal(inp.normals[i + 1][1:, 1:], inp.normals[i][:-1, :-1])
    frame = scenes.read_pfm(tmp_path / "frame_002.pfm")
    assert frame.shape == scenes.CAPTURE_SHAPE and np.isfinite(frame).all()


def test_mirror_ball_highlights_obey_the_mirror_law():
    for d in scenes.led_directions():
        light = scenes.BALL_CENTER + scenes.STAGE_RADIUS * d
        p = scenes.highlight_point(light)
        n = (p - scenes.BALL_CENTER) / scenes.BALL_RADIUS
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12
        bisector = -p / np.linalg.norm(p) + (light - p) / np.linalg.norm(light - p)
        np.testing.assert_allclose(n, bisector / np.linalg.norm(bisector), atol=1e-10)


def test_limb_rays_graze_the_ball():
    kinv = np.linalg.inv(scenes.BALL_K)
    for x, y in scenes.limb_points(12):
        ray = kinv @ [x, y, 1.0]
        ray /= np.linalg.norm(ray)
        closest = np.linalg.norm(scenes.BALL_CENTER - (scenes.BALL_CENTER @ ray) * ray)
        assert abs(closest - scenes.BALL_RADIUS) < 1e-9


def test_program_inverts_the_mirror_ball_model_on_exact_highlights():
    k = calib.CameraIntrinsics(scenes.BALL_K)
    for d in scenes.led_directions()[::5]:
        light = scenes.BALL_CENTER + scenes.STAGE_RADIUS * d
        p = scenes.highlight_point(light)
        got = calib.light_direction(scenes.project(p[None])[0], k, np.zeros(3),
                                    scenes.BALL_CENTER, scenes.BALL_RADIUS)
        want = (light - p) / np.linalg.norm(light - p)
        assert np.degrees(np.arccos(np.clip(got @ want, -1, 1))) < 1e-5


def test_calibration_session_files(tmp_path):
    inp = scenes.make_calib(np.random.default_rng(5), tmp_path)
    assert len(list((tmp_path / "ball").glob("led_*.pfm"))) == scenes.LED_COUNT
    pairs = np.loadtxt(tmp_path / "pairs.csv", delimiter=",", skiprows=1)
    mapped = scenes.apply_homography(inp.h_true, pairs[:, :2])
    assert np.abs(mapped - pairs[:, 2:]).max() < 3.0  # 0.3 px noise on both sides
    normals, inside = scenes.cross_sphere(*np.mgrid[0:1024, 0:1024][::-1].astype(float))
    i1 = scenes.read_pfm(tmp_path / "i1_x.pfm")
    np.testing.assert_array_equal(np.isfinite(i1), inside)
    diffuse = scenes.lambert(normals, scenes.CROSS_ALBEDO, "x")
    assert np.abs(2.0 * i1[inside] / diffuse[inside] - 1.0).mean() < 2 * scenes.CALIB_NOISE
    # the second camera sees pixel q where the reference camera sees H q
    i0 = scenes.read_pfm(tmp_path / "i0_x.pfm")
    q = np.array([[300.0, 400.0]])
    hx, hy = scenes.apply_homography(inp.h_true, q)[0]
    n, _ = scenes.cross_sphere(hx, hy)
    want = scenes.lambert(n, scenes.CROSS_ALBEDO, "x") / 2 + scenes.mirror_specular(
        n, scenes.CROSS_SPECULAR, "x")
    assert abs(i0[400, 300] / want - 1.0) < 5 * scenes.CALIB_NOISE
