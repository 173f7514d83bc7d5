import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import forward_highlight_point, project_point, project_sphere_limb

import gradientstage
from gradientstage import pfm
from gradientstage.cli import run
from gradientstage.core import Image, mean_angular_error
from gradientstage.stage import (
    LightStage,
    SceneSpec,
    generate_icosphere_directions,
    make_sphere_scene,
    render_lambert_analytic,
)


def test_importing_the_cli_loads_no_scipy():
    # in a fresh interpreter: this suite's conftest imports scipy itself
    code = "import sys, gradientstage.cli; sys.exit('scipy' in sys.modules)"
    src = str(Path(gradientstage.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1


def test_unknown_flag_is_usage_error():
    assert run(["sequence", "plan", "--n", "3", "--bogus"]) == 1


def test_sequence_plan_prints_17(capsys):
    assert run(["sequence", "plan", "--n", "5", "--method", "minimal"]) == 0
    assert capsys.readouterr().out.strip() == "17"


def test_sequence_plan_wilson(capsys):
    assert run(["sequence", "plan", "--n", "5", "--method", "wilson"]) == 0
    assert capsys.readouterr().out.strip() == "23"


def test_simulate_recover_end_to_end(tmp_path, capsys):
    data = tmp_path / "d"
    assert run(
        [
            "simulate", "--scene", "sphere", "--leds", "162",
            "--size", "96", "96", "--out", str(data),
        ]
    ) == 0
    out = tmp_path / "n.pfm"
    assert run(
        ["recover", "--method", "ma", "--in", str(data), "--out", str(out)]
    ) == 0
    recovered = pfm.read_normal_map(out)
    truth = pfm.read_normal_map(data / "gt_normals.pfm")
    assert mean_angular_error(recovered, truth) < 1.0


def test_pixel_noise_is_one_draw_per_condition_in_order(tmp_path):
    # sample * (1 + level * a standard normal), clipped at 0: the former
    # whole-frame expression, on the renders of the same scene
    data = tmp_path / "d"
    assert run(["simulate", "--size", "12", "9", "--delta", "0.1", "0", "-0.2", "--conditions", "x", "c",
                "--pixel-noise", "0.5", "--seed", "5", "--out", str(data)]) == 0
    scene = SceneSpec(make_sphere_scene(12, 9, 3.6).true_normals, 1.0, 1.0, [0.1, 0, -0.2, 0, 0, 0])
    rng = np.random.default_rng(5)
    for cond in ("x", "c"):
        img = render_lambert_analytic(scene, cond)
        noisy = img.samples * (1.0 + 0.5 * rng.standard_normal(img.shape))
        want = Image(np.maximum(noisy, 0.0).astype(np.float32), img.mask)
        got = pfm.read_image(data / f"grad_{cond}.pfm")
        assert got.mask.tobytes() == want.mask.tobytes()
        assert got.samples.tobytes() == want.samples.tobytes()


def test_recover_missing_condition_is_data_error(tmp_path, capsys):
    data = tmp_path / "d"
    assert run(
        [
            "simulate", "--scene", "sphere", "--out", str(data),
            "--size", "32", "32", "--conditions", "x", "y", "z", "c",
        ]
    ) == 0
    code = run(["recover", "--method", "minimal:x", "--in", str(data), "--out", str(tmp_path / "n.pfm")])
    assert code == 2
    assert "missing condition" in capsys.readouterr().err


def test_recover_methods_agree_on_ideal_data(tmp_path):
    data = tmp_path / "d"
    run(["simulate", "--scene", "cylinder", "--size", "64", "32", "--out", str(data)])
    for method in ["wilson", "minimal:y", "minimal:z:dual"]:
        out = tmp_path / f"{method.replace(':', '_')}.pfm"
        assert run(["recover", "--method", method, "--in", str(data), "--out", str(out)]) == 0
    a = pfm.read_normal_map(tmp_path / "wilson.pfm")
    b = pfm.read_normal_map(tmp_path / "minimal_z_dual.pfm")
    # identical up to float32 PFM storage quantization
    assert mean_angular_error(a, b) < 1e-3


@pytest.mark.parametrize(
    "argv, code",
    [
        (["recover", "--method", "bogus"], 1),
        (["correct", "--init", "bogus"], 1),
        (["recover", "--method", "minimal:q"], 2),
        (["recover", "--method", "minimal:x:duall"], 1),
        (["recover", "--method", "minimal:x:dual:extra"], 1),
        (["recover", "--method", "ma:zzz"], 1),
        (["correct", "--init", "wilson:dual"], 1),
    ],
)
def test_bad_method_spec_exit_codes(tmp_path, capsys, argv, code):
    data = tmp_path / "d"
    assert run(["simulate", "--size", "16", "16", "--out", str(data)]) == 0
    assert run([*argv, "--in", str(data), "--out", str(tmp_path / "n.pfm")]) == code
    assert not (tmp_path / "n.pfm").exists()


def test_correct_subcommand(tmp_path):
    data = tmp_path / "d"
    run(
        [
            "simulate", "--scene", "sphere", "--size", "40", "40",
            "--delta", "0.1", "0.1", "0.1", "--out", str(data),
        ]
    )
    out = tmp_path / "corrected.pfm"
    assert run(["correct", "--in", str(data), "--init", "wilson", "--out", str(out)]) == 0
    assert out.exists()
    assert (tmp_path / "corrected_delta.pfm").exists()
    assert (tmp_path / "corrected_deltabar.pfm").exists()


def test_correct_traced_peak_on_a_1024_frame(tmp_path):
    # the seven images and the seed (about 80 MiB), the corrected map and
    # the two distortion fields (about 82 MiB) and one float32 write buffer;
    # the images and the seed are freed before the writes
    data = tmp_path / "d"
    assert run(["simulate", "--size", "1024", "1024", "--delta", "0.02", "0.01", "-0.01",
                "--pixel-noise", "0.01", "--out", str(data)]) == 0
    tracemalloc.start()
    try:
        code = run(["correct", "--in", str(data), "--out", str(tmp_path / "c.pfm")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 186 * 2**20


def test_calibrate_lights_closure(tmp_path, capsys):
    k = np.diag([2000.0, 2000.0, 1.0])
    center = np.array([0.0, 0.0, 890.0])
    radius = 38.1
    (tmp_path / "k.json").write_text(json.dumps(k.tolist()))
    limb = project_sphere_limb(center, radius, k)
    with open(tmp_path / "limb.csv", "w") as f:
        f.write("x,y\n")
        for x, y in limb:
            f.write(f"{x},{y}\n")
    dirs = generate_icosphere_directions(1)
    lights = center + 790.0 * dirs[np.argsort(dirs[:, 2])[:10]]
    truths = []
    with open(tmp_path / "hl.csv", "w") as f:
        f.write("id,x,y\n")
        for i, light in enumerate(lights):
            h3d = forward_highlight_point(light, center, radius)
            px, py = project_point(h3d, k)
            f.write(f"{i},{px},{py}\n")
            t = light - h3d
            truths.append(t / np.linalg.norm(t))
    out = tmp_path / "lights.json"
    assert run(
        [
            "calibrate", "lights", "--k", str(tmp_path / "k.json"),
            "--radius", "38.1", "--limb", str(tmp_path / "limb.csv"),
            "--highlights", str(tmp_path / "hl.csv"), "--out", str(out),
        ]
    ) == 0
    recovered = json.loads(out.read_text())
    for rec, truth in zip(recovered, truths):
        v = np.array([rec["lx"], rec["ly"], rec["lz"]])
        assert np.degrees(np.arccos(np.clip(v @ truth, -1, 1))) < 0.5


def calibrate_lights_from_highlights(tmp_path, rows):
    """Run `calibrate lights --highlights` on a CSV of `rows` ("id,x,y"
    lines); returns the exit code and the output path."""
    k = np.diag([2000.0, 2000.0, 1.0])
    (tmp_path / "k.json").write_text(json.dumps(k.tolist()))
    limb = project_sphere_limb(np.array([0.0, 0.0, 890.0]), 38.1, k)
    (tmp_path / "limb.csv").write_text("x,y\n" + "\n".join(f"{x},{y}" for x, y in limb))
    (tmp_path / "hl.csv").write_text("id,x,y\n" + "".join(row + "\n" for row in rows))
    out = tmp_path / "lights.json"
    argv = ["calibrate", "lights", "--k", str(tmp_path / "k.json"), "--radius", "38.1",
            "--limb", str(tmp_path / "limb.csv"), "--highlights", str(tmp_path / "hl.csv"),
            "--out", str(out)]
    return run(argv), out


@pytest.mark.parametrize("led_id", ["inf", "nan", "2.7", "1e300", "9223372036854775808"])
def test_calibrate_lights_rejects_an_id_that_is_not_an_int64(tmp_path, capsys, led_id):
    code, out = calibrate_lights_from_highlights(tmp_path, ["0,30,20", f"{led_id},50,60"])
    assert code == 2
    assert "data row 2: LED id" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_lights_rejects_a_repeated_id(tmp_path, capsys):
    code, out = calibrate_lights_from_highlights(tmp_path, ["3,30,20", "3,50,60"])
    assert code == 2
    assert "repeated LED id 3" in capsys.readouterr().err
    assert not out.exists()


def calibrate_lights_from_images(tmp_path, names, stray=()):
    """Run `calibrate lights --images` on two synthetic highlight PFMs saved
    under `names`, next to empty non-PFM files named in `stray`."""
    k = np.diag([2000.0, 2000.0, 1.0])
    center = np.array([0.0, 0.0, 890.0])
    (tmp_path / "k.json").write_text(json.dumps(k.tolist()))
    limb = project_sphere_limb(center, 38.1, k)
    with open(tmp_path / "limb.csv", "w") as f:
        f.write("x,y\n" + "\n".join(f"{x},{y}" for x, y in limb))
    imgdir = tmp_path / "imgs"
    imgdir.mkdir()
    for name in stray:
        (imgdir / name).write_text("rig notes\n")
    # ball projects to an 86 px disk around the principal point (0, 0):
    # keep the synthetic highlights inside it
    yy, xx = np.mgrid[0:200, 0:200]
    for name, (cx, cy) in zip(names, [(30.0, 20.0), (50.0, 60.0)]):
        spot = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / 18.0)
        pfm.write_image(imgdir / name, Image(spot))
    out = tmp_path / "lights.json"
    code = run(
        [
            "calibrate", "lights", "--k", str(tmp_path / "k.json"),
            "--radius", "38.1", "--limb", str(tmp_path / "limb.csv"),
            "--images", str(imgdir), "--out", str(out),
        ]
    )
    return code, json.loads(out.read_text()) if code == 0 else None


def test_calibrate_lights_from_images(tmp_path):
    code, lights = calibrate_lights_from_images(tmp_path, ["led_00.pfm", "led_01.pfm"])
    assert code == 0
    assert len(lights) == 2


def test_calibrated_lights_load_as_a_light_stage(tmp_path):
    code, lights = calibrate_lights_from_images(tmp_path, ["led_00.pfm", "led_01.pfm"])
    assert code == 0
    stage = LightStage.from_json((tmp_path / "lights.json").read_text())
    assert [led.id for led in stage.leds] == [rec["id"] for rec in lights]
    want = [[rec["lx"], rec["ly"], rec["lz"]] for rec in lights]
    np.testing.assert_allclose(stage.directions, want, rtol=0, atol=1e-15)


def test_calibrate_lights_images_ignore_stray_files(tmp_path):
    """LED ids count the .pfm files only; a stray file sorted first shifts nothing."""
    code, lights = calibrate_lights_from_images(
        tmp_path, ["shot_00.pfm", "shot_01.pfm"], stray=["notes.txt"]
    )
    assert code == 0
    assert [rec["id"] for rec in lights] == [0, 1]


@pytest.mark.parametrize("first", ["1e2,5,102,4", "+100,5,102,4"])
def test_numeric_first_csv_row_is_data(tmp_path, capsys, first):
    # four correspondences are the DLT minimum, so a dropped row fails the run
    rows = [first, "10,10,12,9", "90,10,92,9", "10,90,12,89"]
    (tmp_path / "pairs.csv").write_text("\n".join(rows) + "\n")
    hout = tmp_path / "h.json"
    args = ["calibrate", "homography", "--pairs", str(tmp_path / "pairs.csv"), "--no-refine"]
    assert run([*args, "--out", str(hout)]) == 0
    h = np.asarray(json.loads(hout.read_text()))
    np.testing.assert_allclose(h / h[2, 2], [[1, 0, 2], [0, 1, -1], [0, 0, 1]], atol=1e-9)


def test_calibrate_homography_and_separate(tmp_path, capsys):
    h_true = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0]])
    xs, ys = np.meshgrid(np.linspace(10, 90, 9), np.linspace(10, 90, 8))
    src = np.stack([xs.ravel(), ys.ravel()], axis=1)
    dst = src + np.array([2.0, -1.0])
    with open(tmp_path / "pairs.csv", "w") as f:
        f.write("x0,y0,x1,y1\n")
        for (x0, y0), (x1, y1) in zip(src, dst):
            f.write(f"{x0},{y0},{x1},{y1}\n")
    hout = tmp_path / "h.json"
    assert run(["calibrate", "homography", "--pairs", str(tmp_path / "pairs.csv"), "--out", str(hout)]) == 0
    h = np.asarray(json.loads(hout.read_text()))
    h = h / h[2, 2]
    np.testing.assert_allclose(h, h_true, atol=1e-6)

    from gradientstage.core import Image

    rng = np.random.default_rng(0)
    diffuse_half = rng.random((32, 32)) * 0.4
    specular = rng.random((32, 32)) * 0.2
    pfm.write_image(tmp_path / "i0.pfm", Image(diffuse_half + specular))
    pfm.write_image(tmp_path / "i1.pfm", Image(diffuse_half))
    assert run(
        [
            "calibrate", "separate", "--i0", str(tmp_path / "i0.pfm"),
            "--i1", str(tmp_path / "i1.pfm"),
            "--out-specular", str(tmp_path / "s.pfm"),
            "--out-diffuse", str(tmp_path / "dd.pfm"),
        ]
    ) == 0
    s = pfm.read_image(tmp_path / "s.pfm")
    np.testing.assert_allclose(s.samples, specular.astype(np.float32), atol=1e-6)


def test_calibrate_homography_rejects_four_pairs_with_three_collinear(tmp_path, capsys):
    with open(tmp_path / "pairs.csv", "w") as f:
        # a translation, which three collinear pairs leave undetermined
        f.write("x0,y0,x1,y1\n0,0,1,2\n10,0,11,2\n20,0,21,2\n5,10,6,12\n")
    out = tmp_path / "h.json"
    assert run(["calibrate", "homography", "--pairs", str(tmp_path / "pairs.csv"), "--out", str(out)]) == 2
    assert "degenerate" in capsys.readouterr().err
    assert not out.exists()


def test_align_subcommand(tmp_path, capsys):
    from conftest import textured_radiance_scene

    g, gbar, c = textured_radiance_scene(48, 64, shift=(1, 1))
    pfm.write_image(tmp_path / "g.pfm", g)
    pfm.write_image(tmp_path / "gb.pfm", gbar)
    pfm.write_image(tmp_path / "c.pfm", c)
    out = tmp_path / "flows"
    assert run(
        [
            "align", "--pair", "x", "--frames", str(tmp_path / "g.pfm"),
            str(tmp_path / "gb.pfm"), str(tmp_path / "c.pfm"),
            "--iters", "4", "--out", str(out),
        ]
    ) == 0
    assert (out / "flow_x_u.pfm").exists()
    assert (out / "flow_x_v.pfm").exists()
    lines = (out / "residuals.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,residual"
    residuals = [float(line.split(",")[1]) for line in lines[1:]]
    assert residuals[-1] <= residuals[0]


def test_align_on_frames_one_pixel_high(tmp_path):
    from conftest import textured_radiance_scene

    frames = []
    for name, img in zip(["g", "gb", "c"], textured_radiance_scene(1, 9, shift=(0, 1))):
        frames.append(tmp_path / f"{name}.pfm")
        pfm.write_image(frames[-1], img)
    out = tmp_path / "flows"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["align", "--frames", *map(str, frames), "--iters", "3", "--out", str(out)]) == 0
    assert not [w for w in caught if "flow estimator failed" in str(w.message)]
    assert len((out / "residuals.csv").read_text().strip().splitlines()) >= 2


@pytest.mark.parametrize("alpha", ["0", "-0.1", "nan", "inf"])
def test_align_rejects_degenerate_alpha(tmp_path, capsys, alpha):
    from conftest import textured_radiance_scene

    frames = []
    for name, img in zip(["g", "gb", "c"], textured_radiance_scene(40, 48, shift=(1, 1))):
        vals = img.samples.copy()
        vals[:, :10] = 0.5  # a flat strip: zero image gradient there
        frames.append(tmp_path / f"{name}.pfm")
        pfm.write_image(frames[-1], Image(vals))
    out = tmp_path / "flows"
    argv = ["align", "--frames", *map(str, frames), "--alpha", alpha, "--out", str(out)]
    assert run(argv) == 2
    assert "alpha" in capsys.readouterr().err
    assert not out.exists()


def test_sequence_process_static(tmp_path):
    from gradientstage.sequencer import generate_sequence
    from gradientstage.stage import make_sphere_scene, render_lambert_analytic

    seq = generate_sequence(1)
    scene = make_sphere_scene(24, 24, 10)
    data = tmp_path / "frames"
    data.mkdir()
    (data / "seq.csv").write_text(seq.to_csv())
    for i, cond in enumerate(seq.frames):
        pfm.write_image(data / f"frame_{i:03d}.pfm", render_lambert_analytic(scene, cond))
    out = tmp_path / "normals"
    assert run(["sequence", "process", "--dir", str(data), "--iters", "2", "--out", str(out)]) == 0
    nm = pfm.read_normal_map(out / "normal_002.pfm")
    truth = scene.true_normals
    # float32 PFM storage bounds the attainable agreement
    assert mean_angular_error(nm, truth) < 1e-3


def test_sequence_process_rejects_rows_out_of_frame_order(tmp_path, capsys):
    from gradientstage.sequencer import generate_sequence

    header, *rows = generate_sequence(2).to_csv().splitlines()
    (tmp_path / "seq.csv").write_text("\n".join([header, *reversed(rows)]) + "\n")
    assert run(["sequence", "process", "--dir", str(tmp_path), "--out", str(tmp_path / "n")]) == 2
    assert "frame_index" in capsys.readouterr().err


def test_stimulus_subcommand(tmp_path):
    from gradientstage.stage import make_sphere_scene, render_lambert_analytic

    scene = make_sphere_scene(32, 32, 14)
    pfm.write_normal_map(tmp_path / "n.pfm", scene.true_normals)
    pfm.write_image(tmp_path / "c.pfm", render_lambert_analytic(scene, "c"))
    out = tmp_path / "stim"
    assert run(
        ["stimulus", "--normals", str(tmp_path / "n.pfm"), "--texture", str(tmp_path / "c.pfm"), "--out", str(out)]
    ) == 0
    for name in ("shape", "texture", "combined"):
        assert (out / f"{name}.png").exists()
        img = pfm.read_image(out / f"{name}.pfm")
        assert img.samples.min() >= 0.0 and img.samples.max() <= 1.0


def test_stimulus_rejects_an_all_zero_texture_before_writing(tmp_path, capsys):
    from gradientstage.core import Image
    from gradientstage.stage import make_sphere_scene

    scene = make_sphere_scene(16, 16, 7)
    pfm.write_normal_map(tmp_path / "n.pfm", scene.true_normals)
    pfm.write_image(tmp_path / "c.pfm", Image(np.zeros((16, 16))))
    out = tmp_path / "stim"
    argv = ["stimulus", "--normals", str(tmp_path / "n.pfm"), "--texture", str(tmp_path / "c.pfm")]
    assert run([*argv, "--out", str(out)]) == 2
    assert "texture image is all zero" in capsys.readouterr().err
    assert not out.exists()


def test_report_subcommand(tmp_path, capsys):
    from gradientstage.stage import make_sphere_scene

    scene = make_sphere_scene(16, 16, 7)
    pfm.write_normal_map(tmp_path / "a.pfm", scene.true_normals)
    pfm.write_normal_map(tmp_path / "b.pfm", scene.true_normals)
    out = tmp_path / "hist.csv"
    assert run(["report", "--a", str(tmp_path / "a.pfm"), "--b", str(tmp_path / "b.pfm"), "--out", str(out)]) == 0
    assert out.read_text().startswith("bin_center,count\n")


@pytest.mark.parametrize("width", ["nan", "inf", "0", "1e-310"])
def test_report_rejects_bad_bin_width(tmp_path, capsys, width):
    from gradientstage.stage import make_cylinder_scene, make_sphere_scene

    # different maps, so some errors are positive and 1e-310 overflows the bin index
    a, b = str(tmp_path / "a.pfm"), str(tmp_path / "b.pfm")
    pfm.write_normal_map(a, make_sphere_scene(8, 8, 3).true_normals)
    pfm.write_normal_map(b, make_cylinder_scene(8, 8, 3).true_normals)
    assert run(["report", "--a", a, "--b", b, "--bin-width", width, "--out", str(tmp_path / "h.csv")]) == 2
    assert "bin width" in capsys.readouterr().err


def test_report_rejects_huge_pfm_header(tmp_path, capsys):
    path = tmp_path / "huge.pfm"
    path.write_bytes(b"PF\n3000000000 3000000000\n-1.0\n" + bytes(48))
    code = run(["report", "--a", str(path), "--b", str(path), "--out", str(tmp_path / "h.csv")])
    assert code == 2
    assert "PFM" in capsys.readouterr().err


def test_report_without_jointly_valid_pixels_writes_nothing(tmp_path, capsys):
    path = tmp_path / "invalid.pfm"
    pfm.write_pfm_array(path, np.full((4, 4, 3), np.nan))
    out = tmp_path / "h.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["report", "--a", str(path), "--b", str(path), "--out", str(out)])
    assert code == 2
    assert "no jointly valid pixels" in capsys.readouterr().err
    assert not out.exists()
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("scale", ["nan", "inf", "0"])
def test_report_rejects_bad_pfm_scale(tmp_path, capsys, scale):
    path = tmp_path / "bad.pfm"
    path.write_bytes(f"PF\n2 2\n{scale}\n".encode() + np.ones(12, "<f4").tobytes())
    out = tmp_path / "h.csv"
    assert run(["report", "--a", str(path), "--b", str(path), "--out", str(out)]) == 2
    assert "scale" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_defaults(tmp_path, capsys):
    # bin_width is report's: a config file holds defaults shared by commands
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5, "method": "minimal", "bin_width": 2.0}))
    assert run(["--config", str(cfg), "sequence", "plan"]) == 0
    assert capsys.readouterr().out.strip() == "17"


@pytest.mark.parametrize("config", [{"n_typo": 3, "n": 5}, {"bin_widht": 5, "n": 5}])
def test_config_key_of_no_command_is_usage_error(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["--config", str(cfg), "sequence", "plan"]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert next(k for k in config if k != "n") in err


def test_determinism_with_seed(tmp_path):
    for d in ("a", "b"):
        run(
            [
                "simulate", "--scene", "sphere", "--size", "24", "24",
                "--leds", "42", "--led-noise", "0.01", "--seed", "7",
                "--out", str(tmp_path / d),
            ]
        )
    a = pfm.read_image(tmp_path / "a" / "grad_x.pfm")
    b = pfm.read_image(tmp_path / "b" / "grad_x.pfm")
    np.testing.assert_array_equal(a.samples, b.samples)


def test_config_equals_form_is_applied(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"size": [8, 8]}))
    out = tmp_path / "d"
    assert run([f"--config={cfg}", "simulate", "--conditions", "c", "--out", str(out)]) == 0
    assert pfm.read_image(out / "grad_c.pfm").shape == (8, 8)


@pytest.mark.parametrize("argv", [["--config"], ["sequence", "plan", "--n", "3", "--config"]])
def test_trailing_config_is_usage_error(capsys, argv):
    assert run(argv) == 1
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, b"{not json", b"\xff\xfe{"])
def test_unreadable_config_is_data_error(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_bytes(content)
    assert run(["--config", str(cfg), "sequence", "plan", "--n", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config: ")


def test_config_must_be_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert run(["--config", str(cfg), "sequence", "plan", "--n", "3"]) == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["report", "sequence"])
def test_out_naming_a_directory_is_data_error(tmp_path, capsys, command):
    from gradientstage.stage import make_sphere_scene

    normals = tmp_path / "n.pfm"
    pfm.write_normal_map(normals, make_sphere_scene(9, 9, 4).true_normals)
    argv = {
        "report": ["report", "--a", str(normals), "--b", str(normals)],
        "sequence": ["sequence", "plan", "--n", "3"],
    }[command]
    assert run(argv + ["--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_memory_error_is_data_error(tmp_path, capsys, monkeypatch):
    def exhausted(path):
        raise MemoryError

    monkeypatch.setattr(pfm, "read_normal_map", exhausted)
    assert run(["report", "--a", "a.pfm", "--b", "b.pfm", "--out", str(tmp_path / "h.csv")]) == 2
    assert "out of memory" in capsys.readouterr().err
    assert not (tmp_path / "h.csv").exists()


def test_simulate_rejects_unsupported_led_count(tmp_path, capsys):
    out = tmp_path / "d"
    assert run(["simulate", "--leds", "7", "--size", "8", "8", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: unsupported LED count 7; use 12, 42, 162, 642 (icosphere) or 41 (hemisphere)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--radius", "nan"], "--radius"),
        (["--radius", "0"], "--radius"),
        (["--radius", "-3"], "--radius"),
        (["--albedo", "inf"], "--albedo"),
        (["--vp", "nan"], "--vp"),
        (["--delta", "nan", "0", "0"], "--delta"),
        (["--deltabar", "0", "inf", "0"], "--deltabar"),
        (["--leds", "12", "--led-noise", "nan"], "--led-noise"),
        (["--leds", "12", "--led-noise", "-0.1"], "--led-noise"),
        (["--pixel-noise", "nan"], "--pixel-noise"),
        (["--pixel-noise", "-0.1"], "--pixel-noise"),
        (["--leds", "42", "--vp", "0.5"], "--vp"),
        (["--leds", "42", "--delta", "0.1", "0", "0"], "--delta"),
        (["--leds", "42", "--deltabar", "0", "0", "-0.1"], "--deltabar"),
        (["--quantize"], "--quantize"),
        (["--led-noise", "0.5"], "--led-noise"),
        (["--quantization", "2"], "--quantization"),
        (["--leds", "12", "--quantization", "2"], "--quantization"),
        (["--albedo", "2"], "--albedo must lie in [0, 1]"),
        (["--vp", "1.5"], "--vp must lie in [0, 1]"),
        (["--radius", "100"], "sphere radius must be positive and fit in the image"),
        (["--albedo", "-0.5"], "--albedo must lie in [0, 1]"),
        (["--leds", "12", "--quantize", "--quantization", "1"], "--quantization must be >= 2"),
        (["--leds", "12", "--quantize", "--quantization", "-4"], "--quantization must be >= 2"),
    ],
)
def test_simulate_rejects_values_that_lose_data(tmp_path, capsys, flags, message):
    out = tmp_path / "d"
    assert run(["simulate", "--size", "16", "16", *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config",
    [
        {"leds": 12, "vp": 1.0, "delta": [0, 0, 0], "deltabar": [0, 0, 0], "quantization": 4096},
        {"leds": 0, "quantize": False, "led_noise": 0.0, "quantization": 4096},
    ],
)
def test_simulate_accepts_the_other_renderers_defaults(tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = ["--config", str(cfg), "simulate", "--size", "8", "8", "--conditions", "c"]
    assert run([*argv, "--out", str(tmp_path / "d")]) == 0


def test_simulate_radius_default_only_when_omitted(tmp_path):
    default, explicit = tmp_path / "a", tmp_path / "b"
    assert run(["simulate", "--size", "20", "20", "--conditions", "c", "--out", str(default)]) == 0
    assert run(["simulate", "--size", "20", "20", "--radius", "8", "--conditions", "c",
                "--out", str(explicit)]) == 0
    np.testing.assert_array_equal(
        pfm.read_image(default / "grad_c.pfm").mask, pfm.read_image(explicit / "grad_c.pfm").mask
    )
    assert run(["simulate", "--size", "20", "20", "--radius", "5", "--conditions", "c",
                "--out", str(tmp_path / "c")]) == 0
    assert pfm.read_image(tmp_path / "c" / "grad_c.pfm").mask.sum() < pfm.read_image(
        default / "grad_c.pfm").mask.sum()
