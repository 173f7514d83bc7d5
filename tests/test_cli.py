import json

import numpy as np
import pytest
from conftest import forward_highlight_point, project_point, project_sphere_limb

from gradientstage import pfm
from gradientstage.cli import run
from gradientstage.core import Image, NormalMap, mean_angular_error
from gradientstage.stage import generate_icosphere_directions


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


def test_calibrate_lights_from_images(tmp_path):
    from gradientstage.core import Image

    k = np.diag([2000.0, 2000.0, 1.0])
    center = np.array([0.0, 0.0, 890.0])
    (tmp_path / "k.json").write_text(json.dumps(k.tolist()))
    limb = project_sphere_limb(center, 38.1, k)
    with open(tmp_path / "limb.csv", "w") as f:
        f.write("x,y\n" + "\n".join(f"{x},{y}" for x, y in limb))
    imgdir = tmp_path / "imgs"
    imgdir.mkdir()
    # ball projects to an 86 px disk around the principal point (0, 0):
    # keep the synthetic highlights inside it
    yy, xx = np.mgrid[0:200, 0:200]
    for i, (cx, cy) in enumerate([(30.0, 20.0), (50.0, 60.0)]):
        spot = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / 18.0)
        pfm.write_image(imgdir / f"led_{i:02d}.pfm", Image(spot))
    out = tmp_path / "lights.json"
    code = run(
        [
            "calibrate", "lights", "--k", str(tmp_path / "k.json"),
            "--radius", "38.1", "--limb", str(tmp_path / "limb.csv"),
            "--images", str(imgdir), "--out", str(out),
        ]
    )
    assert code == 0
    assert len(json.loads(out.read_text())) == 2


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


def test_report_subcommand(tmp_path, capsys):
    from gradientstage.stage import make_sphere_scene

    scene = make_sphere_scene(16, 16, 7)
    pfm.write_normal_map(tmp_path / "a.pfm", scene.true_normals)
    pfm.write_normal_map(tmp_path / "b.pfm", scene.true_normals)
    out = tmp_path / "hist.csv"
    assert run(["report", "--a", str(tmp_path / "a.pfm"), "--b", str(tmp_path / "b.pfm"), "--out", str(out)]) == 0
    assert out.read_text().startswith("bin_center,count\n")


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5, "method": "minimal"}))
    assert run(["--config", str(cfg), "sequence", "plan"]) == 0
    assert capsys.readouterr().out.strip() == "17"


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
