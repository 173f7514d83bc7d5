"""Tests of the layer tracer and the op checks.

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gradientstage  # noqa: E402
import scenes  # noqa: E402
import workloads  # noqa: E402
from gradientstage import alignment, cli, core, photometric, sequencer, stage  # noqa: E402
from gradientstage.core import Condition, Image, NormalMap  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_install_wraps_every_binding_site_and_uninstall_restores():
    originals = (alignment.joint_photometric_align, core.histogram,
                 NormalMap.__dict__["from_components"])
    t = Tracer()
    t.install()
    try:
        assert t.unwrapped_sites() == []
        assert sequencer.joint_photometric_align is alignment.joint_photometric_align
        assert alignment.joint_photometric_align is not originals[0]
        assert cli.histogram is core.histogram is gradientstage.histogram
        assert photometric.histogram is core.histogram is not originals[1]
        assert NormalMap.__dict__["from_components"] is not originals[2]
    finally:
        t.uninstall()
    assert alignment.joint_photometric_align is originals[0]
    assert sequencer.joint_photometric_align is originals[0]
    assert cli.histogram is originals[1] and gradientstage.histogram is originals[1]
    assert NormalMap.__dict__["from_components"] is originals[2]


def test_self_time_subtracts_children():
    t = Tracer()
    t.spans = [["op", 0.0, 10.0, None, 0], ["a", 1.0, 5.0, 0, 0], ["b", 2.0, 3.0, 1, 0],
               ["b", 6.0, 8.0, 0, 0], ["other-op", 0.0, 1.0, None, 1]]
    prof = t.profile(0)
    assert prof.wall == 10.0
    assert prof.self_time == {"op": 4.0, "a": 3.0, "b": 3.0}
    assert prof.calls == {"op": 1, "a": 1, "b": 2}
    assert t.consistency_errors(0) == []
    t.spans[2][2] = 6.0  # b now ends after its parent a
    assert t.consistency_errors(0)


def test_traced_recovery_accounts_for_wall_time(tracer):
    scene = stage.make_sphere_scene(24, 24, 9)
    imgset = stage.render_set(scene)
    with tracer.op(0):
        nm = photometric.recover_wilson(imgset)
    assert isinstance(nm, NormalMap)
    prof = tracer.profile(0)
    assert prof.calls == {"op": 1, "photometric.recover_wilson": 1, "core.NormalMap.from_components": 1}
    assert all(v >= 0 for v in prof.self_time.values())
    assert tracer.consistency_errors(0) == []
    with tracer.op(1):
        stage.render_lambert_discrete(scene, stage.LightStage.from_directions(
            stage.generate_icosphere_directions(1)), Condition.X)
    assert tracer.profile(1).counter("stage.cos_tensor_bytes") == 24 * 24 * 42 * 8


def test_alignment_counters(tracer):
    rng = np.random.default_rng(0)
    tex = 0.2 + 0.6 * rng.random((40, 40))
    g, gbar, c = Image(tex * 0.4), Image(tex * 0.6), Image(tex)
    params = alignment.FlowParams(levels=1, iterations=5, warps=1)
    with tracer.op(0):
        _, _, residuals = sequencer.joint_photometric_align(g, gbar, c, 3, params)
    prof = tracer.profile(0)
    assert prof.calls["alignment.joint_photometric_align"] == 1
    assert prof.calls["alignment.flow_estimate"] == 2 * len(residuals)
    assert prof.counter("alignment.outer_iters") == len(residuals)
    assert prof.counter("alignment.early_stops") == (len(residuals) < 3)


def test_spans_outside_an_op_are_not_recorded(tracer):
    core.unit([0.0, 0.0, 2.0])
    assert tracer.spans == []


def test_subcommand_names():
    assert workloads.subcommand(["--config", "c.json", "simulate", "--out", "d"]) == "simulate"
    assert workloads.subcommand(["calibrate", "lights", "--k", "k.json"]) == "calibrate_lights"
    assert workloads.subcommand(["sequence", "process", "--dir", "d"]) == "sequence_process"


def test_checks_reject_wrong_normals_and_counts(tmp_path):
    truth, inside = scenes.image_sphere(32)
    tilted = truth.copy()
    tilted[inside] = truth[inside] + [0.2, 0.0, 0.0]
    tilted /= np.linalg.norm(tilted, axis=2, keepdims=True)
    scenes.write_pfm(tmp_path / "good.pfm", np.where(inside[..., None], truth, np.nan))
    scenes.write_pfm(tmp_path / "bad.pfm", np.where(inside[..., None], tilted, np.nan))
    assert workloads.mean_error(tmp_path / "good.pfm", truth, inside, tol=1e-3) < 1e-3
    with pytest.raises(workloads.CheckError):
        workloads.mean_error(tmp_path / "bad.pfm", truth, inside, tol=1.0)
    (tmp_path / "report.csv").write_text("bin_center,count\n0.05,3\n")
    with pytest.raises(workloads.CheckError, match="counts sum"):
        workloads.check_report(tmp_path / "report.csv", 0.1, tmp_path / "good.pfm",
                               tmp_path / "good.pfm")
