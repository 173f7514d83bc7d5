"""Hostile inputs for every subcommand: `cli.run` returns 0, 1 or 2 and
raises nothing, and a call that fails prints its error on stderr and
leaves its working directory as it found it."""
import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
from conftest import project_sphere_limb
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gradientstage.cli import build_parser, run
from gradientstage.core import Condition
from gradientstage.sequencer import generate_sequence

NAN, INF = float("nan"), float("inf")
SAMPLES = [0.0, -1.0, NAN, INF, -INF, 1e38]
SHAPES = [(6, 6), (5, 6), (1, 6), (6, 1)]
CELLS = ["1", "-2.5", "1e2", "nan", "inf", "-inf", "1e400", "", "x", "q", "c", "1.5", "é"]
K = [[2000.0, 0.0, 0.0], [0.0, 2000.0, 0.0], [0.0, 0.0, 1.0]]
H = [[1.0, 0.0, 2.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0]]
MATRICES = [
    '{"a": 1}', '[[1, 0, 0], [0, 1, {"a": 1}], [0, 0, 1]]', "nope", "null", "[1, 2, 3]",
    "[[1, 2], [3]]", "[[[1]]]", '[["1", 0, 0], [0, 1, 0], [0, 0, 1]]',
    "[[true, 0, 0], [0, 1, 0], [0, 0, 1]]", "[[NaN, 0, 0], [0, 1, 0], [0, 0, 1]]",
    f"[[1{'0' * 400}, 0, 0], [0, 1, 0], [0, 0, 1]]", "[[0, 0, 0], [0, 0, 0], [0, 0, 0]]", "[" * 5000,
]
CONFIG_KEYS = sorted({a.dest for p in build_parser()[1] for a in p._actions})
CONFIG_VALUES = [5, 1.5, -1, True, None, "no", "ab", "-inf", [1], [1, 2], [1, 2, 3], {"a": 1}]


@st.composite
def pfm_bytes(draw, shape, channels, hostile):
    """A ramp PFM of `shape` and `channels` (1 or 3); if hostile, one with
    hostile samples, of another shape or channel count, truncated, or not
    a PFM at all."""
    kind = draw(st.sampled_from(["samples", "shape", "channels", "truncated", "junk"])) if hostile else ""
    if kind == "junk":
        return draw(st.sampled_from([b"", b"PF\n", b"P6\n2 2\n255\n" + bytes(12), b"\xef\xbb\xbfPf\n1 1\n-1\n"]))
    if kind == "shape":
        shape = draw(st.sampled_from(SHAPES))
    if kind == "channels":
        channels = 4 - channels
    arr = np.linspace(0.1, 1.0, shape[0] * shape[1] * channels).reshape(*shape, channels)
    if kind == "samples":
        fill = draw(st.sampled_from([None, *SAMPLES]))  # None: one hostile value everywhere
        if fill is not None:
            arr[...] = fill
        for i in draw(st.lists(st.integers(0, arr.size - 1), max_size=3)):
            arr.flat[i] = draw(st.sampled_from(SAMPLES))
    header = f"{'Pf' if channels == 1 else 'PF'}\n{shape[1]} {shape[0]}\n-1.0\n".encode()
    data = header + arr[::-1].astype("<f4").tobytes()
    return data[: draw(st.integers(0, len(data) - 1))] if kind == "truncated" else data


@st.composite
def text_bytes(draw, lines):
    """`lines` as a file, maybe with one replaced by hostile cells, cut
    short, or behind a UTF-8 byte-order mark."""
    lines = list(lines)
    kind = draw(st.sampled_from(["as is", "row", "short", "bom"]))
    if kind == "row" and lines:
        cells = draw(st.lists(st.sampled_from(CELLS), min_size=1, max_size=5))
        lines[draw(st.integers(0, len(lines) - 1))] = ",".join(cells)
    if kind == "short":
        lines = lines[: draw(st.integers(0, len(lines)))]
    text = "".join(line + "\n" for line in lines)
    return ("\ufeff" * (kind == "bom") + text).encode()


def matrix(draw, valid):
    return draw(st.sampled_from([json.dumps(valid)] * 3 + MATRICES)).encode()


def images(draw, directory, channels):
    """Write a PFM of one shape for each name in `channels` (name ->
    channel count), at most one of them hostile; returns their paths."""
    shape = draw(st.sampled_from(SHAPES))
    hostile = draw(st.sampled_from([None, *channels]))
    directory.mkdir(exist_ok=True)
    for name, count in channels.items():
        (directory / name).write_bytes(draw(pfm_bytes(shape, count, name == hostile)))
    return [str(directory / name) for name in channels]


def simulate(draw, d):
    size = draw(st.sampled_from([["5", "4"], ["1", "6"], ["6", "1"]]))
    leds = draw(st.sampled_from(["0", "12"]))
    return ["simulate", "--size", *size, "--leds", leds, "--conditions", "c", "x", "--out", "sim"]


def condition_set(draw, d):
    """A set directory of the seven condition images, one in ten missing."""
    images(draw, d / "set", {f"grad_{c.value}.pfm": 1 for c in Condition if draw(st.integers(0, 9))})


def recover(draw, d):
    condition_set(draw, d)
    method = draw(st.sampled_from(["wilson", "ma", "specular", "minimal", "minimal:y:dual"]))
    return ["recover", "--method", method, "--in", "set", "--out", "n.pfm"]


def correct(draw, d):
    condition_set(draw, d)
    return ["correct", "--in", "set", "--out", "c.pfm"]


def calibrate_lights(draw, d):
    (d / "k.json").write_bytes(matrix(draw, K))
    limb = project_sphere_limb(np.array([0.0, 0.0, 890.0]), 38.1, np.array(K), n_points=12)
    (d / "limb.csv").write_bytes(draw(text_bytes(["x,y", *(f"{x},{y}" for x, y in limb)])))
    argv = ["calibrate", "lights", "--k", "k.json", "--radius", "38.1", "--limb", "limb.csv", "--out", "l.json"]
    if draw(st.booleans()):
        (d / "hl.csv").write_bytes(draw(text_bytes(["id,x,y", "0,30,20", "1,50,60"])))
        return [*argv, "--highlights", "hl.csv"]
    images(draw, d / "imgs", {"led_0.pfm": 1, "led_1.pfm": 1})
    return [*argv, "--images", "imgs"]


def calibrate_homography(draw, d):
    pairs = [f"{x},{y},{x + 2},{y - 1}" for x in (10, 50, 90) for y in (10, 90)]
    (d / "pairs.csv").write_bytes(draw(text_bytes(["x0,y0,x1,y1", *pairs])))
    return ["calibrate", "homography", "--pairs", "pairs.csv", "--out", "h.json"]


def calibrate_separate(draw, d):
    i0, i1 = images(draw, d, {"i0.pfm": 1, "i1.pfm": 1})
    argv = ["calibrate", "separate", "--i0", i0, "--i1", i1, "--out-specular", "s.pfm", "--out-diffuse", "d.pfm"]
    if draw(st.booleans()):
        (d / "h.json").write_bytes(matrix(draw, H))
        argv += ["--homography", "h.json"]
    return argv


def align(draw, d):
    frames = images(draw, d, {"g.pfm": 1, "gbar.pfm": 1, "c.pfm": 1})
    return ["align", "--frames", *frames, "--iters", "2", "--out", "flows"]


def sequence_plan(draw, d):
    n = draw(st.sampled_from(["1", "4", "0"]))
    method = draw(st.sampled_from(["minimal", "wilson"]))
    return ["sequence", "plan", "--n", n, "--method", method, "--out", "seq.csv"]


def sequence_process(draw, d):
    seq = generate_sequence(draw(st.integers(1, 2)))
    images(draw, d / "capture", {f"frame_{i:03d}.pfm": 1 for i in range(len(seq.frames))})
    (d / "capture" / "seq.csv").write_bytes(draw(text_bytes(seq.to_csv().splitlines())))
    return ["sequence", "process", "--dir", "capture", "--iters", "1", "--out", "normals"]


def stimulus(draw, d):
    normals, texture = images(draw, d, {"n.pfm": 3, "t.pfm": 1})
    return ["stimulus", "--normals", normals, "--texture", texture, "--out", "stim"]


def report(draw, d):
    a, b = images(draw, d, {"a.pfm": 3, "b.pfm": 3})
    return ["report", "--a", a, "--b", b, "--out", "hist.csv"]


COMMANDS = [
    simulate, recover, correct, calibrate_lights, calibrate_homography, calibrate_separate,
    align, sequence_plan, sequence_process, stimulus, report,
]


def listing(directory):
    return sorted((str(p.relative_to(directory)), p.is_dir()) for p in directory.rglob("*"))


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_every_subcommand_fails_cleanly_on_hostile_inputs(data):
    command = data.draw(st.sampled_from(COMMANDS), label="command")
    config = data.draw(st.dictionaries(st.sampled_from(CONFIG_KEYS), st.sampled_from(CONFIG_VALUES), max_size=2))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        argv = command(data.draw, d)
        if config:
            (d / "config.json").write_text(json.dumps(config))
            argv = ["--config", "config.json", *argv]
        before = listing(d)
        out, err = io.StringIO(), io.StringIO()
        os.chdir(d)  # relative paths, and any path a config value names, stay inside d
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2)
        if code:
            assert err.getvalue().startswith(("error: ", "usage error: "))
            assert listing(d) == before
