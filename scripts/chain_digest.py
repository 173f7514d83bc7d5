"""SHA-256 of every input and output file of the four benchmark chains.

    python3 scripts/chain_digest.py --seed 3 > digests.txt

Run from the root of a source checkout; like perfbench/run.py it imports
the program from `src/`. For each workload of perfbench/workloads.py it
generates the inputs from the seed and runs one op of the workload's CLI
chain through `gradientstage.cli.run`. It then runs `align` on the
capture's first x, xb and c frames, `sequence process` on a three-window
capture, whose third window is mixed (zb, yb, c, x, z), the still chain
(simulate, recover, correct, report, stimulus) on a noisy, distorted 160x96
cylinder, and a 64x64 sphere under the 42-LED stage at 256 ILT levels
(simulate, recover, correct).
It prints one `<sha256>  <file>` line per file, sorted by path, so `diff`
of the output of two checkouts shows every file whose bytes differ.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import scenes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from gradientstage import cli  # noqa: E402


def run_chain(chain: list[list[str]]) -> None:
    for argv in chain:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(argv)
        if code != 0:
            raise SystemExit(f"exit code {code} from {' '.join(argv)}")


def align_chain(inp, out: Path) -> list[list[str]]:
    """`align` on the first x, xb and c frames of a capture."""
    frames = [str(inp.directory / f"frame_{inp.conditions.index(c):03d}.pfm") for c in ("x", "xb", "c")]
    return [["align", "--pair", "x", "--frames", *frames, "--iters", "10", "--out", str(out)]]


def mixed_capture_chain(seed: int, work: Path) -> list[list[str]]:
    """`sequence process` on a three-window capture; capture-seq's two
    windows are a pure and a dual one."""
    inp = scenes.make_capture(np.random.default_rng(seed), work / "inputs", windows=3)
    return [["sequence", "process", "--dir", str(inp.directory), "--iters", "10",
             "--out", str(work / "normals")]]


def cylinder_chain(seed: int, out: Path) -> list[list[str]]:
    """The still-frame chain on a non-square cylinder, its constant image as
    the stimulus texture."""
    sim, corrected = out / "sim", str(out / "corrected.pfm")
    return [
        ["simulate", "--scene", "cylinder", "--size", "160", "96", "--delta", "0.02", "0.01", "-0.01",
         "--deltabar", "0.01", "-0.02", "0.015", "--pixel-noise", "0.01", "--seed", str(seed),
         "--out", str(sim)],
        ["recover", "--method", "wilson", "--in", str(sim), "--out", str(out / "wilson.pfm")],
        ["correct", "--init", "wilson", "--in", str(sim), "--out", corrected],
        ["report", "--a", corrected, "--b", str(sim / "gt_normals.pfm"), "--bin-width", "0.1",
         "--out", str(out / "report.csv")],
        ["stimulus", "--normals", corrected, "--texture", str(sim / "grad_c.pfm"),
         "--out", str(out / "stimulus")],
    ]


def quantized_chain(seed: int, out: Path) -> list[list[str]]:
    """A coarse ILT on a small stage: stage-512 renders 4096 levels only."""
    sim = out / "sim"
    return [
        ["simulate", "--size", "64", "64", "--leds", "42", "--quantize", "--quantization", "256",
         "--led-noise", "0.01", "--seed", str(seed), "--out", str(sim)],
        ["recover", "--method", "minimal:x:dual", "--in", str(sim), "--out", str(out / "minimal.pfm")],
        ["correct", "--init", "minimal:x:dual", "--in", str(sim), "--out", str(out / "corrected.pfm")],
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, wl in WORKLOADS.items():
            inputs = wl.generate(np.random.default_rng(args.seed), work / name / "inputs")
            out = work / name / "outputs"
            out.mkdir()
            run_chain(wl.chain(inputs, out))
            if name == "capture-seq":
                run_chain(align_chain(inputs, out / "align"))
        run_chain(mixed_capture_chain(args.seed, work / "capture-3"))
        run_chain(cylinder_chain(args.seed, work / "cylinder"))
        run_chain(quantized_chain(args.seed, work / "quantized"))
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {path.relative_to(work)}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
