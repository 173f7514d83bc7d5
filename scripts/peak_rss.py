"""Peak resident memory of each subcommand of the still-frame chain, of
`sequence process` on a moving capture, or of `simulate` on an LED stage.

    python3 scripts/peak_rss.py --size 1024
    python3 scripts/peak_rss.py --windows 8 [--size 256]
    python3 scripts/peak_rss.py --leds 642 --size 256

Run from the root of a source checkout; it imports the program from `src/`.
With `--size` alone it runs, in a temporary directory, `simulate`,
`recover --method wilson`, `correct`, `report` and `stimulus` one after
another, each in a fresh interpreter, so one subcommand's peak does not hide
the next one's. With `--windows N` it writes perfbench/scenes.py's
`make_capture` capture of N tracking frames, at capture-seq's 96x128 or at
`--size` square, and runs `sequence process` on it in a fresh interpreter.
With `--leds N` it runs `simulate --quantize --led-noise 0.01` of all seven
conditions under the N-LED stage at `--size` square in a fresh interpreter.
It prints one `<subcommand>  <MB>` line per subcommand: the child's own
`ru_maxrss` / 1024, the unit of perfbench/run.py's `peak_rss_mb`.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import scenes  # noqa: E402

# runs one subcommand quietly, then prints this interpreter's peak RSS (KiB)
CHILD = """\
import contextlib, io, resource, sys
from gradientstage.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""


def chain(size: int, work: Path) -> list[tuple[str, list[str]]]:
    sim, corrected = str(work / "sim"), str(work / "corrected.pfm")
    return [
        ("simulate", ["simulate", "--size", str(size), str(size), "--delta", "0.02", "0.01", "-0.01",
                      "--pixel-noise", "0.01", "--out", sim]),
        ("recover", ["recover", "--method", "wilson", "--in", sim, "--out", str(work / "wilson.pfm")]),
        ("correct", ["correct", "--init", "wilson", "--in", sim, "--out", corrected]),
        ("report", ["report", "--a", corrected, "--b", f"{sim}/gt_normals.pfm", "--bin-width", "0.1",
                    "--out", str(work / "report.csv")]),
        # the constant-condition image serves as the texture
        ("stimulus", ["stimulus", "--normals", corrected, "--texture", f"{sim}/grad_c.pfm",
                      "--out", str(work / "stimulus")]),
    ]


def capture(windows: int, size: int | None, work: Path) -> list[tuple[str, list[str]]]:
    if size is not None:
        scenes.CAPTURE_SHAPE = (size, size)
    inp = scenes.make_capture(np.random.default_rng(0), work / "capture", windows)
    return [("sequence", ["sequence", "process", "--dir", str(inp.directory), "--iters", "10",
                          "--out", str(work / "normals")])]


def stage_render(leds: int, size: int, work: Path) -> list[tuple[str, list[str]]]:
    return [("simulate", ["simulate", "--size", str(size), str(size), "--leds", str(leds), "--quantize",
                          "--led-noise", "0.01", "--out", str(work / "sim")])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", type=int, help="frame side, pixels")
    parser.add_argument("--windows", type=int, help="tracking frames of a capture for `sequence process`")
    parser.add_argument("--leds", type=int, help="LEDs of the stage `simulate` renders under, with --size")
    args = parser.parse_args(argv)
    if args.leds is not None and (args.size is None or args.windows is not None):
        parser.error("--leds needs --size, and no --windows")
    if args.size is None and args.windows is None:
        parser.error("give --size, --windows or both")
    if args.size is not None and args.size < 1:
        parser.error("--size must be >= 1")
    if args.windows is not None and args.windows < 1:
        parser.error("--windows must be >= 1")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    with tempfile.TemporaryDirectory() as tmp:
        if args.leds is not None:
            commands = stage_render(args.leds, args.size, Path(tmp))
        elif args.windows is None:
            commands = chain(args.size, Path(tmp))
        else:
            commands = capture(args.windows, args.size, Path(tmp))
        for name, cmd in commands:
            child = subprocess.run([sys.executable, "-c", CHILD, *cmd], env=env,
                                   capture_output=True, text=True)
            if child.returncode != 0:
                sys.stderr.write(child.stderr)
                raise SystemExit(f"exit code {child.returncode} from {' '.join(cmd)}")
            print(f"{name:<9} {int(child.stdout.split()[-1]) / 1024:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
