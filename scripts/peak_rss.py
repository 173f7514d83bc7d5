"""Peak resident memory of each subcommand of the still-frame chain.

    python3 scripts/peak_rss.py --size 1024

Run from the root of a source checkout; it imports the program from `src/`.
In a temporary directory it runs `simulate`, `recover --method wilson`,
`correct`, `report` and `stimulus` one after another, each in a fresh
interpreter, so one subcommand's peak does not hide the next one's. It
prints one `<subcommand>  <MB>` line per subcommand: the child's own
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", type=int, required=True, help="frame side, pixels")
    args = parser.parse_args(argv)
    if args.size < 1:
        parser.error("--size must be >= 1")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cmd in chain(args.size, Path(tmp)):
            child = subprocess.run([sys.executable, "-c", CHILD, *cmd], env=env,
                                   capture_output=True, text=True)
            if child.returncode != 0:
                sys.stderr.write(child.stderr)
                raise SystemExit(f"exit code {child.returncode} from {' '.join(cmd)}")
            print(f"{name:<9} {int(child.stdout.split()[-1]) / 1024:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
