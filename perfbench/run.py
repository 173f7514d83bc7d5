"""gradientstage benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. One process runs one workload as a
single client in a closed loop: it imports the program from `src/`,
generates the workload's inputs from the seed, then runs ops back to back
until `--seconds` have passed. Set-up is the median of three imports (this
one and two in fresh interpreters) plus the median of three generations. One op is one pass of the workload's CLI chain through
`gradientstage.cli.run`; every op's outputs are checked.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. `--trace 1`
alternates untraced and traced ops and reports the per-layer metrics from
the traced ones, plus the tracing overhead between the two. The last line
of stdout is the result; the line before it is the full record (the
environment, every op, every check), also written under `.perfbench/`.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import gradientstage.cli; print(time.perf_counter() - t)"
)


class OpFailed(Exception):
    pass


def import_seconds(src: Path) -> float:
    """Import time of the program in a fresh interpreter."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


def blas_threads():
    """OpenBLAS thread count of the numpy in use, or None if unknown."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


def run_op(cli, chain, tracer, op_id) -> tuple[float, float]:
    """Run one op's CLI chain; return its wall and CPU time or raise OpFailed."""
    from workloads import subcommand

    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    failure = None
    with contextlib.redirect_stdout(io.StringIO()):
        start, cpu_start = time.perf_counter(), time.process_time()
        with tracer.op(op_id) if tracer else contextlib.nullcontext():
            for argv in chain:
                with span("cli." + subcommand(argv)):
                    code = cli.run(argv)
                if code != 0:
                    failure = f"exit code {code} from {subcommand(argv)}"
                    break
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    if failure:
        raise OpFailed(failure)
    return wall, cpu


def trace_errors(wl, tracer, op_id, chain) -> list[str]:
    """Call-count and accounting self-checks of one traced op."""
    prof = tracer.profile(op_id)
    errors = tracer.consistency_errors(op_id)
    cli_calls = sum(n for name, n in prof.calls.items() if name.startswith("cli."))
    if cli_calls != len(chain):
        errors.append(f"{cli_calls} cli spans, expected {len(chain)}")
    for name, want in wl.expected_calls.items():
        if prof.calls.get(name, 0) != want:
            errors.append(f"{name}: {prof.calls.get(name, 0)} calls, expected {want}")
    if wl.trace_check:
        errors += wl.trace_check(prof)
    return errors


def layer_metrics(names, ops, tracer) -> dict[str, float]:
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    profiles = [tracer.profile(op["id"]) for op in traced]

    def median(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    traced_p50 = median(op["wall"] for op in traced)
    untraced_p50 = median(op["wall"] for op in untraced)
    special = {
        "trace.op_p50_s": traced_p50,
        "trace.untraced_op_p50_s": untraced_p50,
        "trace.overhead_pct": 100.0 * (traced_p50 - untraced_p50) / untraced_p50 if untraced_p50 else 0.0,
        "trace.unattributed_s": median(p.self_time.get("op", 0.0) for p in profiles),
        "calib.light_dir_err_deg": median(
            op["accuracy"]["light_dir_err_deg"] for op in ops if "light_dir_err_deg" in op["accuracy"]
        ),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".s"):
            out[name] = median(p.self_time.get(name[:-2], 0.0) for p in profiles)
        elif name.endswith(".calls"):
            out[name] = median(p.calls.get(name[: -len(".calls")], 0) for p in profiles)
        else:
            out[name] = median(p.counter(name) for p in profiles)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not spec_path.is_file() or not (src / "gradientstage" / "cli.py").is_file():
        print(f"error: {ROOT} is not a gradientstage checkout (BENCHMARK.json, src/gradientstage)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    sys.path.insert(0, str(src))
    # numpy and scipy load here for the first time, so they count as import time
    t0 = time.perf_counter()
    cli = importlib.import_module("gradientstage.cli")
    import_s = time.perf_counter() - t0
    if src.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"error: imported gradientstage from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    import numpy as np

    from tracer import Tracer
    from workloads import WORKLOADS, CheckError

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    state = ROOT / ".perfbench"
    work = state / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    ops = []
    import_times = [import_s] + [import_seconds(src) for _ in range(SETUP_REPEATS - 1)]
    try:
        gen_times = []
        for i in range(SETUP_REPEATS):
            if i:
                shutil.rmtree(work / f"inputs{i - 1}")
            t = time.perf_counter()
            inputs = wl.generate(np.random.default_rng(args.seed), work / f"inputs{i}")
            gen_times.append(time.perf_counter() - t)

        loop_start = time.perf_counter()
        while True:
            op = {"id": len(ops), "traced": bool(tracer) and len(ops) % 2 == 1,
                  "wall": None, "error": None, "accuracy": {}}
            out = work / f"op{op['id']}"
            out.mkdir()
            chain = wl.chain(inputs, out)
            gc.collect()
            try:
                if op["traced"]:
                    tracer.install()
                try:
                    if op["traced"] and tracer.unwrapped_sites():
                        raise OpFailed(f"untraced binding sites: {tracer.unwrapped_sites()}")
                    op["wall"], op["cpu"] = run_op(cli, chain, tracer if op["traced"] else None, op["id"])
                finally:
                    if op["traced"]:
                        tracer.uninstall()
                op["accuracy"] = wl.check(inputs, out)
                if op["traced"]:
                    errors = trace_errors(wl, tracer, op["id"], chain)
                    if errors:
                        raise OpFailed("; ".join(errors))
            except (OpFailed, CheckError) as exc:
                op["error"] = str(exc)
            except Exception:  # a crash inside the program is a failed op, not a failed run
                op["error"] = traceback.format_exc()
            if op["error"]:
                print(f"op {op['id']} failed: {op['error']}", file=sys.stderr)
            ops.append(op)
            shutil.rmtree(out)
            done = time.perf_counter() - loop_start >= args.seconds
            if done and len(ops) >= (2 if tracer else 1):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [op for op in ops if not op["error"]]
    walls = [op["wall"] for op in ops if op["wall"] is not None]
    if args.trace:
        values = layer_metrics(list(units), ops, tracer)
    else:
        values = {
            "setup_s": statistics.median(import_times) + statistics.median(gen_times),
            "op_p50_s": statistics.median(walls) if walls else 0.0,
            "mpix_per_s": len(walls) * wl.frame_px / sum(walls) / 1e6 if walls else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "normal_err_deg": statistics.median(op["accuracy"]["normal_err_deg"] for op in good)
            if good else 0.0,
        }
    result = {
        "correct": len(good) == len(ops),
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "import_s": import_times, "generate_s": gen_times,
        "ops": ops, "result": result,
    }
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (results / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        (results / f"spans_{stem}.json").write_text(json.dumps(tracer.dump()))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
