"""Out-of-process layer tracer: spans around every public function of the
program's modules, recorded from the benchmark's side without editing the
program.

`install()` replaces each public module-level function and public
classmethod of the traced modules with a timing wrapper, at every binding
site: the defining module and any module that bound the same object by a
`from`-import (`cli`, `sequencer`, `photometric`, the package `__init__`).
`uninstall()` puts the originals back. Spans (name, start, end, parent, op)
stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "gradientstage"
TRACED_MODULES = (
    "alignment", "calib", "core", "pfm", "photometric", "qp", "sequencer", "stage", "stimulus",
)


# Counts taken at layer boundaries. Each observer maps the call's bound
# arguments and result to {counter: value}; bytes are computed from array
# sizes, not measured.
def _cos_tensor_bytes(args, result):
    h, w = args["scene"].true_normals.shape
    return {"stage.cos_tensor_bytes": h * w * len(args["stage"].leds) * 8}


def _pfm_read(args, result):
    return {"pfm.bytes_read": result.size * 4}


def _pfm_written(args, result):
    return {"pfm.bytes_written": np.asarray(args["arr"]).size * 4}


def _alignment(args, result):
    residuals = result[2]
    return {
        "alignment.outer_iters": len(residuals),
        "alignment.residual_ratio": residuals[-1] / residuals[0] if residuals else 1.0,
        "alignment.early_stops": int(len(residuals) < args["iterations"]),
    }


OBSERVERS = {
    "stage.render_lambert_discrete": _cos_tensor_bytes,
    "pfm.read_pfm_array": _pfm_read,
    "pfm.write_pfm_array": _pfm_written,
    "alignment.joint_photometric_align": _alignment,
}

# per-op reduction of a counter's values; every other counter is summed
REDUCE = {
    "alignment.outer_iters": statistics.fmean,  # per window
    "alignment.residual_ratio": statistics.fmean,
    "stage.cos_tensor_bytes": max,  # the largest tensor alive at once
}


@dataclass
class OpProfile:
    """One traced op: self time and calls per span name, counter values."""

    wall: float
    self_time: dict[str, float]
    calls: dict[str, int]
    counters: dict[str, list[float]]

    def counter(self, name: str) -> float:
        values = self.counters.get(name, [])
        if not values:
            return 0.0
        return float(REDUCE.get(name, sum)(values))


@dataclass
class Tracer:
    spans: list[list] = field(default_factory=list)  # [name, start, end, parent, op]
    counters: dict[int, dict[str, list[float]]] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _op: int | None = None
    _patches: list[tuple[object, str, object]] = field(default_factory=list)
    _originals: list = field(default_factory=list)

    # -------------------------------------------------------------- wrapping

    def install(self) -> None:
        """Wrap every public function of the traced modules at every site."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}  # id of an original (kept alive) -> wrapper
        for short in TRACED_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                    self._originals.append(obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for name, member in list(vars(obj).items()):
                        if isinstance(member, classmethod) and not name.startswith("_"):
                            traced = self._wrap(f"{short}.{attr}.{name}", member.__func__)
                            self._patch(obj, name, classmethod(traced))
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == PACKAGE]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._originals.clear()

    def unwrapped_sites(self) -> list[str]:
        """Binding sites that still hold an original function; empty while
        installed."""
        originals = {id(f) for f in self._originals}
        return [
            f"{name}.{attr}"
            for name, module in list(sys.modules.items())
            if name.split(".")[0] == PACKAGE
            for attr, obj in vars(module).items()
            if id(obj) in originals
        ]

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, func):
        observe = OBSERVERS.get(name)
        signature = inspect.signature(func) if observe else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if observe is not None and self._op is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.count(observe(bound.arguments, result))
            return result

        return traced

    # ------------------------------------------------------------- recording

    @contextmanager
    def span(self, name: str):
        if self._op is None:
            yield
            return
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, values: dict[str, float]) -> None:
        per_op = self.counters.setdefault(self._op, defaultdict(list))
        for name, value in values.items():
            per_op[name].append(float(value))

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; its self time is the op's unattributed time."""
        self._op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._op = None

    # -------------------------------------------------------------- analysis

    def profile(self, op_id: int) -> OpProfile:
        """Self time (duration minus the children's durations) per name."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == op_id]
        child_time: dict[int, float] = defaultdict(float)
        for _, (_, start, end, parent, _) in spans:
            if parent is not None:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        wall = 0.0
        for i, (name, start, end, parent, _) in spans:
            self_time[name] += (end - start) - child_time[i]
            calls[name] += 1
            if parent is None:
                wall = end - start
        return OpProfile(wall, dict(self_time), dict(calls), dict(self.counters.get(op_id, {})))

    def consistency_errors(self, op_id: int) -> list[str]:
        """Spans nest inside their parents, and self times plus the op's
        unattributed time add up to the op's wall time."""
        errors = []
        for name, start, end, parent, op in self.spans:
            if op != op_id:
                continue
            if end < start:
                errors.append(f"span {name} ends before it starts")
            if parent is not None:
                _, p_start, p_end, _, _ = self.spans[parent]
                if start < p_start or end > p_end:
                    errors.append(f"span {name} escapes its parent {self.spans[parent][0]}")
        prof = self.profile(op_id)
        total = sum(prof.self_time.values())
        if abs(total - prof.wall) > 1e-9 + 1e-9 * prof.wall:
            errors.append(f"self times sum to {total:.9f} s, op wall time is {prof.wall:.9f} s")
        return errors

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
