"""Performance-capture planning and processing: minimal-image-set capture
sequences, placement-rule validation, tracking-frame normals via half-flow
warps, and temporal upsampling of normals to intermediate frames."""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .alignment import (
    FlowField,
    _flow_estimate,
    half_flow,
    joint_photometric_align,
    warp_image,
    warp_normals,
)
from .core import Condition, Image, NormalMap
from .photometric import _difference_components

# Base-frame cycle of the capture chain. Window k (1-based) runs
# [F_k, comp(F_{k-1}), C, F_{k+1}, comp(F_k)]; the chain opens [X, Z, C, ...]
# and cycles through the four admissible unit sequences.
_F_CYCLE = (
    Condition.X, Condition.Y, Condition.ZBAR,
    Condition.X, Condition.Y, Condition.ZBAR,
    Condition.XBAR, Condition.YBAR, Condition.Z,
    Condition.XBAR, Condition.YBAR, Condition.Z,
)

_LABEL_CYCLE = (
    "s_x", "s_ybar", "s_zbar",
    "s_x", "s_y", "s_zbar",
    "s_xbar", "s_y", "s_z",
    "s_xbar", "s_ybar", "s_z",
)


def _base_frame(k: int) -> Condition:
    """F_k of the capture chain, k >= 1."""
    return _F_CYCLE[(k - 1) % 12]


@dataclass(frozen=True)
class CaptureSequence:
    """Ordered illumination conditions plus per-tracking-frame labels."""

    frames: tuple[Condition, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(Condition(f) for f in self.frames))
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def tracking_indices(self) -> list[int]:
        return [i for i, f in enumerate(self.frames) if f is Condition.C]

    def window(self, center: int) -> list[Condition]:
        if self.frames[center] is not Condition.C:
            raise ValueError(f"frame {center} is not a tracking frame")
        if center < 2 or center > len(self.frames) - 3:
            raise ValueError(f"tracking frame {center} lacks a full 5-frame window")
        return list(self.frames[center - 2 : center + 3])

    def to_csv(self) -> str:
        """One row per frame, labelled by its nearest tracking frame (the
        earlier one on a tie); tracking frames past the labels get none."""
        lines = ["frame_index,condition,subsequence_label"]
        centers = self.tracking_indices
        for i, f in enumerate(self.frames):
            j = bisect_left(centers, i)  # centers[j - 1] < i <= centers[j]
            if j > 0 and (j == len(centers) or i - centers[j - 1] <= centers[j] - i):
                j -= 1
            label = self.labels[j] if j < min(len(centers), len(self.labels)) else ""
            lines.append(f"{i},{f.value},{label}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "CaptureSequence":
        frames = []
        labels: dict[int, str] = {}
        rows = [r for r in text.strip().splitlines()[1:] if r.strip()]
        for row in rows:
            idx, cond, label = (row.split(",") + [""])[:3]
            frames.append(Condition(cond))
            if cond == "c" and label:
                labels[int(idx)] = label
        ordered = [labels[i] for i in sorted(labels)]
        return cls(tuple(frames), tuple(ordered))


def image_count(n: int, method: str) -> int:
    """Total frames captured for n tracking frames.

    wilson: 4n + 3.  minimal: 6(floor(n/2) + 1) - 1 for odd n, 3n + 3 for
    even n.
    """
    if n < 1:
        raise ValueError("need at least one tracking frame")
    if method == "wilson":
        return 4 * n + 3
    if method == "minimal":
        if n % 2 == 1:
            return 6 * (n // 2 + 1) - 1
        return 3 * n + 3
    raise ValueError(f"unknown method: {method}")


def generate_sequence(n: int) -> CaptureSequence:
    """Capture sequence with n tracking frames, each flanked by a valid
    minimal-set window with its base complement pair outermost.

    Odd n truncates the chain right after the last window; even n carries
    one extra trailing gradient frame (the chain's next base frame) so the
    total matches image_count(n, "minimal") while keeping exactly n
    tracking frames.
    """
    if n < 1:
        raise ValueError("need at least one tracking frame")
    frames: list[Condition] = [_base_frame(1), Condition.Z]
    for k in range(1, n + 1):
        frames.append(Condition.C)
        frames.append(_base_frame(k + 1))
        frames.append(_base_frame(k).complement)
    target = image_count(n, "minimal")
    if len(frames) < target:
        frames.append(_base_frame(n + 2))  # even n: next base frame, C dropped
    assert len(frames) == target
    labels = tuple(_LABEL_CYCLE[(k - 1) % 12] for k in range(1, n + 1))
    return CaptureSequence(tuple(frames), labels)


def validate_sequence(seq: CaptureSequence) -> list[str]:
    """Structural checks of the three placement rules.

    Empty result means valid: every tracking frame has a complete window
    with its base complement pair outermost covering all three axes, and
    exactly two gradient frames separate consecutive tracking frames.
    Labelled sequences are additionally checked for the two impossible
    all-gradient / all-complement unit sequences.
    """
    violations: list[str] = []
    frames = seq.frames
    centers = seq.tracking_indices
    for a, b in zip(centers, centers[1:]):
        between = b - a - 1
        if between != 2:
            violations.append(
                f"rule 2: {between} gradient frames between tracking frames "
                f"{a} and {b} (expected exactly 2)"
            )
    for c in centers:
        if c < 2 or c > len(frames) - 3:
            violations.append(f"tracking frame {c} lacks a complete 5-frame window")
            continue
        first, inner_l, _, inner_r, last = frames[c - 2 : c + 3]
        if Condition.C in (first, inner_l, inner_r, last):
            violations.append(f"window at {c} contains another tracking frame")
            continue
        if first.complement is not last:
            violations.append(
                f"rule 1: window at {c} ends ({first.value}, {last.value}) "
                "are not a base complement pair"
            )
        axes = {first.axis, inner_l.axis, inner_r.axis}
        if len(axes) != 3:
            violations.append(f"window at {c} does not cover all three axes")
    if seq.labels:
        for u in range(0, len(seq.labels) - 2, 3):
            unit = seq.labels[u : u + 3]
            bars = [label.endswith("bar") for label in unit]
            if all(bars) or not any(bars):
                violations.append(
                    f"impossible unit sequence ({', '.join(unit)}) at windows {u + 1}..{u + 3}"
                )
    return violations


def tracking_frame_normal(
    window: list[tuple[Condition, Image]],
    flow_first: FlowField,
    flow_last: FlowField,
) -> NormalMap:
    """Normal map at a tracking frame from its 5-frame window.

    The outer base pair is warped by its full alignment flows; the two
    frames adjacent to the tracking frame by the corresponding half flows
    (linear-motion approximation). The warped end pair's sum stands in
    for the constant image, so pure minimal, dual and mixed windows share
    one combination; a window that misses an axis raises.
    """
    if flow_first is None or flow_last is None:
        raise ValueError("missing flow for the window's base pair")
    if len(window) != 5:
        raise ValueError("window must contain exactly 5 frames")
    conds = [Condition(c) for c, _ in window]
    imgs = [img for _, img in window]
    if conds[2] is not Condition.C:
        raise ValueError("window center must be the tracking frame")
    if conds[0].complement is not conds[4]:
        raise ValueError("window ends must be a base complement pair")
    first_w = warp_image(imgs[0], flow_first)
    last_w = warp_image(imgs[4], flow_last)
    inner_l = warp_image(imgs[1], half_flow(flow_first))
    inner_r = warp_image(imgs[3], half_flow(flow_last))
    samples = {
        conds[0]: first_w.samples, conds[1]: inner_l.samples,
        conds[3]: inner_r.samples, conds[4]: last_w.samples,
    }
    comp = _difference_components(samples, first_w.samples + last_w.samples)
    mask = first_w.mask & last_w.mask & inner_l.mask & inner_r.mask
    return NormalMap.from_components(comp, mask)


def intermediate_warped_normal(
    n_prev: NormalMap,
    n_next: NormalMap,
    flow_prev: FlowField,
    flow_next: FlowField,
    t_prev: int,
    t_next: int,
) -> NormalMap:
    """Distance-weighted blend of the two flanking tracking normals.

    flow_prev / flow_next run from this frame toward each tracking frame;
    each tracking normal is warped back by the negated flow. Weights are
    proportional to the opposite temporal distance (w_prev = t_next,
    w_next = t_prev) so the nearer frame dominates; the weighted sum is
    renormalized. Pixels where both warps are invalid stay invalid;
    single-valid pixels use the valid side alone.
    """
    if t_prev < 1 or t_next < 1:
        raise ValueError("temporal distances must be >= 1")
    a = warp_normals(n_prev, flow_prev.negated())
    b = warp_normals(n_next, flow_next.negated())
    w_prev, w_next = float(t_next), float(t_prev)
    va = np.where(a.mask[..., None], a.normals, 0.0)
    vb = np.where(b.mask[..., None], b.normals, 0.0)
    blend = w_prev * va + w_next * vb
    return NormalMap.from_components(blend, a.mask | b.mask)


@dataclass
class SequenceResult:
    """Per-frame normal maps from a processed capture sequence.

    tracking holds the tracking-frame normals keyed by frame index;
    upsampled holds warped/blended normals at the gradient frames (frames
    with no flanking tracking frame are absent).
    """

    tracking: dict[int, NormalMap] = field(default_factory=dict)
    upsampled: dict[int, NormalMap] = field(default_factory=dict)
    residuals: dict[int, list[float]] = field(default_factory=dict)


def _tracking_start(
    frames: list[Image], centers: list[int], c: int, ends: tuple[int, int]
) -> tuple[FlowField, FlowField] | None:
    """Flows of frames ends toward tracking frame c under constant velocity,
    or None in a sequence with one tracking frame or where the tracking
    frames are flat, which leaves the motion undetermined.

    The nearest other tracking frame t shares c's constant illumination, so
    one brightness-constant flow estimate of t toward c holds the motion;
    frame i's start is that flow times (i - c) / (t - c) (Wilson et al.
    2010 start the alignment from the tracking frames' flow).
    """
    others = [t for t in centers if t != c]
    if not others:
        return None
    t = min(others, key=lambda t: abs(t - c))
    flow = _flow_estimate(frames[t], frames[c])
    if flow is None:
        return None
    # + 0.0 keeps a zero flow's zeros positive under a negative scale
    return tuple(FlowField(flow.vectors * ((i - c) / (t - c)) + 0.0, flow.mask) for i in ends)


def process_sequence(
    seq: CaptureSequence,
    frames: list[Image],
    iterations: int = 10,
) -> SequenceResult:
    """Full pipeline: joint alignment per window, started from the
    constant-velocity flow of the nearest tracking frame (_tracking_start),
    tracking-frame normals, then temporal upsampling of every intermediate
    gradient frame."""
    if len(frames) != len(seq.frames):
        raise ValueError("frame images do not match the sequence length")
    bad = validate_sequence(seq)
    if bad:
        raise ValueError("invalid sequence: " + "; ".join(bad))
    centers = seq.tracking_indices
    result = SequenceResult()
    # flows[c][i]: flow from frame i of the window around c toward c
    flows: dict[int, dict[int, FlowField]] = {}
    for c in centers:
        first, last = c - 2, c + 2
        g, gbar = (last, first) if seq.frames[first].is_complement else (first, last)
        start = _tracking_start(frames, centers, c, (g, gbar))
        u, v, result.residuals[c] = joint_photometric_align(
            frames[g], frames[gbar], frames[c], iterations, init=start
        )
        ends = {g: u, gbar: v}
        flows[c] = {**ends, c - 1: half_flow(ends[first]), c + 1: half_flow(ends[last])}
        window = [(seq.frames[i], frames[i]) for i in range(first, last + 1)]
        result.tracking[c] = tracking_frame_normal(window, ends[first], ends[last])

    for i in range(len(frames)):
        near = [c for c in centers if i in flows[c]]  # at most one on each side
        if len(near) == 2:
            cp, cn = near
            result.upsampled[i] = intermediate_warped_normal(
                result.tracking[cp], result.tracking[cn], flows[cp][i], flows[cn][i], i - cp, cn - i
            )
        elif near:
            c = near[0]
            result.upsampled[i] = warp_normals(result.tracking[c], flows[c][i].negated())
    return result
