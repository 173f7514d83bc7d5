"""Performance-capture planning and processing: minimal-image-set capture
sequences, placement-rule validation, tracking-frame normals as warped
minimal image sets, and temporal upsampling of normals to intermediate
frames."""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .alignment import FlowField, _flow_estimate, joint_photometric_align, warp_image, warp_normals
from .core import GRADIENTS, Condition, GradientImageSet, Image, NormalMap
from .photometric import recover_minimal

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
        """Inverse of to_csv; each row's frame_index must be its position,
        since the frames of a sequence directory are taken in that order,
        and the labelled tracking rows must come first, since to_csv labels
        the tracking frames in order."""
        frames, labels, unlabelled = [], [], None  # unlabelled: first such tracking row
        rows = [r for r in text.strip().splitlines()[1:] if r.strip()]
        for i, row in enumerate(rows):
            idx, cond, label = (row.split(",") + ["", ""])[:3]
            try:
                index, frame = int(idx), Condition(cond)
            except ValueError as exc:
                raise ValueError(f"sequence row {i + 1}: {exc}") from None
            if index != i:
                raise ValueError(f"sequence row {i + 1} has frame_index {idx}, expected {i}")
            frames.append(frame)
            if frames[-1] is not Condition.C:
                continue
            if not label:
                unlabelled = unlabelled or i + 1
            elif unlabelled:
                raise ValueError(
                    f"sequence row {i + 1} labels a tracking frame after unlabelled row {unlabelled}"
                )
            else:
                labels.append(label)
        return cls(tuple(frames), tuple(labels))


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

    Empty result means valid: there is a tracking frame, each one has a
    complete window with its base complement pair outermost covering all
    three axes, and exactly two gradient frames separate consecutive
    tracking frames.
    Labelled sequences are additionally checked for the two impossible
    all-gradient / all-complement unit sequences.
    """
    violations: list[str] = []
    frames = seq.frames
    centers = seq.tracking_indices
    if not centers:
        violations.append("no tracking frame")
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


def tracking_frame_normal(window: Mapping[Condition, tuple[Image, FlowField]]) -> NormalMap:
    """Normal map at a tracking frame from its window's four gradient
    frames, keyed by condition, each warped toward the tracking frame by its
    own flow: recover_minimal of the warped set, whose base is the one axis
    the window holds from both sides."""
    pairs = [g for g in GRADIENTS if g in window and g.complement in window]
    if len(pairs) != 1:
        raise ValueError(f"window holds {len(pairs)} complement pairs, expected 1")
    warped = GradientImageSet({c: warp_image(img, flow) for c, (img, flow) in window.items()})
    return recover_minimal(warped, pairs[0])


def intermediate_warped_normal(sides: Sequence[tuple[NormalMap, FlowField, int]]) -> NormalMap:
    """Normal at a non-tracking frame from the one or two windows holding it.

    Each side is (tracking normal, flow of this frame toward it, temporal
    distance), in window order; each normal is warped back by the negated
    flow. One side is its warp alone; two are blended with weights
    proportional to the opposite distance (w_prev = t_next, w_next =
    t_prev) so the nearer frame dominates, and renormalized. Pixels where
    both warps are invalid stay invalid; single-valid pixels use the valid
    side alone.
    """
    if len(sides) not in (1, 2) or any(t < 1 for _, _, t in sides):
        raise ValueError("need one or two sides, each at a temporal distance >= 1")
    warped = [warp_normals(nm, flow.scaled(-1.0)) for nm, flow, _ in sides]
    if len(warped) == 1:
        return warped[0]
    a, b = warped
    (_, _, t_prev), (_, _, t_next) = sides
    w_prev, w_next = float(t_next), float(t_prev)
    va = np.where(a.mask[..., None], a.normals, 0.0)
    vb = np.where(b.mask[..., None], b.normals, 0.0)
    blend = w_prev * va + w_next * vb
    return NormalMap.from_components(blend, a.mask | b.mask)


def _tracking_start(
    frames: Sequence[Image], centers: list[int], c: int, ends: tuple[int, int], tracking: Image
) -> tuple[FlowField, FlowField] | None:
    """Flows of frames ends toward tracking frame c, imaged as tracking,
    under constant velocity, or None in a sequence with one tracking frame
    or where the tracking frames are flat, which leaves the motion
    undetermined.

    The nearest other tracking frame t shares c's constant illumination, so
    one brightness-constant flow estimate of t toward c holds the motion;
    frame i's start is that flow times (i - c) / (t - c) (Wilson et al.
    2010 start the alignment from the tracking frames' flow).
    """
    others = [t for t in centers if t != c]
    if not others:
        return None
    t = min(others, key=lambda t: abs(t - c))
    flow = _flow_estimate(frames[t], tracking)
    if flow is None:
        return None
    return tuple(flow.scaled((i - c) / (t - c)) for i in ends)


def process_sequence(
    seq: CaptureSequence,
    frames: Sequence[Image],
    emit: Callable[[int, NormalMap], object],
    iterations: int = 10,
) -> dict[int, list[float]]:
    """Full pipeline in one pass over the windows: joint alignment per
    window, started from the constant-velocity flow of the nearest tracking
    frame (_tracking_start), the tracking-frame normal, and the temporal
    upsampling of the window's gradient frames.

    Each window reads its five frames and its start's tracking frame from
    frames. emit(i, normal) receives, in rising i, the normal of every frame
    within two of a tracking frame once the windows holding it are done;
    frames in no window get none. Returns each window's alignment residual
    trace keyed by its tracking frame.
    """
    if len(frames) != len(seq.frames):
        raise ValueError("frame images do not match the sequence length")
    bad = validate_sequence(seq)
    if bad:
        raise ValueError("invalid sequence: " + "; ".join(bad))
    centers = seq.tracking_indices
    residuals: dict[int, list[float]] = {}
    # sides[i]: the intermediate_warped_normal sides of frame i from the
    # windows done so far; rule 2 makes a window's first two frames the
    # previous window's last two, so only those two frames' sides carry over
    sides: dict[int, list[tuple[NormalMap, FlowField, int]]] = {}
    for c in centers:
        first, last = c - 2, c + 2
        window = {i: frames[i] for i in range(first, last + 1)}
        g, gbar = (last, first) if seq.frames[first].is_complement else (first, last)
        start = _tracking_start(frames, centers, c, (g, gbar), window[c])
        u, v, residuals[c] = joint_photometric_align(
            window[g], window[gbar], window[c], iterations, init=start
        )
        # flows[i]: flow from gradient frame i toward c; the ends' from the
        # alignment, the inner frames' from the nearer end's under constant
        # velocity, as in _tracking_start
        flows = {g: u, gbar: v}
        for i, j in ((c - 1, first), (c + 1, last)):
            flows[i] = flows[j].scaled((i - c) / (j - c))
        normal = tracking_frame_normal({seq.frames[i]: (window[i], flow) for i, flow in flows.items()})
        for i, flow in flows.items():
            sides.setdefault(i, []).append((normal, flow, abs(i - c)))
        del window, start, u, v, flows  # freed before the next window aligns; sides holds the rest
        # no later window holds the frames up to c, nor the last one's rest
        end = last if c == centers[-1] else c
        for i in range(first, end + 1):
            emit(i, normal if i == c else intermediate_warped_normal(sides.pop(i)))
    return residuals
