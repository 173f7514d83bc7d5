"""Shared domain types: radiance images, normal maps, gradient image sets."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

# Denominators below this (in normalized radiance units) invalidate a pixel
# instead of being clamped.
DARK_EPS = 1e-9

UNIT_TOL = 1e-6


class Condition(str, Enum):
    """Spherical illumination conditions: three gradients, their complements,
    and the constant (full-on) condition."""

    X = "x"
    Y = "y"
    Z = "z"
    XBAR = "xb"
    YBAR = "yb"
    ZBAR = "zb"
    C = "c"

    @property
    def axis(self) -> int:
        """0/1/2 for the x/y/z families; raises for the constant condition."""
        if self is Condition.C:
            raise ValueError("constant condition has no axis")
        return "xyz".index(self.value[0])

    @property
    def is_complement(self) -> bool:
        return self.value.endswith("b")

    @property
    def complement(self) -> "Condition":
        """x <-> xb, y <-> yb, z <-> zb."""
        if self is Condition.C:
            raise ValueError("constant condition has no complement")
        return Condition(self.value[0] if self.is_complement else self.value + "b")


GRADIENTS = (Condition.X, Condition.Y, Condition.Z)
COMPLEMENTS = (Condition.XBAR, Condition.YBAR, Condition.ZBAR)


def unit(v) -> np.ndarray:
    """A finite 3-vector scaled to unit length."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected 3 components, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector components must be finite")
    n = np.linalg.norm(v)
    if n < DARK_EPS:
        raise ValueError("cannot normalize a near-zero vector")
    return v / n


# The invalid-pixel rule shared by Image, NormalMap and FlowField: each
# constructor takes private read-only copies of its arrays with canonical
# values at invalid pixels, so its checks run over the whole grid and
# callers never mask before constructing.


def _mask(mask, shape) -> np.ndarray:
    """Private read-only copy of a validity mask; None means all valid."""
    m = np.ones(shape, dtype=bool) if mask is None else np.array(mask, dtype=bool)
    if m.shape != shape:
        raise ValueError(f"mask shape {m.shape} must match the grid {shape}")
    m.setflags(write=False)
    return m


def _filled(values: np.ndarray, mask: np.ndarray, fill) -> np.ndarray:
    """Private read-only copy of a grid with `fill` at every invalid pixel."""
    v = np.where(mask if values.ndim == 2 else mask[..., None], values, fill)
    v.setflags(write=False)
    return v


def _length(v: np.ndarray) -> np.ndarray:
    """Per-pixel Euclidean length of an HxWxC grid.

    Sums the squares in np.linalg.norm's order, so the result is bitwise
    equal to np.linalg.norm(v, axis=2), without its HxWxC temporary.
    """
    sq = v[..., 0] * v[..., 0]
    for c in range(1, v.shape[2]):
        sq += v[..., c] * v[..., c]
    return np.sqrt(sq, out=sq)


def _finite_nonnegative(a: np.ndarray) -> bool:
    # min propagates NaN, which fails the comparison
    return bool(a.min() >= 0 and a.max() < np.inf)


@dataclass(frozen=True)
class Image:
    """2D grid of linear radiance samples with a per-pixel validity mask.

    Valid samples are finite and non-negative; invalid samples are 0. No
    gamma anywhere in the math path.
    """

    samples: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.size == 0:
            raise ValueError("samples must be a non-empty 2D array")
        m = _mask(self.mask, s.shape)
        s = _filled(s, m, 0.0)
        if not _finite_nonnegative(s):
            raise ValueError("valid radiance samples must be finite and >= 0")
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "mask", m)

    @property
    def shape(self):
        return self.samples.shape


@dataclass(frozen=True)
class NormalMap:
    """Per-pixel unit normals plus the pre-normalization vector length.

    The magnitude channel carries the normalizing constant (lobe-size
    proxy) recorded before the final unit-length step. Invalid pixels hold
    the normal (0, 0, 1) with magnitude 0.
    """

    normals: np.ndarray
    magnitude: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.normals, dtype=float)
        if n.ndim != 3 or n.shape[2] != 3 or n[..., 0].size == 0:
            raise ValueError("normals must be an HxWx3 array")
        mag = self.magnitude
        if mag is None:
            mag = _length(n)
        mag = np.asarray(mag, dtype=float)
        if mag.shape != n.shape[:2]:
            raise ValueError("magnitude shape must match normals grid")
        m = _mask(self.mask, n.shape[:2])
        n = _filled(n, m, (0.0, 0.0, 1.0))
        mag = _filled(mag, m, 0.0)
        # written as "not within", so a NaN length fails too
        if not np.all(np.abs(_length(n) - 1.0) <= UNIT_TOL):
            raise ValueError("valid normals must have unit length within 1e-6")
        if not _finite_nonnegative(mag):
            raise ValueError("magnitude must be finite and >= 0 at valid pixels")
        object.__setattr__(self, "normals", n)
        object.__setattr__(self, "magnitude", mag)
        object.__setattr__(self, "mask", m)

    @classmethod
    def from_components(cls, vectors, mask=None) -> "NormalMap":
        """Normalize an HxWx3 field of (possibly non-unit) vectors.

        The pre-normalization length becomes the magnitude channel; pixels
        with near-zero length are masked invalid.
        """
        v = np.asarray(vectors, dtype=float)
        length = _length(v)
        ok = np.isfinite(length) & (length > DARK_EPS)
        if mask is not None:
            ok &= np.asarray(mask, dtype=bool)
        return cls(v / np.where(ok, length, 1.0)[..., None], length, ok)

    @property
    def shape(self):
        return self.normals.shape[:2]


@dataclass(frozen=True)
class GradientImageSet:
    """Mutually registered radiance images keyed by illumination condition."""

    images: Mapping[Condition, Image]

    def __post_init__(self):
        imgs = {Condition(k): v for k, v in dict(self.images).items()}
        if not imgs:
            raise ValueError("image set is empty")
        shapes = {img.shape for img in imgs.values()}
        if len(shapes) != 1:
            raise ValueError(f"images differ in shape: {shapes}")
        object.__setattr__(self, "images", imgs)

    def __contains__(self, cond) -> bool:
        return Condition(cond) in self.images

    def __getitem__(self, cond) -> Image:
        return self.images[Condition(cond)]

    def joint_mask(self, conditions: Iterable[Condition]) -> np.ndarray:
        """Pixels valid in every one of `conditions`; raises if the set
        lacks any of them."""
        conds = [Condition(c) for c in conditions]
        missing = [c.value for c in conds if c not in self.images]
        if missing:
            raise ValueError(f"missing condition: {', '.join(missing)}")
        mask = np.ones(self.shape, dtype=bool)
        for c in conds:
            mask &= self.images[c].mask
        return mask

    @property
    def shape(self):
        return next(iter(self.images.values())).shape


def angular_error_map(a: NormalMap, b: NormalMap) -> Image:
    """Per-pixel angle between two normal maps, in degrees.

    Computed as 2 asin(|a - b| / 2), the chord-length form of
    arccos(clamp(a.b)); identical in exact arithmetic but well conditioned
    for near-parallel vectors. Invalid wherever either input is invalid.
    """
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    chord = np.linalg.norm(a.normals - b.normals, axis=2)
    deg = 2.0 * np.degrees(np.arcsin(np.clip(chord / 2.0, 0.0, 1.0)))
    return Image(deg, a.mask & b.mask)


def histogram(values: Image, bin_width: float) -> list[tuple[float, int]]:
    """Histogram of valid pixels with bins anchored at multiples of bin_width.

    Returns (bin_center, count) pairs; counts sum to the number of valid
    pixels.
    """
    if not (math.isfinite(bin_width) and bin_width > 0):
        raise ValueError(f"bin width must be finite and positive, got {bin_width}")
    vals = values.samples[values.mask]
    if vals.size == 0:
        return []
    # valid samples are >= 0, so the largest bin index comes from the max
    if float(vals.max()) / bin_width >= 2.0**63:
        raise ValueError(f"bin width {bin_width} puts bin indices beyond int64")
    # np.unique, not np.bincount: bincount allocates the whole index range,
    # which a tiny bin width makes huge
    bins, counts = np.unique(np.floor(vals / bin_width).astype(int), return_counts=True)
    return [((i + 0.5) * bin_width, n) for i, n in zip(bins.tolist(), counts.tolist())]


def mean_angular_error(a: NormalMap, b: NormalMap) -> float:
    """Mean of the angular error map over jointly valid pixels, degrees."""
    err = angular_error_map(a, b)
    if not err.mask.any():
        raise ValueError("no jointly valid pixels")
    return float(err.samples[err.mask].mean())


def max_angular_error(a: NormalMap, b: NormalMap) -> float:
    err = angular_error_map(a, b)
    if not err.mask.any():
        raise ValueError("no jointly valid pixels")
    return float(err.samples[err.mask].max())
