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
        if self is Condition.C:
            raise ValueError("constant condition has no complement")
        return _COMPLEMENT[self]


_COMPLEMENT = {
    Condition.X: Condition.XBAR,
    Condition.XBAR: Condition.X,
    Condition.Y: Condition.YBAR,
    Condition.YBAR: Condition.Y,
    Condition.Z: Condition.ZBAR,
    Condition.ZBAR: Condition.Z,
}

GRADIENTS = (Condition.X, Condition.Y, Condition.Z)
COMPLEMENTS = (Condition.XBAR, Condition.YBAR, Condition.ZBAR)


def vec3(x, y=None, z=None) -> np.ndarray:
    """Build a float 3-vector from components or any length-3 sequence."""
    if y is None:
        v = np.asarray(x, dtype=float)
    else:
        v = np.array([x, y, z], dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected 3 components, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector components must be finite")
    return v


def unit(v) -> np.ndarray:
    v = vec3(v)
    n = np.linalg.norm(v)
    if n < DARK_EPS:
        raise ValueError("cannot normalize a near-zero vector")
    return v / n


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Image:
    """2D grid of linear radiance samples with a per-pixel validity mask.

    Valid samples are finite and non-negative; no gamma anywhere in the
    math path.
    """

    samples: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.size == 0:
            raise ValueError("samples must be a non-empty 2D array")
        m = self.mask
        if m is None:
            m = np.ones(s.shape, dtype=bool)
        m = np.asarray(m, dtype=bool)
        if m.shape != s.shape:
            raise ValueError("mask shape must match samples")
        vals = s[m]
        if vals.size and (not np.all(np.isfinite(vals)) or np.any(vals < 0)):
            raise ValueError("valid radiance samples must be finite and >= 0")
        object.__setattr__(self, "samples", _freeze(s))
        object.__setattr__(self, "mask", _freeze(m))

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def height(self) -> int:
        return self.samples.shape[0]

    @property
    def shape(self):
        return self.samples.shape


@dataclass(frozen=True)
class NormalMap:
    """Per-pixel unit normals plus the pre-normalization vector length.

    The magnitude channel carries the normalizing constant (lobe-size
    proxy) recorded before the final unit-length step.
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
            mag = np.linalg.norm(n, axis=2)
        mag = np.asarray(mag, dtype=float)
        m = self.mask
        if m is None:
            m = np.ones(n.shape[:2], dtype=bool)
        m = np.asarray(m, dtype=bool)
        if mag.shape != n.shape[:2] or m.shape != n.shape[:2]:
            raise ValueError("magnitude/mask shape must match normals grid")
        if m.any():
            lens = np.linalg.norm(n[m], axis=1)
            if np.any(np.abs(lens - 1.0) > UNIT_TOL):
                raise ValueError("valid normals must have unit length within 1e-6")
            if np.any(~np.isfinite(mag[m])) or np.any(mag[m] < 0):
                raise ValueError("magnitude must be finite and >= 0 at valid pixels")
        object.__setattr__(self, "normals", _freeze(n))
        object.__setattr__(self, "magnitude", _freeze(mag))
        object.__setattr__(self, "mask", _freeze(m))

    @classmethod
    def from_components(cls, vectors, mask=None) -> "NormalMap":
        """Normalize an HxWx3 field of (possibly non-unit) vectors.

        The pre-normalization length becomes the magnitude channel; pixels
        with near-zero length are masked invalid.
        """
        v = np.asarray(vectors, dtype=float)
        length = np.linalg.norm(v, axis=2)
        ok = np.isfinite(length) & (length > DARK_EPS)
        if mask is not None:
            ok &= np.asarray(mask, dtype=bool)
        safe = np.where(ok, length, 1.0)
        n = v / safe[..., None]
        n[~ok] = (0.0, 0.0, 1.0)
        return cls(n, np.where(ok, length, 0.0), ok)

    @property
    def width(self) -> int:
        return self.normals.shape[1]

    @property
    def height(self) -> int:
        return self.normals.shape[0]

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

    def require(self, conditions: Iterable[Condition]) -> None:
        missing = [c.value for c in conditions if c not in self.images]
        if missing:
            raise ValueError(f"missing condition: {', '.join(missing)}")

    def joint_mask(self, conditions: Iterable[Condition] | None = None) -> np.ndarray:
        conds = list(conditions) if conditions is not None else list(self.images)
        mask = np.ones(self.shape, dtype=bool)
        for c in conds:
            mask &= self.images[Condition(c)].mask
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
    mask = a.mask & b.mask
    return Image(np.where(mask, deg, 0.0), mask)


def histogram(values: Image, bin_width: float) -> list[tuple[float, int]]:
    """Histogram of valid pixels with bins anchored at multiples of bin_width.

    Returns (bin_center, count) pairs; counts sum to the number of valid
    pixels.
    """
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    vals = values.samples[values.mask]
    if vals.size == 0:
        return []
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
