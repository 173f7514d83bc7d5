"""Shared domain types: radiance images, normal maps, gradient image sets."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

# Denominators below this (in normalized radiance units) invalidate a pixel
# instead of being clamped.
DARK_EPS = 1e-9

# bytes of one block of a blocked full-frame pass (NormalMap.from_components,
# the QP solve, the discrete renderer and the resampler): small enough that
# a block's temporaries stay in cache between the passes over it
_CHUNK_BYTES = 1 << 19


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
# values at invalid pixels, so callers never mask before constructing;
# Image and FlowField then check the whole grid, and a NormalMap is valid
# by construction.


def _mask(mask, shape) -> np.ndarray:
    """Private read-only copy of a validity mask; None means all valid."""
    m = np.ones(shape, dtype=bool) if mask is None else np.array(mask, dtype=bool)
    if m.shape != shape:
        raise ValueError(f"mask shape {m.shape} must match the grid {shape}")
    m.setflags(write=False)
    return m


def _filled(values: np.ndarray, mask: np.ndarray, fill: float) -> np.ndarray:
    """Private read-only copy of a grid with `fill` at every invalid pixel."""
    if values.ndim == 2:
        v = np.where(mask, values, fill)
    else:
        # one scalar fill per channel: a broadcast np.where is several
        # times slower on an HxWxC grid
        v = np.array(values, dtype=np.result_type(values, fill))
        invalid = ~mask
        for c in range(v.shape[2]):
            np.copyto(v[..., c], fill, where=invalid)
    v.setflags(write=False)
    return v


def _length(v: np.ndarray) -> np.ndarray:
    """Per-pixel Euclidean length of an HxWxC grid.

    Sums the squares in np.linalg.norm's order, so the result is bitwise
    equal to np.linalg.norm(v, axis=2), without its HxWxC temporary. A
    length beyond the float64 range is inf, which every caller rejects.
    """
    with np.errstate(over="ignore"):
        sq = v[..., 0] * v[..., 0]
        for c in range(1, v.shape[2]):
            sq += v[..., c] * v[..., c]
    return np.sqrt(sq, out=sq)


def _block_rows(width: int, channels: int) -> int:
    """Rows in one _CHUNK_BYTES block of a pass over rows of `width` items
    with `channels` float64 values each; a flat walk has width 1."""
    return max(1, _CHUNK_BYTES // (8 * channels * width))


@dataclass(frozen=True, eq=False)
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
        # min propagates NaN, which fails the comparison
        if not (s.min() >= 0 and s.max() < np.inf):
            raise ValueError("valid radiance samples must be finite and >= 0")
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "mask", m)

    @property
    def shape(self):
        return self.samples.shape


@dataclass(frozen=True, init=False, eq=False)
class NormalMap:
    """Per-pixel unit normals plus the pre-normalization vector length.

    The magnitude channel carries the normalizing constant (lobe-size
    proxy) recorded before the final unit-length step. Invalid pixels hold
    the normal (0, 0, 1) with magnitude 0. Built only by from_components,
    so every map is valid by construction.
    """

    normals: np.ndarray
    magnitude: np.ndarray
    mask: np.ndarray

    @classmethod
    def from_components(cls, vectors, mask=None) -> "NormalMap":
        """Normalize an HxWx3 field of (possibly non-unit) vectors.

        The pre-normalization length becomes the magnitude channel; pixels
        with a near-zero or non-finite length are masked invalid.
        """
        v = np.asarray(vectors, dtype=float)
        if v.ndim != 3 or v.shape[2] != 3 or v[..., 0].size == 0:
            raise ValueError("normals must be an HxWx3 array")
        h, w = v.shape[:2]
        m = None if mask is None else _mask(mask, (h, w))
        normals = np.empty((h, w, 3))
        length = np.empty((h, w))
        ok = np.empty((h, w), dtype=bool)
        rows = _block_rows(w, 3)
        # planar scratch, so that each channel is one contiguous run
        planes = np.empty((3, rows, w))
        # one cache-sized block of rows at a time: length, validity, normal
        for r in range(0, h, rows):
            block = slice(r, r + rows)
            nb, lb, okb = normals[block], length[block], ok[block]
            pb = planes[:, : lb.shape[0]]
            np.copyto(pb, v[block].transpose(2, 0, 1))
            lb[...] = _length(pb.transpose(1, 2, 0))
            np.isfinite(lb, out=okb)
            okb &= lb > DARK_EPS
            if m is not None:
                okb &= m[block]
            np.divide(pb, lb, out=nb.transpose(2, 0, 1), where=okb)
            _fill_invalid(nb, lb, ~okb)
        return _normal_map(normals, length, ok)

    def _narrowed(self, mask: np.ndarray) -> "NormalMap":
        """This map, bit for bit, with the pixels outside `mask` invalid."""
        m = self.mask & mask
        normals, magnitude = self.normals.copy(), self.magnitude.copy()
        _fill_invalid(normals, magnitude, ~m)
        return _normal_map(normals, magnitude, m)

    @property
    def shape(self):
        return self.normals.shape[:2]


def _fill_invalid(normals: np.ndarray, magnitude: np.ndarray, invalid: np.ndarray) -> None:
    """Write the normal (0, 0, 1) and magnitude 0 at invalid pixels, one
    scalar fill per channel."""
    for c, fill in enumerate((0.0, 0.0, 1.0)):
        np.copyto(normals[..., c], fill, where=invalid)
    np.copyto(magnitude, 0.0, where=invalid)


def _normal_map(normals, magnitude, mask) -> NormalMap:
    """A NormalMap holding these arrays, made read-only; the caller has
    already normalized and filled them."""
    nm = object.__new__(NormalMap)
    for name, a in (("normals", normals), ("magnitude", magnitude), ("mask", mask)):
        a.setflags(write=False)
        object.__setattr__(nm, name, a)
    return nm


@dataclass(frozen=True, eq=False)
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
