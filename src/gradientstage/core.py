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

# bytes of one block of a blocked full-frame pass (the NormalMap walker,
# which the QP solve runs in, the discrete renderer and the resampler): small
# enough that a block's temporaries stay in cache between the passes over it
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


# The invalid-pixel rule shared by Image, NormalMap and FlowField: only this
# module writes the canonical values at invalid pixels, so callers never
# mask before constructing. Each constructor takes private read-only copies
# of its arrays and fills them; Image and FlowField then check the whole
# grid, and a NormalMap is valid by construction. A producer hands a raw
# array of its own to _image, which fills it without a copy; a NormalMap
# adopts its arrays only inside this module.


def _mask(mask, shape) -> np.ndarray:
    """Private read-only copy of a validity mask; None means all valid."""
    m = np.ones(shape, dtype=bool) if mask is None else np.array(mask, dtype=bool)
    if m.shape != shape:
        raise ValueError(f"mask shape {m.shape} must match the grid {shape}")
    m.setflags(write=False)
    return m


def _fill(array: np.ndarray, invalid: np.ndarray, value) -> None:
    """Write value in place at the invalid pixels of an HxW or HxWxC
    array: a scalar, or a tuple of one value per channel. One scalar fill
    per channel: a broadcast fill is several times slower on HxWxC."""
    if array.ndim == 2:
        np.copyto(array, value, where=invalid)
        return
    for c in range(array.shape[2]):
        np.copyto(array[..., c], value[c] if isinstance(value, tuple) else value, where=invalid)


def _adopt(obj, **arrays):
    """obj holding these arrays as its fields, each made read-only."""
    for name, a in arrays.items():
        a.setflags(write=False)
        object.__setattr__(obj, name, a)
    return obj


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
        s = np.array(self.samples, dtype=float)
        if s.ndim != 2 or s.size == 0:
            raise ValueError("samples must be a non-empty 2D array")
        m = _mask(self.mask, s.shape)
        _fill(s, ~m, 0.0)
        _radiance(_adopt(self, samples=s, mask=m))

    @property
    def shape(self):
        return self.samples.shape


def _radiance(img: Image) -> Image:
    """img, holding 0 at invalid pixels, once its samples are checked finite
    and >= 0."""
    # min propagates NaN, which fails the comparison
    if not (img.samples.min() >= 0 and img.samples.max() < np.inf):
        raise ValueError("valid radiance samples must be finite and >= 0")
    return img


def _image(samples: np.ndarray, mask: np.ndarray) -> Image:
    """An Image holding these arrays, made read-only, with 0 written at the
    invalid samples; the caller knows the valid ones finite and >= 0, or
    checks the result with _radiance where arithmetic could overflow. The
    mask may be another grid's: no grid writes its read-only mask."""
    _fill(samples, ~mask, 0.0)
    return _adopt(object.__new__(Image), samples=samples, mask=mask)


@dataclass(frozen=True, init=False, eq=False)
class NormalMap:
    """Per-pixel unit normals plus the pre-normalization vector length.

    The magnitude channel carries the normalizing constant (lobe-size
    proxy) recorded before the final unit-length step. Invalid pixels hold
    the normal (0, 0, 1) with magnitude 0. Built only by the walker _walk
    (from_components, the QP, the scene makers), so every map is valid by
    construction.
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
        shape = v.shape[:2]
        m = None if mask is None else _mask(mask, shape)

        def copy(block, planes):
            np.copyto(planes, v[block].transpose(2, 0, 1))
            return None if m is None else m[block]

        return _walk(shape, copy)

    def _narrowed(self, mask: np.ndarray) -> "NormalMap":
        """This map, bit for bit, with the pixels outside `mask` invalid."""
        m = self.mask & mask
        normals, magnitude = self.normals.copy(), self.magnitude.copy()
        invalid = ~m
        _fill(normals, invalid, (0.0, 0.0, 1.0))
        _fill(magnitude, invalid, 0.0)
        return _adopt(object.__new__(NormalMap), normals=normals, magnitude=magnitude, mask=m)

    @property
    def shape(self):
        return self.normals.shape[:2]


def _walk(shape, kernel) -> NormalMap:
    """The NormalMap of the vectors that kernel(block, planes) writes for
    each slice `block` of rows into planar (3, rows, W) scratch, one
    contiguous run per channel, normalized straight into the map's arrays.
    The kernel returns the block's validity, a bool array that broadcasts
    to its rows, or None for all valid; the walker ANDs it with the finite,
    non-zero lengths.
    """
    h, w = shape
    normals = np.empty((h, w, 3))
    length = np.empty((h, w))
    ok = np.empty((h, w), dtype=bool)
    rows = _block_rows(w, 3)
    planes = np.empty((3, rows, w))
    for r in range(0, h, rows):
        block = slice(r, r + rows)
        nb, lb, okb = normals[block], length[block], ok[block]
        pb = planes[:, : lb.shape[0]]
        valid = kernel(block, pb)
        lb[...] = _length(pb.transpose(1, 2, 0))
        np.isfinite(lb, out=okb)
        okb &= lb > DARK_EPS
        if valid is not None:
            okb &= valid
        np.divide(pb, lb, out=nb.transpose(2, 0, 1), where=okb)
        invalid = ~okb
        _fill(nb, invalid, (0.0, 0.0, 1.0))
        _fill(lb, invalid, 0.0)
    return _adopt(object.__new__(NormalMap), normals=normals, magnitude=length, mask=ok)


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
    deg = _length(a.normals - b.normals)
    deg /= 2.0
    np.clip(deg, 0.0, 1.0, out=deg)
    np.arcsin(deg, out=deg)
    np.degrees(deg, out=deg)
    deg *= 2.0
    return _image(deg, a.mask & b.mask)


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
