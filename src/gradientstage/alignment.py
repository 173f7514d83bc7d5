"""Photometric alignment: bilinear warps, a coarse-to-fine variational flow
estimator, and the joint gradient/complement alignment loop built on the
complement image constraint."""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import ndimage

from .core import DARK_EPS, Image, NormalMap


@dataclass(frozen=True)
class FlowField:
    """Per-pixel 2-vector displacements (u, v) in pixels, plus validity."""

    vectors: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vectors, dtype=float)
        if vec.ndim != 3 or vec.shape[2] != 2:
            raise ValueError("flow vectors must be HxWx2")
        m = self.mask
        if m is None:
            m = np.ones(vec.shape[:2], dtype=bool)
        m = np.asarray(m, dtype=bool)
        if m.shape != vec.shape[:2]:
            raise ValueError("mask shape must match flow grid")
        if m.any() and not np.all(np.isfinite(vec[m])):
            raise ValueError("valid flow vectors must be finite")
        object.__setattr__(self, "vectors", vec)
        object.__setattr__(self, "mask", m)

    @classmethod
    def zero(cls, shape) -> "FlowField":
        return cls(np.zeros(shape + (2,)), np.ones(shape, dtype=bool))

    @property
    def u(self) -> np.ndarray:
        return self.vectors[:, :, 0]

    @property
    def v(self) -> np.ndarray:
        return self.vectors[:, :, 1]

    def negated(self) -> "FlowField":
        return FlowField(-self.vectors, self.mask)

    @property
    def shape(self):
        return self.vectors.shape[:2]


@dataclass(frozen=True)
class FlowParams:
    """Coarse-to-fine variational estimator settings.

    alpha is the smoothness weight of the quadratic regularizer and must be
    finite and positive, or flat regions divide by zero; iterations counts
    Jacobi sweeps per warp of the 3x3 averaging stencil with replicated
    borders; warps re-linearizes the data term within each pyramid level.
    """

    levels: int = 4
    alpha: float = 0.1
    iterations: int = 100
    warps: int = 3
    min_level_size: int = 24
    # displacements below this are numerical noise; snapped to exact zero
    zero_threshold: float = 1e-9

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"flow alpha must be finite and positive, got {self.alpha}")
        for name in ("levels", "warps", "min_level_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"flow {name} must be at least 1, got {getattr(self, name)}")


FlowEstimator = Callable[[Image, Image, FlowParams], FlowField]


def resample(values: np.ndarray, mask: np.ndarray | None, xq: np.ndarray, yq: np.ndarray):
    """Bilinear samples of an HxW or HxWxC grid at (xq, yq), with validity.

    A sample is valid iff it lies inside the frame and the bilinearly
    sampled mask exceeds 1 - 1e-12, so any masked grid point carrying more
    than rounding-level weight invalidates it; mask=None means every grid
    point is valid. Fractional offsets are taken against the clipped base
    index so that integer query points reproduce grid values exactly.
    """
    h, w = values.shape[:2]
    inside = (xq >= 0) & (yq >= 0) & (xq <= w - 1) & (yq <= h - 1)
    x0 = np.clip(np.floor(xq).astype(int), 0, w - 2) if w > 1 else np.zeros_like(xq, int)
    y0 = np.clip(np.floor(yq).astype(int), 0, h - 2) if h > 1 else np.zeros_like(yq, int)
    fx = xq - x0
    fy = yq - y0
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)

    def interp(grid):
        # channels share the stencil; the per-element order of operations
        # is the same for every channel count
        cx, cy = (fx, fy) if grid.ndim == 2 else (fx[..., None], fy[..., None])
        return (
            grid[y0, x0] * (1 - cx) * (1 - cy)
            + grid[y0, x1] * cx * (1 - cy)
            + grid[y1, x0] * (1 - cx) * cy
            + grid[y1, x1] * cx * cy
        )

    valid = inside if mask is None else inside & (interp(mask.astype(float)) > 1.0 - 1e-12)
    return interp(values), valid


def _displaced_grid(u: np.ndarray, v: np.ndarray):
    """Query coordinates p + (u, v) for every pixel p."""
    yy, xx = np.mgrid[0 : u.shape[0], 0 : u.shape[1]]
    return xx + u, yy + v


def warp_image(img: Image, flow: FlowField) -> Image:
    """Bilinear resampling at p + flow(p); samples landing outside the
    source or drawing on its invalid pixels become invalid (no
    extrapolation). Exactly-zero flow is an identity."""
    if img.shape != flow.shape:
        raise ValueError(f"dimension mismatch: {img.shape} vs {flow.shape}")
    if not flow.vectors.any():
        return Image(img.samples, img.mask & flow.mask)
    out, valid = resample(img.samples, img.mask, *_displaced_grid(flow.u, flow.v))
    mask = valid & flow.mask
    return Image(np.where(mask, np.maximum(out, 0.0), 0.0), mask)


def warp_normals(nm: NormalMap, flow: FlowField) -> NormalMap:
    """Componentwise bilinear warp followed by renormalization.

    Exactly-zero flow returns the input untouched (no resampling, no
    renormalization), so static pipelines are bit-exact.
    """
    if nm.shape != flow.shape:
        raise ValueError(f"dimension mismatch: {nm.shape} vs {flow.shape}")
    if not flow.vectors.any():
        return NormalMap(
            nm.normals,
            np.where(flow.mask, nm.magnitude, 0.0),
            nm.mask & flow.mask,
        )
    vec, valid = resample(nm.normals, nm.mask, *_displaced_grid(flow.u, flow.v))
    mask = valid & flow.mask
    return NormalMap.from_components(np.where(mask[..., None], vec, 0.0), mask)


def half_flow(flow: FlowField) -> FlowField:
    """Per-pixel vector halving; the linear-motion midpoint approximation."""
    return FlowField(flow.vectors / 2.0, flow.mask)


def complement_residual(g: Image, gbar: Image, c: Image) -> float:
    """Sum of |r_c - (r_a + r_abar)| over jointly valid pixels."""
    if not (g.shape == gbar.shape == c.shape):
        raise ValueError("dimension mismatch between gradient, complement and constant")
    mask = g.mask & gbar.mask & c.mask
    if not mask.any():
        raise ValueError("no jointly valid pixels")
    diff = c.samples - (g.samples + gbar.samples)
    return float(np.abs(diff[mask]).sum())


def _jacobi(ix, iy, it, denom, sweeps):
    """Jacobi sweeps of the linearized Horn-Schunck system for the increment
    (du, dv), started from zero.

    Each sweep averages (du, dv) under the 3x3 stencil
    ([1,2,1]^T [1,2,1] - 4 delta) / 12 with replicated borders, then
    subtracts (ix, iy) * t with t = (ix du_avg + iy dv_avg + it) / denom.
    With ends = up + down and half = ends / 2 + mid (half the vertical
    [1,2,1] pass), the centre-corrected horizontal pass is
    (half_left + half_right + ends_centre) / 6.

    Both components live in one edge-padded buffer viewed flat, so every
    stencil tap is a contiguous slice; copying the edge into the pad ring
    after each sweep reproduces ndimage's mode="nearest". Pad-column lanes
    of the flat run carry finite junk that the ring copy overwrites.
    """
    h, w = ix.shape
    wp = w + 2
    n = h * wp  # padded rows 1..h, every column
    m = n - 2  # flat run from pixel (0, 0) to pixel (h-1, w-1)
    pad = np.zeros((2, h + 2, wp))
    flat = pad.reshape(2, -1)

    def lanes(a):
        """Per-pixel values in the layout of the flat run; zero on pad lanes."""
        out = np.zeros((h, wp))
        out[:, 1:-1] = a
        return out.ravel()[1:-1]

    coef = np.stack([lanes(ix / denom), lanes(iy / denom)])
    c = lanes(it / denom)
    grad = np.stack([lanes(ix), lanes(iy)])
    ends = np.zeros((2, n))
    half = np.zeros((2, n))
    avg = np.zeros((2, m))
    scratch = np.zeros((2, m))
    t = np.zeros(m)
    up, mid, down = flat[:, :n], flat[:, wp : wp + n], flat[:, 2 * wp :]
    left, right, ends_c = half[:, :m], half[:, 2:], ends[:, 1 : m + 1]
    centre = flat[:, wp + 1 : wp + 1 + m]
    t_u, t_v = scratch  # the two terms of t
    ring = [
        (pad[:, 1:-1, 0], pad[:, 1:-1, 1]),
        (pad[:, 1:-1, -1], pad[:, 1:-1, -2]),
        (pad[:, 0], pad[:, 1]),
        (pad[:, -1], pad[:, -2]),
    ]
    for _ in range(sweeps):
        np.add(up, down, out=ends)
        np.multiply(ends, 0.5, out=half)
        half += mid
        np.add(left, right, out=avg)
        avg += ends_c
        avg /= 6.0
        np.multiply(coef, avg, out=scratch)
        np.add(t_u, t_v, out=t)
        t += c
        np.multiply(grad, t, out=scratch)
        np.subtract(avg, scratch, out=centre)
        for dst, src in ring:
            dst[...] = src
    return pad[0, 1:-1, 1:-1].copy(), pad[1, 1:-1, 1:-1].copy()


def _hs_single_level(src, tgt, u, v, params: FlowParams):
    tgt_x = np.gradient(tgt, axis=1)
    tgt_y = np.gradient(tgt, axis=0)
    for _ in range(params.warps):
        warped, inside = resample(src, None, *_displaced_grid(u, v))
        warped = np.where(inside, warped, tgt)
        ix = 0.5 * (np.gradient(warped, axis=1) + tgt_x)
        iy = 0.5 * (np.gradient(warped, axis=0) + tgt_y)
        it = warped - tgt
        denom = params.alpha**2 + ix**2 + iy**2
        du, dv = _jacobi(ix, iy, it, denom, params.iterations)
        u = u + du
        v = v + dv
    return u, v


def _downsample(a: np.ndarray) -> np.ndarray:
    return ndimage.zoom(ndimage.gaussian_filter(a, 1.0), 0.5, order=1)


def flow_estimate(src: Image, tgt: Image, params: FlowParams | None = None) -> FlowField:
    """Coarse-to-fine Horn-Schunck-style displacement field from src to tgt.

    Warping src by the result aligns it with tgt. Flat image pairs yield
    zero flow with a warning. Invalid pixels contribute no data term.
    """
    if src.shape != tgt.shape:
        raise ValueError(f"dimension mismatch: {src.shape} vs {tgt.shape}")
    params = params or FlowParams()
    fill = float(np.median(tgt.samples[tgt.mask])) if tgt.mask.any() else 0.0
    a = np.where(src.mask, src.samples, fill)
    b = np.where(tgt.mask, tgt.samples, fill)
    if np.ptp(a) < DARK_EPS and np.ptp(b) < DARK_EPS:
        warnings.warn("flow on flat images is undetermined; returning zero flow")
        return FlowField.zero(src.shape)
    pyramid = [(a, b)]
    for _ in range(params.levels - 1):
        pa, pb = pyramid[-1]
        if min(pa.shape) < params.min_level_size:
            break
        pyramid.append((_downsample(pa), _downsample(pb)))
    u = np.zeros_like(pyramid[-1][0])
    v = np.zeros_like(u)
    for i, (pa, pb) in enumerate(reversed(pyramid)):
        if i > 0:
            zoomf = np.array(pa.shape) / np.array(u.shape)
            u = ndimage.zoom(u, zoomf, order=1) * 2.0
            v = ndimage.zoom(v, zoomf, order=1) * 2.0
            if u.shape != pa.shape:  # zoom may round dimensions
                u = u[: pa.shape[0], : pa.shape[1]]
                v = v[: pa.shape[0], : pa.shape[1]]
        u, v = _hs_single_level(pa, pb, u, v, params)
    vec = np.stack([u, v], axis=2)
    vec[np.abs(vec) < params.zero_threshold] = 0.0
    return FlowField(vec, src.mask & tgt.mask)


def joint_photometric_align(
    g: Image,
    gbar: Image,
    c: Image,
    iterations: int = 10,
    params: FlowParams | None = None,
    estimator: FlowEstimator | None = None,
    min_improvement: float = 1e-3,
) -> tuple[FlowField, FlowField, list[float]]:
    """Alternating alignment of a gradient/complement pair to the constant
    frame using the complement constraint as the brightness surrogate.

    Each iteration re-estimates u (flow of g toward c - warp(gbar, v)) and
    then v (flow of gbar toward c - warp(g, u)); the returned residual list
    records the complement-constraint violation after every iteration.
    Stops early once the relative residual improvement drops below
    min_improvement. Estimator failures return the best flows found so far.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    if not (g.shape == gbar.shape == c.shape):
        raise ValueError("dimension mismatch between alignment frames")
    est = estimator or flow_estimate
    params = params or FlowParams()
    u = FlowField.zero(g.shape)
    v = FlowField.zero(g.shape)
    residuals: list[float] = []
    best = (u, v)
    best_res = np.inf
    for _ in range(iterations):
        try:
            gbar_w = warp_image(gbar, v)
            target_u = _constraint_target(c, gbar_w, gbar)
            u = est(g, target_u, params)
            g_w = warp_image(g, u)
            target_v = _constraint_target(c, g_w, g)
            v = est(gbar, target_v, params)
        except Exception as exc:  # estimator failure: keep best flows
            warnings.warn(f"flow estimator failed; returning best flows so far ({exc})")
            u, v = best
            break
        res = complement_residual(warp_image(g, u), warp_image(gbar, v), c)
        residuals.append(res)
        if res < best_res:
            best_res = res
            best = (u, v)
        if len(residuals) >= 2 and residuals[-2] > 0:
            if (residuals[-2] - residuals[-1]) / residuals[-2] < min_improvement:
                break
    u, v = best
    return u, v, residuals


def _constraint_target(c: Image, warped: Image, fallback: Image) -> Image:
    """c minus the warped counterpart; invalid warp pixels fall back to the
    unwarped frame so the estimator sees no spurious zero-motion pull."""
    counterpart = np.where(warped.mask, warped.samples, fallback.samples)
    vals = np.maximum(c.samples - counterpart, 0.0)
    return Image(vals, c.mask & fallback.mask)
