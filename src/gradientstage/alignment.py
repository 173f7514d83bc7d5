"""Photometric alignment: bilinear warps, a coarse-to-fine variational flow
estimator, and the joint gradient/complement alignment loop built on the
complement image constraint."""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import DARK_EPS, Image, NormalMap, _adopt, _block_rows, _fill, _image, _mask, _radiance

# flow displacements below this are numerical noise; snapped to exact zero
ZERO_FLOW = 1e-9
# the flow pyramid stops halving once a level's shorter side is below this
MIN_LEVEL_SIZE = 24
# joint alignment stops once an iteration cuts the residual by less than this
MIN_IMPROVEMENT = 1e-3
# each flow solve stops once its residual falls below this fraction of |b|
CG_TOL = 1e-3


@dataclass(frozen=True, eq=False)
class FlowField:
    """Per-pixel 2-vector displacements (u, v) in pixels, plus validity.

    Invalid pixels hold the vector (0, 0).
    """

    vectors: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        vec = np.array(self.vectors, dtype=float)
        if vec.ndim != 3 or vec.shape[2] != 2:
            raise ValueError("flow vectors must be HxWx2")
        m = _mask(self.mask, vec.shape[:2])
        _fill(vec, ~m, 0.0)
        if not np.isfinite(vec).all():
            raise ValueError("valid flow vectors must be finite")
        _adopt(self, vectors=vec, mask=m)

    @classmethod
    def zero(cls, shape) -> "FlowField":
        return cls(np.zeros(shape + (2,)), np.ones(shape, dtype=bool))

    @property
    def u(self) -> np.ndarray:
        return self.vectors[:, :, 0]

    @property
    def v(self) -> np.ndarray:
        return self.vectors[:, :, 1]

    def scaled(self, k: float) -> "FlowField":
        """The flow times k; + 0.0 keeps zeros positive under a negative k."""
        return FlowField(self.vectors * k + 0.0, self.mask)

    @property
    def shape(self):
        return self.vectors.shape[:2]


@dataclass(frozen=True)
class FlowParams:
    """Coarse-to-fine variational estimator settings.

    levels caps the pyramid's depth, which also stops halving once a
    level's shorter side falls below MIN_LEVEL_SIZE; alpha is the
    smoothness weight of the quadratic regularizer on the total flow (not
    on each warp's increment) and must lie in [1e-100, 1e100], so that the
    solver's alpha^2 neither underflows to zero nor overflows; iterations
    caps the preconditioned conjugate-gradient iterations per warp, each of
    which stops earlier once its residual falls to CG_TOL times its
    right-hand side; warps re-linearizes the data term within each pyramid
    level, and within the finest level alone when the estimate is
    warm-started.
    """

    levels: int = 4
    alpha: float = 0.1
    iterations: int = 100
    warps: int = 3

    def __post_init__(self):
        if not 1e-100 <= self.alpha <= 1e100:
            raise ValueError(f"flow alpha must lie in [1e-100, 1e100], got {self.alpha}")
        for name in ("levels", "warps"):
            if getattr(self, name) < 1:
                raise ValueError(f"flow {name} must be at least 1, got {getattr(self, name)}")


FlowEstimator = Callable[[Image, Image, FlowParams, FlowField | None], FlowField]


def resample(values: np.ndarray, mask: np.ndarray | None, xq: np.ndarray, yq: np.ndarray):
    """Bilinear samples of an HxW or HxWxC grid at (xq, yq), with validity.

    A sample is valid iff it lies inside the frame and the bilinearly
    sampled mask exceeds 1 - 1e-12, so any masked grid point carrying more
    than rounding-level weight invalidates it; mask=None means every grid
    point is valid. Fractional offsets are taken against the clipped base
    index so that integer query points reproduce grid values exactly.

    All queries are computed at once: each warp passes one block of
    _block_rows rows at a time, which bounds the memory of the stencil
    indices, weights and products whatever the frame size. Every output
    element depends on its own query alone, so blocks do not change it.
    The four neighbours are gathered at the flat index y0 W + x0 of views
    offset by dx and dy, since x0 <= W - 2 and y0 <= H - 2 (dx, dy = 0
    along a side one pixel long).
    """
    h, w = values.shape[:2]
    channels = values.shape[2:]
    grid = values.reshape(h * w, *channels)
    xq, yq = np.broadcast_arrays(xq, yq)
    shape = xq.shape
    xq, yq = xq.ravel(), yq.ravel()
    inside = (xq >= 0) & (yq >= 0) & (xq <= w - 1) & (yq <= h - 1)
    # truncation, not floor: the two differ only below 0, which the clip maps to 0
    x0 = np.clip(xq.astype(int), 0, w - 2) if w > 1 else np.zeros_like(xq, int)
    y0 = np.clip(yq.astype(int), 0, h - 2) if h > 1 else np.zeros_like(yq, int)
    fx = xq - x0
    fy = yq - y0
    index = y0  # y0 W + x0, in place
    index *= w
    index += x0
    dx = 1 if w > 1 else 0
    dy = w if h > 1 else 0
    valid = inside
    if mask is not None:
        flags = np.asarray(mask, dtype=bool).reshape(h * w)
        # all four neighbours valid: the weights, each in [0, 1] at an inside
        # query, sum to 1 within a few ulp, so the sampled mask exceeds
        # 1 - 1e-12; none valid: it is exactly 0. Only queries with both
        # valid and invalid neighbours interpolate the mask
        corners = np.array([flags[offset:].take(index) for offset in (0, dx, dy, dx + dy)])
        every, some = corners.all(axis=0), corners.any(axis=0)
        valid = inside & every
        edge = np.flatnonzero(inside & some & ~every)
        if edge.size:
            sampled = _bilinear(flags, index[edge], dx, dy, fx[edge], fy[edge])
            valid[edge] = sampled > 1.0 - 1e-12
    if grid.ndim == 2:
        # channels share the stencil; the per-element order of operations
        # is the same for every channel count
        fx, fy = fx[:, None], fy[:, None]
    out = _bilinear(grid, index, dx, dy, fx, fy)
    return out.reshape(shape + channels), valid.reshape(shape)


def _bilinear(flat, index, dx, dy, fx, fy):
    """The bilinear sum of flat's four gathered neighbours, accumulated in
    place in the fixed per-element order ((v00 gx) gy + (v10 fx) gy)
    + (v01 gx) fy + (v11 fx) fy."""
    gx, gy = 1 - fx, 1 - fy
    out = np.multiply(flat.take(index, axis=0), gx)
    out *= gy
    term = np.empty_like(out)
    for offset, wx, wy in ((dx, fx, gy), (dy, gx, fy), (dx + dy, fx, fy)):
        np.multiply(flat[offset:].take(index, axis=0), wx, out=term)
        term *= wy
        out += term
    return out


def _warp(values: np.ndarray, mask: np.ndarray | None, coords):
    """resample at coords(block, x, y) for each block of _block_rows rows,
    into preallocated outputs the shape of values: x holds the column
    coordinates and y the block's row coordinates, as a column."""
    h, w = values.shape[:2]
    out = np.empty(values.shape)
    valid = np.empty((h, w), bool)
    x = np.arange(w, dtype=float)
    y = np.arange(h, dtype=float)[:, None]
    rows = _block_rows(w, int(np.prod(values.shape[2:])))
    for top in range(0, h, rows):
        block = slice(top, top + rows)
        out[block], valid[block] = resample(values, mask, *coords(block, x, y[block]))
    return out, valid


def _displaced(u: np.ndarray, v: np.ndarray):
    """_warp's coords at p + (u, v)(p)."""
    return lambda block, x, y: (x + u[block], y + v[block])


def warp_image(img: Image, flow: FlowField) -> Image:
    """Bilinear resampling at p + flow(p); samples landing outside the
    source or drawing on its invalid pixels become invalid (no
    extrapolation). Exactly-zero flow is an identity."""
    if img.shape != flow.shape:
        raise ValueError(f"dimension mismatch: {img.shape} vs {flow.shape}")
    if not flow.vectors.any():
        return Image(img.samples, img.mask & flow.mask)
    out, valid = _warp(img.samples, img.mask, _displaced(flow.u, flow.v))
    valid &= flow.mask
    np.maximum(out, 0.0, out=out)
    return _radiance(_image(out, valid))


def warp_normals(nm: NormalMap, flow: FlowField) -> NormalMap:
    """Componentwise bilinear warp followed by renormalization.

    Exactly-zero flow returns the input untouched (no resampling, no
    renormalization), so static pipelines are bit-exact.
    """
    if nm.shape != flow.shape:
        raise ValueError(f"dimension mismatch: {nm.shape} vs {flow.shape}")
    if not flow.vectors.any():
        return nm._narrowed(flow.mask)
    vec, valid = _warp(nm.normals, nm.mask, _displaced(flow.u, flow.v))
    return NormalMap.from_components(vec, valid & flow.mask)


def complement_residual(g: Image, gbar: Image, c: Image) -> float:
    """Sum of |r_c - (r_a + r_abar)| over jointly valid pixels."""
    if not (g.shape == gbar.shape == c.shape):
        raise ValueError("dimension mismatch between gradient, complement and constant")
    mask = g.mask & gbar.mask & c.mask
    if not mask.any():
        raise ValueError("no jointly valid pixels")
    diff = c.samples - (g.samples + gbar.samples)
    return float(np.abs(diff[mask]).sum())


def _dot(a, b):
    """Inner product of two 1-D arrays in numpy's own single-threaded loop;
    a threaded BLAS dot, interleaved with other work, was seen to stall for
    milliseconds per call while its threads woke up."""
    return float(np.einsum("i,i->", a, b))


def _pcg(ix, iy, it, u, v, alpha, cap):
    """Block-preconditioned conjugate gradients for the linearized
    Horn-Schunck increment d = (du, dv) to the current flow (u, v), started
    from zero.

    Solves alpha^2 (I - Avg) d + g (g . d) = -g it - alpha^2 (I - Avg)(u, v),
    g = (ix, iy): the smoothness term is on the total flow (u, v) + d. Avg
    is the 3x3 stencil ([1,2,1]^T [1,2,1] - 4 delta) / 12 with replicated
    borders: symmetric with unit row sums, so the system is symmetric
    positive semi-definite. The preconditioner is the per-pixel block
    alpha^2 I + g g^T. Both sides are scaled by 6 / alpha^2, and with
    ends = up + down and half = ends / 2 + mid (half the vertical [1,2,1]
    pass), 6 Avg d = half_left + half_right + ends_centre; the flow's term
    on the right is the same stencil applied to (u, v). Stops once
    |r| <= CG_TOL |b| or after cap iterations; b = 0 gives exact zeros.

    Every vector is the flat run, from pixel (0, 0) of u to pixel
    (H-1, W-1) of v, of an edge-padded (2, H+2, W+2) buffer, so every
    stencil tap is a contiguous slice and each update is one call. Copying
    the edge of the search direction into its pad ring reproduces ndimage's
    mode="nearest"; every other vector holds zero on the run's pad lanes.
    """
    h, w = ix.shape
    wp = w + 2
    plane = (h + 2) * wp
    m = h * wp - 2  # one component's run from pixel (0, 0) to (h-1, w-1)
    size = plane + m  # the run over both components
    bufs = np.zeros((12, 2, h + 2, wp))
    # each run starts one lane early so that ends and half cover the taps;
    # bufs[5] holds the solution x, bufs[11] the padded search direction p
    runs = bufs.reshape(12, -1)[:, wp : wp + size + 2]
    diag, off, inv_diag, inv_off, r, x, z, q, s, _, _, p = runs[:, 1:-1]
    ends, half = runs[9:11]
    pad = bufs[11]

    # the 2x2 blocks of the scaled diagonal, 6 / alpha^2 (alpha^2 I + g g^T),
    # and of its inverse, adj / (6 (alpha^2 + |g|^2)), as their (uu, vv) and
    # uv lanes; then b, all in the order unpacked above
    ix2, iy2, ixy = ix * ix, iy * iy, ix * iy
    scale = 6.0 / alpha**2
    inv_denom = 1.0 / (6.0 * (alpha**2 + ix2 + iy2))
    pixels = bufs[:5, :, 1:-1, 1:-1]
    pixels[0] = 6.0 + scale * ix2, 6.0 + scale * iy2
    pixels[1] = scale * ixy
    pixels[2] = (alpha**2 + iy2) * inv_denom, (alpha**2 + ix2) * inv_denom
    pixels[3] = -ixy * inv_denom
    pixels[4] = -scale * ix * it, -scale * iy * it
    pad_lanes = np.flatnonzero(diag == 0.0)
    flat = pad.ravel()
    up, mid, down = flat[: size + 2], flat[wp : wp + size + 2], flat[2 * wp :]
    left, right, ends_c = half[:size], half[2:], ends[1:-1]
    ring = [
        (pad[:, 1:-1, 0], pad[:, 1:-1, 1]),
        (pad[:, 1:-1, -1], pad[:, 1:-1, -2]),
        (pad[:, 0], pad[:, 1]),
        (pad[:, -1], pad[:, -2]),
    ]

    def block(dst, d, o, v):
        """dst = the per-pixel 2x2 blocks (d, o) times v."""
        np.multiply(d, v, out=dst)
        np.multiply(o, v, out=s)
        dst[:m] += s[plane:]
        dst[plane:] += s[:m]

    def smooth():
        """s = 6 Avg p, after copying p's edge into its pad ring."""
        for dst, src in ring:
            dst[...] = src
        np.add(up, down, out=ends)
        np.multiply(ends, 0.5, out=half)
        np.add(half, mid, out=half)
        np.add(left, right, out=s)
        np.add(s, ends_c, out=s)
        s[pad_lanes] = 0.0

    def next_direction(beta):
        """p = z + beta p."""
        np.multiply(p, beta, out=p)
        np.add(p, z, out=p)

    # b's flow term, 6 (I - Avg)(u, v), from the stencil applied to (u, v);
    # exactly zero for uniform flow
    pad[:, 1:-1, 1:-1] = u, v
    smooth()
    r -= 6.0 * p - s
    r[pad_lanes] = 0.0
    bb = _dot(r, r)
    if bb == 0.0:
        return np.zeros_like(ix), np.zeros_like(iy)
    block(z, inv_diag, inv_off, r)
    rz = _dot(r, z)
    next_direction(0.0)
    for _ in range(cap):
        # q = A p: the diagonal blocks times p minus the six-weight sum
        block(q, diag, off, p)
        smooth()
        q -= s
        step = rz / _dot(p, q)
        np.multiply(p, step, out=s)
        x += s
        np.multiply(q, step, out=s)
        r -= s
        if _dot(r, r) <= CG_TOL**2 * bb:
            break
        block(z, inv_diag, inv_off, r)
        rz, rz_old = _dot(r, z), rz
        next_direction(rz / rz_old)
    du, dv = bufs[5, :, 1:-1, 1:-1].copy()
    return du, dv


def _gradient(a: np.ndarray, axis: int) -> np.ndarray:
    """np.gradient along axis; zero along an axis one pixel long."""
    return np.gradient(a, axis=axis) if a.shape[axis] > 1 else np.zeros_like(a)


def _hs_single_level(src, tgt, u, v, params: FlowParams):
    tgt_x = _gradient(tgt, 1)
    tgt_y = _gradient(tgt, 0)
    for _ in range(params.warps):
        warped, inside = _warp(src, None, _displaced(u, v))
        warped = np.where(inside, warped, tgt)
        ix = 0.5 * (_gradient(warped, 1) + tgt_x)
        iy = 0.5 * (_gradient(warped, 0) + tgt_y)
        it = warped - tgt
        du, dv = _pcg(ix, iy, it, u, v, params.alpha, params.iterations)
        u = u + du
        v = v + dv
    return u, v


def _downsample(a: np.ndarray) -> np.ndarray:
    from scipy import ndimage

    return ndimage.zoom(ndimage.gaussian_filter(a, 1.0), 0.5, order=1)


def flow_estimate(
    src: Image, tgt: Image, params: FlowParams | None = None, init: FlowField | None = None
) -> FlowField:
    """Coarse-to-fine Horn-Schunck-style displacement field from src to tgt.

    Warping src by the result aligns it with tgt. Without init the pyramid
    runs from zero flow at its coarsest level; with init, only the finest
    level runs, starting from init's vectors. Since the smoothness term is
    on the total flow, a start near the answer is refined, not reset.
    Flat image pairs yield zero flow with a warning. Invalid pixels
    contribute no data term.
    """
    flow = _flow_estimate(src, tgt, params, init)
    if flow is None:
        warnings.warn("flow on flat images is undetermined; returning zero flow")
        return FlowField(np.zeros(src.shape + (2,)), src.mask & tgt.mask)
    return flow


def _flow_estimate(
    src: Image, tgt: Image, params: FlowParams | None = None, init: FlowField | None = None
) -> FlowField | None:
    """flow_estimate itself, None for flat image pairs: for estimates
    outside the alternation (the sequencer's start), so that the per-layer
    trace of the benchmark counts flow_estimate calls as the alternation's
    two per outer iteration."""
    from scipy import ndimage

    if src.shape != tgt.shape:
        raise ValueError(f"dimension mismatch: {src.shape} vs {tgt.shape}")
    if init is not None and init.shape != src.shape:
        raise ValueError(f"dimension mismatch: initial flow {init.shape} vs {src.shape}")
    params = params or FlowParams()
    fill = float(np.median(tgt.samples[tgt.mask])) if tgt.mask.any() else 0.0
    a = np.where(src.mask, src.samples, fill)
    b = np.where(tgt.mask, tgt.samples, fill)
    if np.ptp(a) < DARK_EPS and np.ptp(b) < DARK_EPS:
        return None
    pyramid = [(a, b)]
    if init is None:
        for _ in range(params.levels - 1):
            pa, pb = pyramid[-1]
            if min(pa.shape) < MIN_LEVEL_SIZE:
                break
            pyramid.append((_downsample(pa), _downsample(pb)))
        u = np.zeros_like(pyramid[-1][0])
        v = np.zeros_like(u)
    else:
        u, v = init.u, init.v
    for i, (pa, pb) in enumerate(reversed(pyramid)):
        if i > 0:
            zoomf = np.array(pa.shape) / np.array(u.shape)
            u = ndimage.zoom(u, zoomf, order=1) * 2.0
            v = ndimage.zoom(v, zoomf, order=1) * 2.0
        u, v = _hs_single_level(pa, pb, u, v, params)
    vec = np.stack([u, v], axis=2)
    vec[np.abs(vec) < ZERO_FLOW] = 0.0
    return FlowField(vec, src.mask & tgt.mask)


def joint_photometric_align(
    g: Image,
    gbar: Image,
    c: Image,
    iterations: int = 10,
    params: FlowParams | None = None,
    estimator: FlowEstimator | None = None,
    init: tuple[FlowField, FlowField] | None = None,
) -> tuple[FlowField, FlowField, list[float]]:
    """Alternating alignment of a gradient/complement pair to the constant
    frame using the complement constraint as the brightness surrogate.

    Each iteration re-estimates u (flow of g toward c - warp(gbar, v)) and
    then v (flow of gbar toward c - warp(g, u)); the returned residual list
    records the complement-constraint violation after every iteration.
    Without init, the first iteration runs the estimator's pyramid from
    zero flow (init None) and every later one warm-starts each estimate
    from the previous u or v; with init = (u, v), every iteration, the
    first included, warm-starts, and init is what a failed first estimate
    returns. Stops early once the relative residual improvement drops
    below MIN_IMPROVEMENT. An iteration whose estimator fails (ValueError,
    FloatingPointError, RuntimeError or LinAlgError), or whose flows leave
    no pixel jointly valid, returns the best flows found so far; any other
    exception propagates.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    if not (g.shape == gbar.shape == c.shape):
        raise ValueError("dimension mismatch between alignment frames")
    est = estimator or flow_estimate
    params = params or FlowParams()
    if init is None:
        u = FlowField.zero(g.shape)
        v = FlowField.zero(g.shape)
    else:
        u, v = init
        if not (u.shape == v.shape == g.shape):
            raise ValueError(f"dimension mismatch: initial flows {u.shape}, {v.shape} vs {g.shape}")
    residuals: list[float] = []
    best = (u, v)
    best_res = np.inf
    # each frame is warped once per new flow: g_w and the next gbar_w serve
    # both the residual and the following estimate
    gbar_w = warp_image(gbar, v)
    for i in range(iterations):
        try:
            target_u = _constraint_target(c, gbar_w, gbar)
            warm = i > 0 or init is not None
            u = est(g, target_u, params, u if warm else None)
            g_w = warp_image(g, u)
            target_v = _constraint_target(c, g_w, g)
            v = est(gbar, target_v, params, v if warm else None)
            gbar_w = warp_image(gbar, v)
            # raises once the flows leave no pixel jointly valid
            res = complement_residual(g_w, gbar_w, c)
        except (ValueError, FloatingPointError, RuntimeError, np.linalg.LinAlgError) as exc:
            # what a failed estimate raises; a programming error propagates
            warnings.warn(f"flow estimator failed; returning best flows so far ({exc})")
            u, v = best
            break
        residuals.append(res)
        if res < best_res:
            best_res = res
            best = (u, v)
        if len(residuals) >= 2 and residuals[-2] > 0:
            if (residuals[-2] - residuals[-1]) / residuals[-2] < MIN_IMPROVEMENT:
                break
    u, v = best
    return u, v, residuals


def _constraint_target(c: Image, warped: Image, fallback: Image) -> Image:
    """c minus the warped counterpart; invalid warp pixels fall back to the
    unwarped frame so the estimator sees no spurious zero-motion pull."""
    counterpart = np.where(warped.mask, warped.samples, fallback.samples)
    vals = np.maximum(c.samples - counterpart, 0.0)
    return Image(vals, c.mask & fallback.mask)
