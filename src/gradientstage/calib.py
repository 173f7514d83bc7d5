"""Geometric calibration from mirror-ball images plus polarization-based
reflectance separation: highlight detection, direct least-squares conic
fitting, sphere-center recovery, reflected light directions, normalized DLT
homography with Sampson refinement."""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .alignment import _warp
from .core import Image, _image, _radiance, unit


@dataclass(frozen=True)
class CameraIntrinsics:
    """Upper-triangular pinhole calibration matrix, K[2,2] = 1."""

    k: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        if k.shape != (3, 3):
            raise ValueError("K must be 3x3")
        if not np.isfinite(k).all():
            raise ValueError("K must be finite")
        if abs(k[2, 2] - 1.0) > 1e-12 or abs(k[1, 0]) > 1e-12 or np.any(np.abs(k[2, :2]) > 1e-12):
            raise ValueError("K must be upper triangular with K[2][2] = 1")
        if abs(np.linalg.det(k)) < 1e-12:
            raise ValueError("K must be invertible")
        object.__setattr__(self, "k", k)

    @classmethod
    def from_json(cls, text: str):
        return cls(np.asarray(json.loads(text), dtype=float))


@dataclass(frozen=True)
class Homography:
    """3x3 projective map, Frobenius-normalized."""

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.shape != (3, 3):
            raise ValueError("H must be 3x3")
        if not np.isfinite(h).all():
            raise ValueError("H must be finite")
        norm = np.linalg.norm(h)
        if norm < 1e-12 or abs(np.linalg.det(h / norm)) < 1e-12:
            raise ValueError("H must be invertible")
        h = h / norm
        if h[2, 2] < 0:
            h = -h
        object.__setattr__(self, "h", h)

    def apply(self, points) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        q = np.c_[p, np.ones(len(p))] @ self.h.T
        return q[:, :2] / q[:, 2:3]

    def to_json(self) -> str:
        return json.dumps(self.h.tolist())

    @classmethod
    def from_json(cls, text: str):
        return cls(np.asarray(json.loads(text), dtype=float))


def _disk(radius: int) -> np.ndarray:
    if radius < 1:
        return np.ones((1, 1), dtype=bool)
    y, x = np.mgrid[-radius : radius + 1, -radius : radius + 1]
    return x * x + y * y <= radius * radius


def detect_highlight_centroid(img: Image, threshold: float = 0.5, morph_radius: int = 2):
    """Subpixel centroid of the dominant specular highlight.

    Binarize at threshold * max, open with a disk (erosion then dilation)
    to drop stray bright spots, then return the intensity-weighted
    centroid (x, y) of the largest connected component; of equal ones, the
    first in raster order.

    The opening, labelling and centroid run in the bounding box of the
    binarized pixels padded by the disk's width (2r + 1): the frame border
    and the zeros outside the box are both background, so the components
    and their raster order are those of the full frame.
    """
    if not 0 < threshold < 1:
        raise ValueError("threshold must lie in (0, 1)")
    vals = img.samples  # 0 at invalid pixels
    peak = vals.max()
    binary = vals >= threshold * peak if peak > 0 else np.zeros_like(vals, bool)
    if not binary.any():
        raise ValueError("no highlight: no pixel above threshold")
    selem = _disk(morph_radius)
    pad = len(selem)
    rows = np.flatnonzero(binary.any(axis=1))
    cols = np.flatnonzero(binary.any(axis=0))
    top, left = max(rows[0] - pad, 0), max(cols[0] - pad, 0)
    window = np.s_[top : rows[-1] + pad + 1, left : cols[-1] + pad + 1]
    binary, vals = binary[window], vals[window]
    from scipy import ndimage

    opened = ndimage.binary_dilation(ndimage.binary_erosion(binary, selem), selem)
    if not opened.any():
        # opening removed everything: the spot is smaller than the element
        opened = binary
    labels, _ = ndimage.label(opened)
    biggest = int(np.argmax(np.bincount(labels.ravel())[1:])) + 1
    w = vals * (labels == biggest)
    total = w.sum()
    yy, xx = np.mgrid[top : top + vals.shape[0], left : left + vals.shape[1]]
    return float((xx * w).sum() / total), float((yy * w).sum() / total)


def _is_ellipse(m: np.ndarray) -> bool:
    """Whether the conic x~^T m x~ = 0 is an ellipse: (b/2)^2 < ac."""
    return bool(m[0, 1] ** 2 - m[0, 0] * m[1, 1] < 0)


def fit_conic(points) -> np.ndarray:
    """Direct least-squares ellipse fit (stable Halir-Flusser formulation)
    to at least 6 non-degenerate points: the symmetric 3x3 matrix C of
    x~^T C x~ = 0, [[a, b/2, d/2], [b/2, c, e/2], [d/2, e/2, f]], (a..f) of unit norm."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if len(pts) < 6:
        raise ValueError("need at least 6 points to fit a conic")
    x, y = pts[:, 0], pts[:, 1]
    # condition the system: shift to centroid, scale to unit spread
    cx, cy = x.mean(), y.mean()
    scale = np.sqrt(((x - cx) ** 2 + (y - cy) ** 2).mean())
    if scale < 1e-12:
        raise ValueError("degenerate configuration: coincident points")
    xs, ys = (x - cx) / scale, (y - cy) / scale
    d1 = np.stack([xs * xs, xs * ys, ys * ys], axis=1)
    d2 = np.stack([xs, ys, np.ones_like(xs)], axis=1)
    s1 = d1.T @ d1
    s2 = d1.T @ d2
    s3 = d2.T @ d2
    if np.linalg.cond(s3) > 1e12:
        raise ValueError("degenerate configuration (collinear points?)")
    t = -np.linalg.solve(s3, s2.T)
    m = s1 + s2 @ t
    m = np.array([m[2] / 2.0, -m[1], m[0] / 2.0])
    evals, evecs = np.linalg.eig(m)
    real = np.abs(evals.imag) < 1e-9 if np.iscomplexobj(evals) else np.ones(3, bool)
    evecs = evecs.real if np.iscomplexobj(evecs) else evecs
    ellipse_cond = 4 * evecs[0] * evecs[2] - evecs[1] ** 2
    candidates = np.where(real & (ellipse_cond > 0))[0]
    if candidates.size == 0:
        raise ValueError("degenerate configuration: no elliptical solution")
    a1 = evecs[:, candidates[0]]
    coeffs_scaled = np.concatenate([a1, t @ a1])
    a, b, c, d, e, f = coeffs_scaled
    # undo the conditioning transform
    s = scale
    coeffs = np.array(
        [
            a / s**2,
            b / s**2,
            c / s**2,
            d / s - (2 * a * cx + b * cy) / s**2,
            e / s - (b * cx + 2 * c * cy) / s**2,
            f - (d * cx + e * cy) / s + (a * cx**2 + b * cx * cy + c * cy**2) / s**2,
        ]
    )
    a, b, c, d, e, f = coeffs / np.linalg.norm(coeffs)
    conic = np.array([[a, b / 2, d / 2], [b / 2, c, e / 2], [d / 2, e / 2, f]])
    if not _is_ellipse(conic):
        raise ValueError("degenerate configuration: fit is not an ellipse")
    return conic


# the largest relative spread sphere_center accepts in the conic's double
# eigenvalue pair
PAIR_TOL = 1e-3


def sphere_center(
    conic: np.ndarray, intrinsics: CameraIntrinsics, radius: float, pair_tol: float = PAIR_TOL
) -> tuple[np.ndarray, float]:
    """Sphere center and camera distance from the limb conic's symmetric
    3x3 matrix C (as fit_conic returns it).

    Normalizing the conic by K gives C^ = K^T C K, whose eigenvalues for a
    true sphere projection form a double pair plus a single value of
    opposite sign: C^ = M diag(a, a, b) M^T. The center lies along the
    single eigenvector at d = R sqrt((a - b) / (-b)) once the signs are
    normalized so the pair is positive (equivalently R sqrt((a+b)/b) with
    |b|). Sign of the axis is chosen for positive depth.
    """
    conic = np.asarray(conic, dtype=float)
    if conic.shape != (3, 3) or not np.isfinite(conic).all():
        raise ValueError("conic must be a finite 3x3 matrix")
    # written as "not within", so NaN fails too
    if not 0 < radius < np.inf:
        raise ValueError(f"mirror-ball radius must be finite and positive, got {radius}")
    if not 0 <= pair_tol < np.inf:
        raise ValueError(f"pair tolerance must be finite and >= 0, got {pair_tol}")
    if not _is_ellipse(conic):
        raise ValueError("not a sphere projection: conic is not an ellipse")
    k = intrinsics.k
    chat = k.T @ conic @ k
    evals, evecs = np.linalg.eigh(chat)
    pair_spread = [abs(evals[1] - evals[2]), abs(evals[0] - evals[2]), abs(evals[0] - evals[1])]
    single = int(np.argmin(pair_spread))
    double_idx = [i for i in range(3) if i != single]
    rel = pair_spread[single] / np.abs(evals).max()
    if rel > pair_tol:
        raise ValueError(
            f"not a sphere projection: eigenvalues lack an (a, a, b) pattern "
            f"(relative spread {rel:.2e} > {pair_tol:g})"
        )
    lam = evals[double_idx].mean()
    mu = evals[single]
    if lam * mu >= 0:
        raise ValueError("not a sphere projection: eigenvalue signs do not split")
    ratio = mu / lam  # negative
    dist = radius * np.sqrt((1.0 - ratio) / (-ratio))
    axis = evecs[:, single]
    if axis[2] < 0:
        axis = -axis
    return axis * dist, float(dist)


def ray_sphere_intersect(origin, direction, center, radius: float):
    """Nearest intersection with positive ray parameter, or None."""
    o = np.asarray(origin, dtype=float)
    d = unit(direction)
    c = np.asarray(center, dtype=float)
    oc = o - c
    b = 2.0 * d @ oc
    q = oc @ oc - radius * radius
    disc = b * b - 4.0 * q
    if disc < 0:
        return None
    root = np.sqrt(disc)
    for t in ((-b - root) / 2.0, (-b + root) / 2.0):
        if t > 0:
            return o + t * d
    return None


def light_direction(highlight_xy, intrinsics: CameraIntrinsics, origin, center, radius: float):
    """Unit direction toward the light from its mirror-ball highlight.

    Casts the pixel ray onto the sphere, reflects the surface-to-camera
    view vector about the sphere normal: L = 2(N.V)N - V.
    """
    h = np.array([highlight_xy[0], highlight_xy[1], 1.0])
    d = np.linalg.inv(intrinsics.k) @ h
    hit = ray_sphere_intersect(origin, d / np.linalg.norm(d), center, radius)
    if hit is None:
        raise ValueError("highlight off sphere: pixel ray misses the ball")
    o = np.asarray(origin, dtype=float)
    v = o - hit
    v /= np.linalg.norm(v)
    n = hit - np.asarray(center, dtype=float)
    n /= np.linalg.norm(n)
    ell = 2.0 * (n @ v) * n - v
    return ell / np.linalg.norm(ell)


def _hartley_normalize(points: np.ndarray):
    mean = points.mean(axis=0)
    dist = np.linalg.norm(points - mean, axis=1).mean()
    if dist < 1e-12:
        raise ValueError("degenerate configuration: coincident points")
    s = np.sqrt(2.0) / dist
    t = np.array([[s, 0, -s * mean[0]], [0, s, -s * mean[1]], [0, 0, 1.0]])
    return (points - mean) * s, t


def estimate_homography_dlt(src, dst) -> tuple[Homography, float]:
    """Hartley-normalized DLT homography from >= 4 correspondences.

    Returns the estimate and its mean symmetric transfer error.
    """
    src = np.atleast_2d(np.asarray(src, dtype=float))
    dst = np.atleast_2d(np.asarray(dst, dtype=float))
    if src.shape != dst.shape or len(src) < 4:
        raise ValueError("need at least 4 point correspondences")
    a_pts, ta = _hartley_normalize(src)
    b_pts, tb = _hartley_normalize(dst)
    rows = []
    for (x, y), (xp, yp) in zip(a_pts, b_pts):
        rows.append([0, 0, 0, -x, -y, -1, yp * x, yp * y, yp])
        rows.append([x, y, 1, 0, 0, 0, -xp * x, -xp * y, -xp])
    a = np.asarray(rows)
    # the null vector is the last row of the 9x9 V^T; the thin SVD holds all
    # of it only with at least 9 rows, so four pairs (8 rows) need the full one
    _, sv, vt = np.linalg.svd(a, full_matrices=len(a) < 9)
    # a rank below 8 leaves no unique null vector, whatever the pair count
    if sv[7] < 1e-10 * sv[0]:
        raise ValueError("degenerate configuration for DLT")
    h_norm = vt[-1].reshape(3, 3)
    h = np.linalg.inv(tb) @ h_norm @ ta
    homography = Homography(h)
    return homography, symmetric_transfer_error(homography, src, dst)


def symmetric_transfer_error(h: Homography, src, dst) -> float:
    src = np.atleast_2d(np.asarray(src, dtype=float))
    dst = np.atleast_2d(np.asarray(dst, dtype=float))
    fwd = np.linalg.norm(h.apply(src) - dst, axis=1)
    inv = Homography(np.linalg.inv(h.h))
    bwd = np.linalg.norm(inv.apply(dst) - src, axis=1)
    return float(np.mean(fwd + bwd))


def _sampson_residuals(hv: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Per-pair residuals whose squared norm is the Sampson error.

    The algebraic error eps of each pair, whitened by its measurement
    Jacobian J: (J J^T)^(-1/2) eps, so the squared norm sums
    eps^T (J J^T)^-1 eps over the pairs.
    """
    x, y = src[:, 0], src[:, 1]
    xp, yp = dst[:, 0], dst[:, 1]
    w = hv[6] * x + hv[7] * y + hv[8]
    e1 = -(hv[3] * x + hv[4] * y + hv[5]) + yp * w
    e2 = (hv[0] * x + hv[1] * y + hv[2]) - xp * w
    eps = np.stack([e1, e2], axis=1)
    zeros = np.zeros_like(x)
    j = np.stack(
        [
            np.stack([-hv[3] + yp * hv[6], -hv[4] + yp * hv[7], zeros, w], axis=1),
            np.stack([hv[0] - xp * hv[6], hv[1] - xp * hv[7], -w, zeros], axis=1),
        ],
        axis=1,
    )  # (n, 2, 4)
    evals, evecs = np.linalg.eigh(j @ np.transpose(j, (0, 2, 1)))
    evals = np.maximum(evals, 1e-18)
    inv_sqrt = evecs @ (evecs / evals[:, None, :] ** 0.5).transpose(0, 2, 1)
    return (inv_sqrt @ eps[..., None])[..., 0].ravel()


def sampson_error(h: Homography, src, dst) -> float:
    """Total first-order geometric (Sampson) error over all pairs."""
    src = np.atleast_2d(np.asarray(src, dtype=float))
    dst = np.atleast_2d(np.asarray(dst, dtype=float))
    r = _sampson_residuals(h.h.ravel(), src, dst)
    return float(r @ r)


# Levenberg-Marquardt iterations of refine_sampson, and the run of
# non-improving steps after which it gives up
SAMPSON_MAX_ITER = 30
SAMPSON_DIVERGE_LIMIT = 5


def refine_sampson(h0: Homography, src, dst) -> Homography:
    """Levenberg-Marquardt refinement of the Sampson error.

    Guaranteed not to return anything worse than the input: the best
    iterate is tracked, and a run of SAMPSON_DIVERGE_LIMIT consecutive
    non-improving steps aborts with a warning.
    """
    src = np.atleast_2d(np.asarray(src, dtype=float))
    dst = np.atleast_2d(np.asarray(dst, dtype=float))
    hv = best = h0.h.ravel()
    r = _sampson_residuals(hv, src, dst)
    best_cost = float(r @ r)
    lam = 1e-3
    bad_streak = 0
    for _ in range(SAMPSON_MAX_ITER):
        jac = np.empty((r.size, 9))
        for k in range(9):
            step = 1e-7 * max(1.0, abs(hv[k]))
            hp = hv.copy()
            hp[k] += step
            jac[:, k] = (_sampson_residuals(hp, src, dst) - r) / step
        jtj = jac.T @ jac
        delta = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj) + 1e-12), -jac.T @ r)
        if np.linalg.norm(delta) < 1e-12:
            break  # converged: proposed step is negligible
        cand = hv + delta
        cand /= np.linalg.norm(cand)
        r_cand = _sampson_residuals(cand, src, dst)
        cost = float(r_cand @ r_cand)
        if cost < best_cost:
            best, best_cost = cand, cost
            hv, r = cand, r_cand
            lam = max(lam / 3.0, 1e-10)
            bad_streak = 0
        elif cost <= best_cost * (1.0 + 1e-12):
            break  # flat to rounding: converged
        else:
            lam *= 10.0
            bad_streak += 1
            if bad_streak >= SAMPSON_DIVERGE_LIMIT:
                warnings.warn("Sampson refinement stalled; returning best iterate")
                break
    return Homography(best.reshape(3, 3))


@dataclass(frozen=True)
class SeparationResult:
    specular: Image
    diffuse: Image
    clamp_count: int


def separate_reflectance(i0: Image, i1: Image) -> SeparationResult:
    """Cross-polarization separation from I0 = D/2 + S and I1 = D/2.

    specular = max(0, i0 - i1), diffuse = 2 i1; negative specular pixels
    (sensor noise) are clamped to zero and counted.
    """
    if i0.shape != i1.shape:
        raise ValueError(f"dimension mismatch: {i0.shape} vs {i1.shape}")
    mask = i0.mask & i1.mask
    diff = i0.samples - i1.samples
    clamp_count = int(np.count_nonzero(mask & (diff < 0)))
    # the difference of two finite samples >= 0 is finite; twice one can
    # overflow, which is an error only at a jointly valid pixel
    specular = np.maximum(diff, 0.0, out=diff)
    with np.errstate(over="ignore"):
        diffuse = np.multiply(i1.samples, 2.0)
    return SeparationResult(_image(specular, mask), _radiance(_image(diffuse, mask)), clamp_count)


def warp_by_homography(img: Image, h: Homography) -> Image:
    """Resample an image through H (inverse mapping, bilinear).

    The inverse map is evaluated per block of rows of alignment._warp, in
    place. Where its horizon crosses the frame it divides by zero; each
    coordinate is then clamped to [-1, size], NaN to -1 (np.fmax), so every
    query outside the frame stays outside it, finite, and in-frame queries
    are unchanged.
    """
    hh, ww = img.shape
    inv = Homography(np.linalg.inv(h.h)).h
    # each map row r is (r[0] x + r[1] y) + r[2]; its column terms r[0] x
    # are the same for every block
    cols = [r[0] * np.arange(ww, dtype=float) for r in inv]

    def coords(block, x, y):
        xs, ys, den = (np.add(col, r[1] * y) for col, r in zip(cols, inv))
        for dst, r in zip((xs, ys, den), inv):
            dst += r[2]
        with np.errstate(divide="ignore", invalid="ignore"):
            xs /= den
            ys /= den
        for q, size in ((xs, ww), (ys, hh)):
            np.fmin(np.fmax(q, -1.0, out=q), size, out=q)
        return xs, ys

    vals, mask = _warp(img.samples, img.mask, coords)
    np.maximum(vals, 0.0, out=vals)
    return _radiance(_image(vals, mask))
