"""Shared fixtures and independent oracles for the test suite."""
import numpy as np
import pytest
from scipy import ndimage

from gradientstage.core import (
    DARK_EPS,
    Condition,
    GradientImageSet,
    Image,
    NormalMap,
    angular_error_map,
)
from gradientstage.qp import _closed_form, correct_normal_map
from gradientstage.stage import make_sphere_scene, render_set


@pytest.fixture
def sphere_scene():
    # odd size puts an exactly frontal pixel at the center
    return make_sphere_scene(49, 49, 20)


@pytest.fixture
def ideal_sphere_set(sphere_scene):
    return render_set(sphere_scene)


def random_unit_vectors(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_normal_map(rng, h, w):
    v = rng.normal(size=(h, w, 3))
    v[:, :, 2] = np.abs(v[:, :, 2]) + 0.1
    return NormalMap.from_components(v)


def from_components_reference(vectors, mask=None):
    """(normals, magnitude, mask) of NormalMap.from_components(vectors, mask)."""
    v = np.asarray(vectors, dtype=float)
    with np.errstate(over="ignore"):
        length = np.linalg.norm(v, axis=2)
    ok = np.isfinite(length) & (length > DARK_EPS)
    if mask is not None:
        ok &= np.asarray(mask, dtype=bool)
    normals = np.where(ok[..., None], v / np.where(ok, length, 1.0)[..., None], (0.0, 0.0, 1.0))
    return normals, np.where(ok, length, 0.0), ok


def outcome(f, *args):
    """f(*args)'s array fields as (name, dtype, shape, bytes), or the type and
    text of the ValueError or RuntimeWarning it raises: two functions agree
    on args when their outcomes are equal."""
    try:
        result = f(*args)
    except (ValueError, RuntimeWarning) as e:
        return type(e).__name__, str(e)
    return [(name, a.dtype, a.shape, a.tobytes()) for name, a in vars(result).items()]


def max_angular_error(a: NormalMap, b: NormalMap) -> float:
    """Largest angle between two normal maps over jointly valid pixels, degrees."""
    err = angular_error_map(a, b)
    if not err.mask.any():
        raise ValueError("no jointly valid pixels")
    return float(err.samples[err.mask].max())


def textured_radiance_scene(height, width, pad=20, seed=0, shift=(0, 0)):
    """Analytic x-gradient triple over a textured albedo field.

    Returns (g, gbar, c) Images; the complement is cut at `shift` so a
    known misalignment can be injected without interpolation error.
    """
    rng = np.random.default_rng(seed)
    fine = ndimage.gaussian_filter(rng.random((height + 2 * pad, width + 2 * pad)), 1.5)
    coarse = ndimage.gaussian_filter(rng.random((height + 2 * pad, width + 2 * pad)), 5.0)
    tex = fine + coarse
    tex = 0.2 + 0.6 * (tex - tex.min()) / (tex.max() - tex.min())
    yy, xx = np.mgrid[0 : height + 2 * pad, 0 : width + 2 * pad]
    nx = (xx - (width + 2 * pad) / 2) / (width + 2 * pad)
    ny = (yy - (height + 2 * pad) / 2) / (height + 2 * pad)
    nz = np.sqrt(np.maximum(1.0 - nx**2 - ny**2, 0.2))
    norm = np.sqrt(nx**2 + ny**2 + nz**2)
    nx = nx / norm
    k = np.pi * tex / 2.0
    g_full = k * (nx / 3.0 + 0.5)
    gbar_full = k * (-nx / 3.0 + 0.5)
    c_full = k

    def cut(a, dy=0, dx=0):
        return a[pad + dy : pad + dy + height, pad + dx : pad + dx + width]

    dy, dx = shift
    return (
        Image(cut(g_full)),
        Image(cut(gbar_full, dy, dx)),
        Image(cut(c_full)),
    )


# The QP's fixed 6x9 constraint matrix on x = (delta, delta_bar, n): identity
# on the deltas, -1 on the asymmetric deltas, 1/3 and 2/3 on the normal.
A_MATRIX = np.zeros((6, 9))
A_MATRIX[:3, :3] = np.eye(3)
A_MATRIX[3:, 3:6] = -np.eye(3)
A_MATRIX[:3, 6:] = np.eye(3) / 3.0
A_MATRIX[3:, 6:] = 2.0 * np.eye(3) / 3.0
A_MATRIX.setflags(write=False)


def solve_kkt_dense(b: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Independent oracle: solves the full 15x15 KKT system per pixel.

    minimize ||x - x0||^2 s.t. Ax = b  =>  [2I A^T; A 0][x; lam] = [2 x0; b]
    """
    b = np.atleast_2d(np.asarray(b, dtype=float))
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    n = b.shape[0]
    kkt = np.zeros((15, 15))
    kkt[:9, :9] = 2.0 * np.eye(9)
    kkt[:9, 9:] = A_MATRIX.T
    kkt[9:, :9] = A_MATRIX
    rhs = np.concatenate([2.0 * x0, b], axis=1)
    sol = np.linalg.solve(np.broadcast_to(kkt, (n, 15, 15)), rhs[..., None])
    return sol[:, :9, 0]


def qp_rhs(imgset: GradientImageSet, mask: np.ndarray) -> np.ndarray:
    """The QP's right-hand sides (b_r, b_d) at the pixels of `mask`, (N, 6):
    b_r = r_a/r_c - 1/2 and b_d = (r_a - r_abar)/r_c, straight from the
    radiance equations."""
    rc = imgset[Condition.C].samples[mask]
    ratios = [imgset[a].samples[mask] / rc - 0.5 for a in "xyz"]
    diffs = [(imgset[a].samples[mask] - imgset[a + "b"].samples[mask]) / rc for a in "xyz"]
    return np.stack(ratios + diffs, axis=1)


def closed_form(b: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """The QP kernel on stacked arrays: b (..., 6) and x0 (..., 9) to x (..., 9)."""
    x = np.empty(np.shape(x0))
    _closed_form(b[..., :3], b[..., 3:], x0[..., :3], x0[..., 3:6], x0[..., 6:],
                 (x[..., :3], x[..., 3:6], x[..., 6:]))
    return x


def correct_collected(imgset: GradientImageSet, init: NormalMap):
    """(corrected, delta, delta_bar) of correct_normal_map, its emitted
    blocks of delta and delta_bar assembled into (H, W, 3) fields (NaN in
    a row no block covered); each block's validity must be the corrected
    map's there."""
    fields = np.full((2, *imgset.shape, 3), np.nan)
    valid = np.zeros(imgset.shape, dtype=bool)

    def emit(rows, delta, delta_bar, block_valid):
        fields[0, rows], fields[1, rows] = delta, delta_bar
        valid[rows] = block_valid

    corrected = correct_normal_map(imgset, init, emit)
    np.testing.assert_array_equal(valid, corrected.mask)
    return corrected, fields[0], fields[1]


# ---- mirror-ball forward oracles (independent of the calib implementation)

def project_sphere_limb(center, radius, k_matrix, n_points=72):
    """Exact pixel coordinates of the sphere's occluding contour."""
    center = np.asarray(center, dtype=float)
    d = np.linalg.norm(center)
    limb_center = center * (1.0 - radius**2 / d**2)
    limb_radius = radius * np.sqrt(d**2 - radius**2) / d
    axis = center / d
    helper = np.array([1.0, 0, 0]) if abs(axis[0]) < 0.9 else np.array([0, 1.0, 0])
    e1 = np.cross(axis, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    theta = np.linspace(0, 2 * np.pi, n_points, endpoint=False)
    points3d = limb_center[None] + limb_radius * (
        np.cos(theta)[:, None] * e1 + np.sin(theta)[:, None] * e2
    )
    proj = (np.asarray(k_matrix) @ points3d.T).T
    return proj[:, :2] / proj[:, 2:3]


def forward_highlight_point(light_pos, center, radius, origin=None):
    """Bisection solve for the sphere point whose mirror reflection of the
    camera ray hits the light; independent of the calibration code."""
    origin = np.zeros(3) if origin is None else np.asarray(origin, dtype=float)
    center = np.asarray(center, dtype=float)
    light_pos = np.asarray(light_pos, dtype=float)
    to_cam = origin - center
    to_cam /= np.linalg.norm(to_cam)
    to_light = light_pos - center
    to_light /= np.linalg.norm(to_light)
    e1 = to_cam
    e2 = to_light - (to_light @ e1) * e1
    span = np.linalg.norm(e2)
    if span < 1e-12:
        return center + radius * e1
    e2 /= span

    def angle_err(phi):
        n = np.cos(phi) * e1 + np.sin(phi) * e2
        h = center + radius * n
        v = origin - h
        v /= np.linalg.norm(v)
        refl = 2.0 * (n @ v) * n - v
        want = light_pos - h
        want /= np.linalg.norm(want)
        return np.arctan2(refl @ e2, refl @ e1) - np.arctan2(want @ e2, want @ e1)

    lo, hi = 0.0, np.arctan2(to_light @ e2, to_light @ e1)
    f_lo = angle_err(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = angle_err(mid)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    phi = 0.5 * (lo + hi)
    return center + radius * (np.cos(phi) * e1 + np.sin(phi) * e2)


def project_point(point, k_matrix):
    q = np.asarray(k_matrix) @ np.asarray(point, dtype=float)
    return q[:2] / q[2]
