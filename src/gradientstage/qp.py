"""Equality-constrained quadratic-programming correction of recovered normals.

The per-pixel unknowns are x = (dx, dy, dz, dxbar, dybar, dzbar, nx, ny, nz);
the six radiance combinations constrain them through a fixed full-row-rank
matrix, so the minimum-distance correction has the closed form
x = x0 + A^T (A A^T)^-1 (b - A x0).
"""
from __future__ import annotations

import numpy as np

from .core import COMPLEMENTS, GradientImageSet, NormalMap
from .photometric import DIFFERENCE_SET, _difference_components, _ratio_components

# The fixed 6x9 constraint matrix: identity on the deltas, -1 on the
# asymmetric deltas, 1/3 and 2/3 on the normal components.
A_MATRIX = np.zeros((6, 9))
A_MATRIX[:3, :3] = np.eye(3)
A_MATRIX[3:, 3:6] = -np.eye(3)
A_MATRIX[:3, 6:] = np.eye(3) / 3.0
A_MATRIX[3:, 6:] = 2.0 * np.eye(3) / 3.0
A_MATRIX.setflags(write=False)
_AAT_INV = np.linalg.inv(A_MATRIX @ A_MATRIX.T)
_AAT_INV.setflags(write=False)


def build_qp_system(imgset: GradientImageSet) -> tuple[np.ndarray, np.ndarray]:
    """Normalized radiance combinations b (H, W, 6) and their validity mask.

    b = (r_a/r_c - 1/2 for a in xyz; (r_a - r_abar)/r_c for a in xyz), 0 at
    invalid pixels. Pixels with a dark constant image are masked out.
    """
    ratios, mask, rc = _ratio_components(imgset)
    mask &= imgset.joint_mask(COMPLEMENTS)
    diffs = _difference_components({c: imgset[c].samples for c in DIFFERENCE_SET})
    b = np.concatenate([ratios, diffs / rc[..., None]], axis=-1)
    return np.where(mask[..., None], b, 0.0), mask


def solve_normal_correction(b: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Minimum-distance feasible state: x = x0 + A^T (A A^T)^-1 (b - A x0).

    Vectorized over leading dimensions; b is (..., 6) and x0 is (..., 9).
    """
    b = np.asarray(b, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    residual = b - x0 @ A_MATRIX.T
    return x0 + residual @ _AAT_INV.T @ A_MATRIX


def correct_normal_map(
    imgset: GradientImageSet, init: NormalMap
) -> tuple[NormalMap, np.ndarray, np.ndarray]:
    """Per-pixel QP correction seeded by an initial normal estimate.

    Returns the renormalized corrected normals (magnitude channel = the
    pre-normalization length of the corrected vector) plus the estimated
    symmetric and asymmetric distortion maps, each (H, W, 3). Pixels
    invalid in either input pass through as invalid.
    """
    b, mask = build_qp_system(imgset)
    if init.shape != mask.shape:
        raise ValueError("init normal map dimensions do not match the image set")
    mask &= init.mask
    h, w = mask.shape
    x0 = np.zeros((h, w, 9))
    x0[:, :, 6:] = init.normals
    x = solve_normal_correction(b, x0)
    delta = np.where(mask[..., None], x[:, :, 0:3], 0.0)
    delta_bar = np.where(mask[..., None], x[:, :, 3:6], 0.0)
    corrected = NormalMap.from_components(x[:, :, 6:], mask)
    return corrected, delta, delta_bar


def constraint_violation(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-pixel infinity norm of Ax - b."""
    r = np.asarray(x) @ A_MATRIX.T - np.asarray(b)
    return np.abs(r).max(axis=-1)
