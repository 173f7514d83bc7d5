"""Equality-constrained quadratic-programming correction of recovered normals.

The per-pixel unknowns are x = (dx, dy, dz, dxbar, dybar, dzbar, nx, ny, nz);
the six radiance combinations constrain them through a fixed full-row-rank
matrix, so the minimum-distance correction has the closed form
x = x0 + A^T (A A^T)^-1 (b - A x0).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DARK_EPS, GRADIENTS, Condition, GradientImageSet, NormalMap
from .photometric import DIFFERENCE_SET, _difference_components


def coefficient_matrix() -> np.ndarray:
    """The fixed 6x9 constraint matrix (identity on deltas, -1 on the
    asymmetric deltas, 1/3 and 2/3 on the normal components)."""
    a = np.zeros((6, 9))
    a[:3, :3] = np.eye(3)
    a[3:, 3:6] = -np.eye(3)
    a[:3, 6:] = np.eye(3) / 3.0
    a[3:, 6:] = 2.0 * np.eye(3) / 3.0
    return a


A_MATRIX = coefficient_matrix()
A_MATRIX.setflags(write=False)
_AAT_INV = np.linalg.inv(A_MATRIX @ A_MATRIX.T)
_AAT_INV.setflags(write=False)


@dataclass(frozen=True)
class QpSystem:
    """Per-pixel right-hand sides b (..., 6) with a validity mask."""

    b: np.ndarray
    mask: np.ndarray


def build_qp_system(imgset: GradientImageSet) -> QpSystem:
    """Normalized radiance combinations for every pixel.

    b = (r_a/r_c - 1/2 for a in xyz; (r_a - r_abar)/r_c for a in xyz).
    Pixels with a dark constant image are masked out.
    """
    mask = imgset.joint_mask(Condition)
    rc = imgset[Condition.C].samples
    mask &= rc > DARK_EPS
    safe_rc = np.where(mask, rc, 1.0)
    ratios = np.stack([imgset[g].samples / safe_rc - 0.5 for g in GRADIENTS], axis=-1)
    diffs = _difference_components({c: imgset[c].samples for c in DIFFERENCE_SET})
    b = np.concatenate([ratios, diffs / safe_rc[..., None]], axis=-1)
    b = np.where(mask[..., None], b, 0.0)
    return QpSystem(b, mask)


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
    sys = build_qp_system(imgset)
    if init.shape != sys.mask.shape:
        raise ValueError("init normal map dimensions do not match the image set")
    mask = sys.mask & init.mask
    h, w = mask.shape
    x0 = np.zeros((h, w, 9))
    x0[:, :, 6:] = init.normals
    x = solve_normal_correction(sys.b, x0)
    delta = np.where(mask[..., None], x[:, :, 0:3], 0.0)
    delta_bar = np.where(mask[..., None], x[:, :, 3:6], 0.0)
    corrected = NormalMap.from_components(x[:, :, 6:], mask)
    return corrected, delta, delta_bar


def constraint_violation(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-pixel infinity norm of Ax - b."""
    r = np.asarray(x) @ A_MATRIX.T - np.asarray(b)
    return np.abs(r).max(axis=-1)
