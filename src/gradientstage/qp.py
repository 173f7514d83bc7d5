"""Equality-constrained quadratic-programming correction of recovered normals.

Each pixel's state x = (delta, delta_bar, n) moves the least distance
|x - x0| onto the modified radiance equations, two rows per axis a:

    delta_a + n_a/3 = b_r = r_a/r_c - 1/2
    2 n_a/3 - delta_bar_a = b_d = (r_a - r_abar)/r_c

The rows of one axis couple only (delta_a, delta_bar_a, n_a), so the
minimizer is a fixed blend of the residuals r = b_r - (delta0 + n0/3) and
s = b_d - (2 n0/3 - delta_bar0):

    n = n0 + (3/14) r + (3/7) s
    delta = delta0 + (13/14) r - (1/7) s
    delta_bar = delta_bar0 + (1/7) r - (5/7) s
"""
from __future__ import annotations

import numpy as np

from .core import COMPLEMENTS, GradientImageSet, NormalMap, _fill, _walk
from .photometric import RATIO_SET, _difference_components, _ratio_components

_CONDITIONS = (*RATIO_SET, *COMPLEMENTS)


def _closed_form(b_r, b_d, delta0, delta_bar0, n0, out) -> None:
    """Write the minimum-distance state for right-hand sides b_r, b_d and
    the start (delta0, delta_bar0, n0) into out = (delta, delta_bar, n), all
    per axis in the last dimension.

    The blend is linear in the residuals, so a start that meets both rows,
    as computed here, is returned exactly.
    """
    r = b_r - (delta0 + n0 / 3.0)
    s = b_d - (n0 * (2.0 / 3.0) - delta_bar0)
    delta, delta_bar, n = out
    np.add(delta0, (13 / 14) * r - (1 / 7) * s, out=delta)
    np.add(delta_bar0, (1 / 7) * r - (5 / 7) * s, out=delta_bar)
    np.add(n0, (3 / 14) * r + (3 / 7) * s, out=n)


def correct_normal_map(
    imgset: GradientImageSet, init: NormalMap
) -> tuple[NormalMap, np.ndarray, np.ndarray]:
    """Per-pixel QP correction seeded by an initial normal estimate.

    Returns the renormalized corrected normals (magnitude channel = the
    pre-normalization length of the corrected vector) plus the estimated
    symmetric and asymmetric distortion maps, each (H, W, 3), 0 at invalid
    pixels. Pixels invalid in either input, or with a dark constant image,
    pass through as invalid.

    The map's walk over blocks of rows reads the seven images' samples and
    writes the closed form's n into its scratch and delta, delta_bar into
    the preallocated outputs, so no full-frame vector field exists.
    """
    mask = imgset.joint_mask(_CONDITIONS)
    if init.shape != mask.shape:
        raise ValueError("init normal map dimensions do not match the image set")
    mask &= init.mask
    delta = np.empty(mask.shape + (3,))
    delta_bar = np.empty(mask.shape + (3,))

    def solve(block, planes):
        samples = {c: imgset[c].samples[block] for c in _CONDITIONS}
        # narrows mask[block] at dark constant pixels, before the walk reads it
        b_r, rc = _ratio_components(samples, mask[block])
        b_d = _difference_components(samples)
        b_d /= rc[..., None]
        _closed_form(b_r, b_d, 0.0, 0.0, init.normals[block],
                     (delta[block], delta_bar[block], planes.transpose(1, 2, 0)))
        for a in (delta, delta_bar):
            _fill(a[block], ~mask[block], 0.0)

    return _walk(mask.shape, solve, mask), delta, delta_bar


def constraint_violation(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-pixel infinity norm of the six constraint rows' residuals, for
    b = (b_r, b_d) (..., 6) and x = (delta, delta_bar, n) (..., 9)."""
    b, x = np.asarray(b), np.asarray(x)
    delta, delta_bar, n = x[..., 0:3], x[..., 3:6], x[..., 6:9]
    rows = np.concatenate([delta + n / 3.0, n * (2.0 / 3.0) - delta_bar], axis=-1)
    return np.abs(rows - b).max(axis=-1)
