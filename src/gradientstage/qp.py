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

from .core import COMPLEMENTS, GradientImageSet, NormalMap, _block_rows, _fill, _same_shape, _walk
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


def correct_normal_map(imgset: GradientImageSet, init: NormalMap, emit) -> NormalMap:
    """Per-pixel QP correction seeded by an initial normal estimate.

    Returns the renormalized corrected normals (magnitude channel = the
    pre-normalization length of the corrected vector). Pixels invalid in
    either input, or with a dark constant image, pass through as invalid.

    The estimated symmetric and asymmetric distortions go to
    emit(rows, delta, delta_bar, valid) once per block of rows, top-down:
    `rows` is the block's slice of the frame's rows, delta and delta_bar
    its (rows, W, 3) fields, 0 where the inputs are invalid or the
    constant is dark, and valid the corrected map's (rows, W) validity
    there. The three arrays are scratch that the next block overwrites, so
    a caller that keeps them copies them; no full-frame vector or
    distortion field exists.
    """
    mask = imgset.joint_mask(_CONDITIONS)
    _same_shape(imgset, init)
    mask &= init.mask
    h, w = mask.shape
    # the delta and delta_bar of the walker's largest block
    scratch = np.empty((2, min(_block_rows(w, 3), h), w, 3))

    def solve(block, planes):
        delta, delta_bar = scratch[:, : planes.shape[1]]
        samples = {c: imgset[c].samples[block] for c in _CONDITIONS}
        b_r, rc, valid = _ratio_components(samples, mask[block])
        b_d = _difference_components(samples)
        b_d /= rc[..., None]
        _closed_form(b_r, b_d, 0.0, 0.0, init.normals[block],
                     (delta, delta_bar, planes.transpose(1, 2, 0)))
        for a in (delta, delta_bar):
            _fill(a, ~valid, 0.0)
        return valid

    def done(block, valid):
        emit(block, *scratch[:, : valid.shape[0]], valid)

    return _walk(mask.shape, solve, done)


def constraint_violation(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-pixel infinity norm of the six constraint rows' residuals, for
    b = (b_r, b_d) (..., 6) and x = (delta, delta_bar, n) (..., 9)."""
    b, x = np.asarray(b), np.asarray(x)
    delta, delta_bar, n = x[..., 0:3], x[..., 3:6], x[..., 6:9]
    rows = np.concatenate([delta + n / 3.0, n * (2.0 / 3.0) - delta_bar], axis=-1)
    return np.abs(rows - b).max(axis=-1)
