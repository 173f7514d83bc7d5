"""Normal recovery: ratio method, complement-difference method, minimal
four-image sets and their duals, specular recovery, and normalizing-constant
diagnostics."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    COMPLEMENTS,
    DARK_EPS,
    GRADIENTS,
    Condition,
    GradientImageSet,
    Image,
    NormalMap,
    histogram,
    unit,
)

VIEW_TO_CAMERA = np.array([0.0, 0.0, 1.0])  # camera looks along -z


def recover_ma(imgset: GradientImageSet) -> NormalMap:
    """Ratio method: n = normalize(r_a/r_c - 1/2); magnitude channel = N_d.

    Pixels whose constant image falls below the dark threshold are
    invalidated, never clamped.
    """
    imgset.require([*GRADIENTS, Condition.C])
    rc = imgset[Condition.C].samples
    mask = imgset.joint_mask([*GRADIENTS, Condition.C]) & (rc > DARK_EPS)
    safe_rc = np.where(mask, rc, 1.0)
    comp = np.stack(
        [imgset[c].samples / safe_rc - 0.5 for c in GRADIENTS], axis=2
    )
    return NormalMap.from_components(comp, mask)


def recover_wilson(imgset: GradientImageSet) -> NormalMap:
    """Difference method: n = normalize(r_a - r_abar) over the three axes.

    Symmetric lobe distortion cancels in each per-axis difference.
    """
    imgset.require([*GRADIENTS, *COMPLEMENTS])
    mask = imgset.joint_mask([*GRADIENTS, *COMPLEMENTS])
    comp = np.stack(
        [
            imgset[g].samples - imgset[g.complement].samples
            for g in GRADIENTS
        ],
        axis=2,
    )
    return NormalMap.from_components(comp, mask)


def _window_components(
    base_axis: int,
    base_gradient: np.ndarray,
    base_complement: np.ndarray,
    others: list[tuple[int, np.ndarray, bool]],
) -> np.ndarray:
    """Per-axis minimal-set combination given a base complement pair.

    The base pair's sum stands in for the constant image; axes observed
    through a gradient image use 2 r_b - (r_a + r_abar), axes observed
    through a complement use (r_a + r_abar) - 2 r_bbar.
    """
    s = base_gradient + base_complement
    comp = [None, None, None]
    comp[base_axis] = base_gradient - base_complement
    for axis, arr, is_bar in others:
        comp[axis] = s - 2.0 * arr if is_bar else 2.0 * arr - s
    return np.stack(comp, axis=2)


def recover_minimal(imgset: GradientImageSet, base, dual: bool = False) -> NormalMap:
    """Minimal four-image recovery.

    Non-dual uses the three gradients plus the base complement; dual uses
    the three complements plus the base gradient. Both reduce to the
    difference method whenever r_a + r_abar = r_c holds.
    """
    base = Condition(base)
    if base not in GRADIENTS:
        raise ValueError("base must be one of the gradient axes x, y, z")
    if dual:
        needed = [*COMPLEMENTS, base]
    else:
        needed = [*GRADIENTS, base.complement]
    imgset.require(needed)
    mask = imgset.joint_mask(needed)
    others = []
    family = COMPLEMENTS if dual else GRADIENTS
    for cond in family:
        axis = cond.axis
        if axis == base.axis:
            continue
        others.append((axis, imgset[cond].samples, cond.is_complement))
    comp = _window_components(
        base.axis,
        imgset[base].samples,
        imgset[base.complement].samples,
        others,
    )
    return NormalMap.from_components(comp, mask)


def recover_specular(imgset: GradientImageSet, view=VIEW_TO_CAMERA) -> tuple[NormalMap, NormalMap]:
    """Recover the mirror reflection map and the halfway-vector normals.

    u = normalize(r_a - r_c/2); n = normalize(u + view-to-camera). The
    returned reflection map's magnitude channel carries N_s.
    """
    imgset.require([*GRADIENTS, Condition.C])
    view = unit(view)
    rc = imgset[Condition.C].samples
    mask = imgset.joint_mask([*GRADIENTS, Condition.C])
    comp = np.stack(
        [imgset[g].samples - 0.5 * rc for g in GRADIENTS], axis=2
    )
    reflection = NormalMap.from_components(comp, mask)
    halfway = NormalMap.from_components(
        reflection.normals + view[None, None, :], reflection.mask
    )
    return reflection, halfway


def ideal_lobe_centroid(k: float) -> float:
    """Centroid height of an ideal diffuse lobe of extent k along the normal.

    3(k^2 - 2k) / (4(k^2 - 3)); equals 0.375 for the unit lobe.
    """
    if k <= 0:
        raise ValueError("lobe extent must be positive")
    denom = k * k - 3.0
    if abs(denom) < 1e-12:
        raise ValueError("singular lobe extent: k^2 = 3")
    return 3.0 * (k * k - 2.0 * k) / (4.0 * denom)


@dataclass(frozen=True)
class MagnitudeStats:
    min: float
    max: float
    mean: float
    histogram: list[tuple[float, int]]


def magnitude_stats(nm: NormalMap, bin_width: float = 0.01) -> MagnitudeStats:
    """Summary statistics of the normalizing-constant channel."""
    if not nm.mask.any():
        raise ValueError("normal map has no valid pixels")
    vals = nm.magnitude[nm.mask]
    hist = histogram(Image(nm.magnitude, nm.mask), bin_width)
    return MagnitudeStats(float(vals.min()), float(vals.max()), float(vals.mean()), hist)
