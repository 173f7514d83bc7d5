"""Normal recovery: ratio method, complement-difference method, minimal
four-image sets and their duals, specular recovery, and normalizing-constant
diagnostics."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

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
)

VIEW_TO_CAMERA = np.array([0.0, 0.0, 1.0])  # camera looks along -z

# the conditions each estimator reads
RATIO_SET = (*GRADIENTS, Condition.C)
DIFFERENCE_SET = (*GRADIENTS, *COMPLEMENTS)


def minimal_set(base, dual: bool) -> tuple[Condition, ...]:
    """The three gradients plus the base complement, or for the dual the
    three complements plus the base gradient."""
    base = Condition(base)
    if base not in GRADIENTS:
        raise ValueError("base must be one of the gradient axes x, y, z")
    return (*COMPLEMENTS, base) if dual else (*GRADIENTS, base.complement)


def _difference_components(
    samples: Mapping[Condition, np.ndarray], constant: np.ndarray | None = None
) -> np.ndarray:
    """Per-axis r_a - r_abar as one (..., 3) field.

    An axis seen through one side only takes the other from the constant
    image by r_a + r_abar = r_c: 2 r_a - r_c, or r_c - 2 r_abar.
    """
    shape = next(iter(samples.values())).shape if samples else ()
    comp = np.empty(shape + (3,))
    for i, g in enumerate(GRADIENTS):
        a, abar = samples.get(g), samples.get(g.complement)
        if a is None and abar is None:
            raise ValueError(f"no image for the {g.value} axis")
        if a is not None and abar is not None:
            np.subtract(a, abar, out=comp[..., i])
        elif constant is None:
            raise ValueError(f"the {g.value} axis has one side and no constant image")
        else:
            comp[..., i] = 2.0 * a - constant if abar is None else constant - 2.0 * abar
    return comp


def _ratio_components(
    samples: Mapping[Condition, np.ndarray], mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis r_a/r_c - 1/2 as one (..., 3) field, and its divisor.

    Pixels whose constant image falls below the dark threshold are
    invalidated in `mask`, in place, never clamped; the divisor is r_c with
    1 at every pixel that `mask` leaves invalid.
    """
    rc = samples[Condition.C]
    mask &= rc > DARK_EPS
    safe_rc = np.where(mask, rc, 1.0)
    comp = np.empty(rc.shape + (3,))
    for i, g in enumerate(GRADIENTS):
        ratio = comp[..., i]
        np.divide(samples[g], safe_rc, out=ratio)
        ratio -= 0.5
    return comp, safe_rc


def recover_ma(imgset: GradientImageSet) -> NormalMap:
    """Ratio method: n = normalize(r_a/r_c - 1/2); magnitude channel = N_d."""
    mask = imgset.joint_mask(RATIO_SET)
    comp, _ = _ratio_components({c: imgset[c].samples for c in RATIO_SET}, mask)
    return NormalMap.from_components(comp, mask)


def recover_wilson(imgset: GradientImageSet) -> NormalMap:
    """Difference method: n = normalize(r_a - r_abar) over the three axes.

    Symmetric lobe distortion cancels in each per-axis difference.
    """
    mask = imgset.joint_mask(DIFFERENCE_SET)
    comp = _difference_components({c: imgset[c].samples for c in DIFFERENCE_SET})
    return NormalMap.from_components(comp, mask)


def recover_minimal(imgset: GradientImageSet, base, dual: bool = False) -> NormalMap:
    """Minimal four-image recovery.

    Reads the base pair and, for each other axis, the side that
    minimal_set(base, dual) names, or the other side where the set holds
    only that one: pure, dual and mixed sets, such as a capture window's,
    are all minimal sets. The base pair's sum stands in for the constant
    image, so each reduces to the difference method whenever
    r_a + r_abar = r_c holds.
    """
    base = Condition(base)
    held = imgset.images
    conditions = [
        c.complement if c.axis != base.axis and c not in held and c.complement in held else c
        for c in minimal_set(base, dual)
    ]
    mask = imgset.joint_mask(conditions)
    comp = _difference_components(
        {c: imgset[c].samples for c in conditions},
        imgset[base].samples + imgset[base.complement].samples,
    )
    return NormalMap.from_components(comp, mask)


def recover_specular(imgset: GradientImageSet) -> tuple[NormalMap, NormalMap]:
    """Recover the mirror reflection map and the halfway-vector normals.

    u = normalize(r_a - r_c/2); n = normalize(u + VIEW_TO_CAMERA). The
    returned reflection map's magnitude channel carries N_s.
    """
    mask = imgset.joint_mask(RATIO_SET)
    half_rc = 0.5 * imgset[Condition.C].samples
    comp = np.empty(half_rc.shape + (3,))
    for i, g in enumerate(GRADIENTS):
        np.subtract(imgset[g].samples, half_rc, out=comp[..., i])
    reflection = NormalMap.from_components(comp, mask)
    halfway = NormalMap.from_components(
        reflection.normals + VIEW_TO_CAMERA, reflection.mask
    )
    return reflection, halfway


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
