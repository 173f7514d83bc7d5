"""Shape-only, texture-only and combined stimulus images from a normal map
and a constant-illumination diffuse image."""
from __future__ import annotations

import warnings

import numpy as np

from .core import Image, NormalMap, _image, _same_shape, unit

DEFAULT_LIGHT_1 = np.array([0.3, 0.3, 0.906])
DEFAULT_LIGHT_2 = np.array([-0.3, 0.3, 0.906])


def shape_only(nm: NormalMap, l1=DEFAULT_LIGHT_1, l2=DEFAULT_LIGHT_2) -> Image:
    """Two-light front-lit Lambertian rendering of the normals alone.

    (max(0, n.l1) + max(0, n.l2)) / 2, bounded in [0, 1]; albedo plays no
    part. Non-front lights are allowed but warned about.
    """
    l1 = unit(l1)
    l2 = unit(l2)
    if l1[2] <= 0 or l2[2] <= 0:
        warnings.warn("shape-only lights should face the camera (positive z)")
    shade = np.maximum(0.0, nm.normals @ l1)
    shade += np.maximum(0.0, nm.normals @ l2)
    shade *= 0.5
    return _image(shade, nm.mask)


def texture_only(diffuse_c: Image) -> Image:
    """Constant-illumination diffuse image normalized to [0, 1] by its max.

    Ratios between pixels are preserved exactly.
    """
    # invalid samples are 0 and valid ones >= 0: this is the valid maximum;
    # radiance has no fixed scale, so any positive peak will do
    peak = diffuse_c.samples.max()
    if not peak > 0:
        raise ValueError("texture image is all zero")
    return _image(diffuse_c.samples / peak, diffuse_c.mask)


def combined(shape: Image, texture: Image) -> Image:
    """Per-pixel product of shape and texture, clamped to [0, 1]."""
    _same_shape(shape, texture)
    vals = shape.samples * texture.samples
    np.clip(vals, 0.0, 1.0, out=vals)
    return _image(vals, shape.mask & texture.mask)
