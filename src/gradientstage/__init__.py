"""Spherical-gradient photometric stereo toolkit."""

from .core import (
    Condition,
    GradientImageSet,
    Image,
    NormalMap,
    angular_error_map,
    histogram,
    mean_angular_error,
)

__all__ = [
    "Condition",
    "GradientImageSet",
    "Image",
    "NormalMap",
    "angular_error_map",
    "histogram",
    "mean_angular_error",
]

__version__ = "0.1.0"
