#!/usr/bin/env python3
"""Whether the Sampson refinement brings a homography closer to the truth.

For each regime (corner layout, pixel noise, perspective) it draws noisy
correspondences of a known map H, fits the normalized DLT homography and
its Sampson refinement (`calibrate homography` with and without
`--no-refine`), and scores each by its mean transfer error against H over
a 9x9 grid spanning a 1024x1024 frame. It prints one row per regime: both
mean errors, the trials in which the refined map was closer, and the trials
in which the refinement stalled.

    PYTHONPATH=src python scripts/homography_study.py --trials 40
"""
import argparse
import warnings

import numpy as np

from gradientstage.calib import Homography, estimate_homography_dlt, refine_sampson

FRAME = 1024.0
# calib-1024's map (perfbench/scenes.py H_TRUE) and the same map with
# stronger and much stronger perspective
H_CALIB = np.array([[1.004, 0.006, 2.5], [-0.005, 0.997, -1.8], [2e-6, -3e-6, 1.0]])
H_STRONG = np.array([[1.004, 0.006, 2.5], [-0.005, 0.997, -1.8], [2e-4, -1.5e-4, 1.0]])
H_STEEP = np.array([[1.004, 0.006, 2.5], [-0.005, 0.997, -1.8], [6e-4, -5e-4, 1.0]])

# name, map, corners per row and column, noise (px), side of the square the
# corners span as a fraction of the frame (centred)
REGIMES = [
    ("calib-1024: 13x9, 0.3 px, H_TRUE", H_CALIB, (13, 9), 0.3, 0.875),
    ("13x9, 0.3 px, full", H_STRONG, (13, 9), 0.3, 0.875),
    ("4x2, 0.3 px, full", H_STRONG, (4, 2), 0.3, 0.875),
    ("3x2, 1 px, full", H_STRONG, (3, 2), 1.0, 0.875),
    ("4x3, 1 px, central 20 %", H_STRONG, (4, 3), 1.0, 0.2),
    ("13x9, 1 px, central 20 %", H_STRONG, (13, 9), 1.0, 0.2),
    ("3x2, 0.5 px, full, steep", H_STEEP, (3, 2), 0.5, 0.875),
]


def grid(nx: int, ny: int, side: float) -> np.ndarray:
    """nx x ny points spanning a centred square of side `side` frames."""
    lo, hi = FRAME * (1 - side) / 2, FRAME * (1 + side) / 2
    gx, gy = np.meshgrid(np.linspace(lo, hi, nx), np.linspace(lo, hi, ny))
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


EVAL = grid(9, 9, 1.0)


def transfer_error(h_est: Homography, h_true: Homography) -> float:
    """Mean distance between the two maps' images of the evaluation grid."""
    return float(np.linalg.norm(h_est.apply(EVAL) - h_true.apply(EVAL), axis=1).mean())


def study(h_true, layout, noise, side, trials, seed):
    """Per-trial (DLT error, refined error) and the number of stalls."""
    truth = Homography(h_true)
    corners = grid(*layout, side)  # reference camera, as in calib-1024
    src = Homography(np.linalg.inv(h_true)).apply(corners)
    errors, stalls = [], 0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        s = src + rng.normal(0, noise, src.shape)
        d = corners + rng.normal(0, noise, src.shape)
        h_dlt, _ = estimate_homography_dlt(s, d)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            h_ref = refine_sampson(h_dlt, s, d)
        stalls += bool(caught)
        errors.append((transfer_error(h_dlt, truth), transfer_error(h_ref, truth)))
    return np.array(errors), stalls


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--trials", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.trials < 1:
        ap.error("--trials must be >= 1")

    print(f"{'regime':<34} {'DLT (px)':>10} {'refined (px)':>13} {'refined better':>15} {'stalls':>7}")
    for name, h_true, layout, noise, side in REGIMES:
        errors, stalls = study(h_true, layout, noise, side, args.trials, args.seed)
        dlt, refined = errors.mean(axis=0)
        better = int((errors[:, 1] < errors[:, 0]).sum())
        print(f"{name:<34} {dlt:>10.5f} {refined:>13.5f} {better:>9}/{args.trials:<5} {stalls:>7}")


if __name__ == "__main__":
    main()
