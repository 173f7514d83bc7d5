"""Seeded input generators and ground truth for the benchmark workloads.

Each workload is a fixed scene; the seed draws its sensor noise, the
stimulus texture and stage-512's albedo. Holding the scene fixed keeps the
accuracy guards (`normal_err_deg`, `light_dir_err_deg`) steady across
seeds, so a change in solver behaviour shows as a change in error rather
than hiding in the scene-to-scene spread.

The generators carry their own PFM writer, radiance model and mirror-ball
optics; the only program code they call is `sequencer.generate_sequence`,
which plans the capture that `capture-seq` records.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from gradientstage import sequencer
from scipy import ndimage

CONDITIONS = ("x", "y", "z", "xb", "yb", "zb", "c")
GRADIENT_AXES = {"x": 0, "y": 1, "z": 2}

# ---------------------------------------------------------------- PFM files

_PFM_HEADER = re.compile(rb"(P[Ff])\s+(\d+)\s+(\d+)\s+(\S+)\s")


def write_pfm(path, arr) -> None:
    """Little-endian PFM, rows bottom-to-top; NaN marks invalid pixels."""
    arr = np.asarray(arr, dtype="<f4")
    ident = b"Pf" if arr.ndim == 2 else b"PF"
    h, w = arr.shape[:2]
    with open(path, "wb") as f:
        f.write(ident + f"\n{w} {h}\n-1.0\n".encode("ascii"))
        f.write(np.ascontiguousarray(arr[::-1]).tobytes())


def read_pfm(path) -> np.ndarray:
    """(H, W) or (H, W, 3) float64 array, rows top-down."""
    data = Path(path).read_bytes()
    m = _PFM_HEADER.match(data)
    if m is None:
        raise ValueError(f"{path}: not a PFM file")
    channels = 3 if m.group(1) == b"PF" else 1
    w, h = int(m.group(2)), int(m.group(3))
    dtype = "<f4" if float(m.group(4)) < 0 else ">f4"
    payload = np.frombuffer(data, dtype=dtype, count=w * h * channels, offset=m.end())
    arr = payload.reshape(h, w, channels)[::-1].astype(float)
    return arr[:, :, 0] if channels == 1 else arr


# ------------------------------------------------------------ scene models


def sphere_normals(x, y, cx: float, cy: float, radius: float):
    """Orthographic sphere normals at (possibly fractional) pixel positions.

    Returns (normals (..., 3), inside mask); normals outside the disk are
    (0, 0, 1).
    """
    nx = (np.asarray(x, float) - cx) / radius
    ny = (np.asarray(y, float) - cy) / radius
    r2 = nx * nx + ny * ny
    inside = r2 <= 1.0
    nz = np.sqrt(np.maximum(1.0 - r2, 0.0))
    normals = np.stack(
        [np.where(inside, nx, 0.0), np.where(inside, ny, 0.0), np.where(inside, nz, 1.0)],
        axis=-1,
    )
    return normals, inside


def image_sphere(size: int):
    """Truth of the program's `simulate --size S S` sphere (radius 0.4 S)."""
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    c = (size - 1) / 2.0
    return sphere_normals(xx, yy, c, c, 0.4 * size)


def lambert(normals, albedo, cond: str):
    """Continuous spherical-gradient Lambert radiance, no lobe distortion.

    gradient a: (pi rho / 2)(n_a / 3 + 1/2); complement: (pi rho / 2)(1/2 -
    n_a / 3); constant: pi rho / 2.
    """
    k = np.pi * np.asarray(albedo, float) / 2.0
    if cond == "c":
        return k * np.ones(normals.shape[:-1])
    n_a = normals[..., GRADIENT_AXES[cond[0]]]
    return k * ((-n_a if cond.endswith("b") else n_a) / 3.0 + 0.5)


def mirror_specular(normals, strength: float, cond: str):
    """Delta-lobe mirror radiance of the view vector (0, 0, 1) reflected
    about the normal: gradient s(u_a + 1)/2, constant s."""
    if cond == "c":
        return strength * np.ones(normals.shape[:-1])
    u = 2.0 * normals[..., 2:3] * normals - np.array([0.0, 0.0, 1.0])
    u_a = u[..., GRADIENT_AXES[cond[0]]]
    return strength / 2.0 * ((-u_a if cond.endswith("b") else u_a) + 1.0)


# ------------------------------------------------------------- still-1024 / stage-512


@dataclass(frozen=True)
class SphereInputs:
    """A `simulate` config plus the stimulus texture; truth is the sphere."""

    directory: Path
    config: Path
    texture: Path | None
    size: int


STILL_DISTORTION = {"delta": [0.02, 0.01, -0.01], "deltabar": [0.01, -0.02, 0.015]}


def make_still(rng: np.random.Generator, directory: Path, size: int = 1024) -> SphereInputs:
    """Analytic sphere with symmetric and asymmetric lobe distortion and 1 %
    multiplicative pixel noise drawn by `simulate` from a seed we pick."""
    directory.mkdir(parents=True, exist_ok=True)
    config = directory / "simulate.json"
    config.write_text(
        json.dumps(
            {
                "size": [size, size],
                **STILL_DISTORTION,
                "pixel_noise": 0.01,
                "seed": int(rng.integers(2**31)),
            }
        )
    )
    texture = directory / "texture.pfm"
    write_pfm(texture, rng.uniform(0.2, 1.0, (size, size)))
    return SphereInputs(directory, config, texture, size)


STAGE_RIG_SEED = 20110517


def make_stage(rng: np.random.Generator, directory: Path, size: int = 512) -> SphereInputs:
    """Sphere of seeded albedo under the 162-LED icosphere with ILT
    quantization and 1 % per-LED gain error.

    The gain errors belong to the rig, so `simulate` draws them from a fixed
    seed: across random rigs the normal error spreads by about 60 %, which
    would bury any change in the estimators. Albedo cancels in every
    estimator, so the seed changes the images but not the expected error.
    """
    directory.mkdir(parents=True, exist_ok=True)
    config = directory / "simulate.json"
    config.write_text(
        json.dumps(
            {
                "size": [size, size],
                "albedo": float(rng.uniform(0.5, 1.0)),
                "leds": 162,
                "quantize": True,
                "led_noise": 0.01,
                "seed": STAGE_RIG_SEED,
            }
        )
    )
    return SphereInputs(directory, config, None, size)


# ------------------------------------------------------------- capture-seq


@dataclass(frozen=True)
class CaptureInputs:
    directory: Path
    conditions: tuple[str, ...]
    normals: tuple[np.ndarray, ...]  # per-frame truth, (H, W, 3)
    displacement: tuple[tuple[int, int], ...]  # per-frame (dx, dy) from frame 0


CAPTURE_SHAPE = (96, 128)
CAPTURE_SCENE_SEED = 20110517  # the scene is fixed; the run seed draws noise
CAPTURE_NOISE = 0.005


def _capture_surface(pad: int):
    """Textured albedo and a smooth height field's normals on a padded grid."""
    h, w = CAPTURE_SHAPE[0] + 2 * pad, CAPTURE_SHAPE[1] + 2 * pad
    rng = np.random.default_rng(CAPTURE_SCENE_SEED)
    tex = ndimage.gaussian_filter(rng.random((h, w)), 1.5) + ndimage.gaussian_filter(
        rng.random((h, w)), 5.0
    )
    tex = 0.2 + 0.6 * (tex - tex.min()) / (tex.max() - tex.min())
    height = ndimage.gaussian_filter(rng.standard_normal((h, w)), 6.0)
    height *= 3.0 / np.abs(height).max()
    hy, hx = np.gradient(height)
    normals = np.stack([-hx, -hy, np.ones_like(hx)], axis=2)
    normals /= np.linalg.norm(normals, axis=2, keepdims=True)
    return tex, normals


def make_capture(rng: np.random.Generator, directory: Path, windows: int = 2) -> CaptureInputs:
    """A surface translating +1 px per frame along x and y, recorded under
    the minimal-set capture sequence for `windows` tracking frames.

    Frames are integer crops of one padded scene, so motion adds no
    interpolation error; 0.5 % multiplicative noise comes from the seed.
    """
    directory.mkdir(parents=True, exist_ok=True)
    seq = sequencer.generate_sequence(windows)
    conds = tuple(c.value for c in seq.frames)
    pad = len(conds) + 2
    tex, normals = _capture_surface(pad)
    (directory / "seq.csv").write_text(seq.to_csv())
    hh, ww = CAPTURE_SHAPE
    truth, motion = [], []
    for i, cond in enumerate(conds):
        crop = (slice(pad - i, pad - i + hh), slice(pad - i, pad - i + ww))
        n = normals[crop]
        r = lambert(n, tex[crop], cond)
        r = np.maximum(r * (1.0 + CAPTURE_NOISE * rng.standard_normal(r.shape)), 0.0)
        write_pfm(directory / f"frame_{i:03d}.pfm", r)
        truth.append(n)
        motion.append((i, i))
    return CaptureInputs(directory, conds, tuple(truth), tuple(motion))


# ------------------------------------------------------------- calib-1024

BALL_RADIUS = 38.1  # mm
BALL_CENTER = np.array([0.0, 0.0, 890.0])  # mm, camera at the origin
STAGE_RADIUS = 790.0  # mm
BALL_K = np.array([[2000.0, 0.0, 255.5], [0.0, 2000.0, 255.5], [0.0, 0.0, 1.0]])
BALL_SHAPE = (512, 512)
LED_COUNT = 41
SPOT_SIGMA = 3.5  # px
H_TRUE = np.array([[1.004, 0.006, 2.5], [-0.005, 0.997, -1.8], [2e-6, -3e-6, 1.0]])
CROSS_SIZE = 1024
CROSS_ALBEDO = 0.8
CROSS_SPECULAR = 0.3
CALIB_NOISE = 0.005


@dataclass(frozen=True)
class CalibInputs:
    directory: Path
    light_dirs: np.ndarray  # (41, 3) true highlight-to-LED directions
    h_true: np.ndarray
    corners: np.ndarray  # (n, 2) reference-camera corners, noise-free


def led_directions(count: int = LED_COUNT) -> np.ndarray:
    """Fibonacci cap of LED directions within 60 deg of the ball-to-camera
    axis (-z)."""
    i = np.arange(count) + 0.5
    cos_t = 1.0 - (1.0 - np.cos(np.radians(60.0))) * i / count
    sin_t = np.sqrt(1.0 - cos_t**2)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    return np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), -cos_t], axis=1)


def highlight_point(light, center=BALL_CENTER, radius=BALL_RADIUS, origin=np.zeros(3)):
    """Mirror-ball point whose normal bisects the directions to the camera
    and to the light (fixed-point iteration; the ball is small against both
    distances, so it contracts quickly)."""
    p = center + radius * (origin - center) / np.linalg.norm(origin - center)
    for _ in range(100):
        to_cam = (origin - p) / np.linalg.norm(origin - p)
        to_light = (light - p) / np.linalg.norm(light - p)
        n = to_cam + to_light
        p_next = center + radius * n / np.linalg.norm(n)
        if np.linalg.norm(p_next - p) < 1e-12:
            return p_next
        p = p_next
    return p


def project(points, k=BALL_K) -> np.ndarray:
    q = np.atleast_2d(points) @ k.T
    return q[:, :2] / q[:, 2:3]


def limb_points(count: int = 72, center=BALL_CENTER, radius=BALL_RADIUS, k=BALL_K):
    """Image of the ball's occluding contour (a circle on the sphere)."""
    d = np.linalg.norm(center)
    axis = center / d
    ring_center = center * (1.0 - radius**2 / d**2)
    ring_radius = radius * np.sqrt(d**2 - radius**2) / d
    e1 = np.cross(axis, [0.0, 1.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    t = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    ring = ring_center + ring_radius * (np.cos(t)[:, None] * e1 + np.sin(t)[:, None] * e2)
    return project(ring, k)


def apply_homography(h, points) -> np.ndarray:
    q = np.c_[points, np.ones(len(points))] @ np.asarray(h).T
    return q[:, :2] / q[:, 2:3]


def cross_sphere(xs, ys):
    """Normals and mask of the 1024-px cross-polarized sphere at positions
    in the reference camera."""
    c = (CROSS_SIZE - 1) / 2.0
    return sphere_normals(xs, ys, c, c, 0.4 * CROSS_SIZE)


def make_calib(rng: np.random.Generator, directory: Path) -> CalibInputs:
    """One calibration session.

    - 41 mirror-ball PFMs (512 px): a Gaussian highlight at each LED's
      projected mirror point over a dim ball, plus sensor noise.
    - the ball's limb points and the camera matrix K.
    - noisy corner pairs (0.3 px) mapped by a known homography H.
    - 7 cross-polarized 1024-px pairs: i1 = D/2 in the reference camera;
      i0 = D/2 + S seen by the second camera, i0(q) = I0(H q).
    """
    directory.mkdir(parents=True, exist_ok=True)
    balls = directory / "ball"
    balls.mkdir(exist_ok=True)
    (directory / "k.json").write_text(json.dumps(BALL_K.tolist()))
    limb = limb_points() + rng.normal(0.0, 0.02, (72, 2))
    _write_csv(directory / "limb.csv", "x,y", limb)

    dirs = led_directions()
    yy, xx = np.mgrid[0 : BALL_SHAPE[0], 0 : BALL_SHAPE[1]].astype(float)
    ball_px = project(BALL_CENTER[None])[0]
    ball_r = BALL_K[0, 0] * BALL_RADIUS / BALL_CENTER[2]
    on_ball = (xx - ball_px[0]) ** 2 + (yy - ball_px[1]) ** 2 <= ball_r**2
    truth = np.empty_like(dirs)
    for i, d in enumerate(dirs):
        light = BALL_CENTER + STAGE_RADIUS * d
        p = highlight_point(light)
        truth[i] = (light - p) / np.linalg.norm(light - p)
        hx, hy = project(p[None])[0]
        img = 0.05 * on_ball + np.exp(-((xx - hx) ** 2 + (yy - hy) ** 2) / (2 * SPOT_SIGMA**2))
        img += CALIB_NOISE * rng.standard_normal(img.shape)
        write_pfm(balls / f"led_{i:03d}.pfm", np.maximum(img, 0.0))

    gx, gy = np.meshgrid(np.linspace(64, 960, 13), np.linspace(64, 960, 9))
    corners = np.stack([gx.ravel(), gy.ravel()], axis=1)
    src = apply_homography(np.linalg.inv(H_TRUE), corners)  # second camera
    pairs = np.c_[src + rng.normal(0, 0.3, src.shape), corners + rng.normal(0, 0.3, src.shape)]
    _write_csv(directory / "pairs.csv", "x0,y0,x1,y1", pairs)

    yy, xx = np.mgrid[0:CROSS_SIZE, 0:CROSS_SIZE].astype(float)
    mapped = apply_homography(H_TRUE, np.stack([xx.ravel(), yy.ravel()], axis=1))
    n_ref, inside_ref = cross_sphere(xx, yy)
    n_map, inside_map = cross_sphere(mapped[:, 0].reshape(xx.shape), mapped[:, 1].reshape(xx.shape))
    for cond in CONDITIONS:
        i1 = np.where(inside_ref, lambert(n_ref, CROSS_ALBEDO, cond) / 2.0, np.nan)
        i0 = np.where(
            inside_map,
            lambert(n_map, CROSS_ALBEDO, cond) / 2.0 + mirror_specular(n_map, CROSS_SPECULAR, cond),
            np.nan,
        )
        for name, img in (("i0", i0), ("i1", i1)):
            noisy = np.maximum(img * (1.0 + CALIB_NOISE * rng.standard_normal(img.shape)), 0.0)
            write_pfm(directory / f"{name}_{cond}.pfm", noisy)
    return CalibInputs(directory, truth, H_TRUE.copy(), corners)


def _write_csv(path: Path, header: str, rows: np.ndarray) -> None:
    lines = [header] + [",".join(f"{v:.6f}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
