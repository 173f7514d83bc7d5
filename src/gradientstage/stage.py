"""Synthetic light stage: LED constellations, gradient intensities, ILTs,
and analytic/discretized Lambertian and mirror-specular renderers."""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Condition, GradientImageSet, Image, NormalMap, _block_rows, unit

_ICO_SUBDIV_COUNTS = {0: 12, 1: 42, 2: 162, 3: 642}

# brightness levels of a stage's intensity lookup table (ILT) by default
ILT_LEVELS = 4096


def _icosahedron():
    p = (1.0 + np.sqrt(5.0)) / 2.0
    verts = []
    for a in (-1.0, 1.0):
        for b in (-p, p):
            verts += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    v = np.asarray(verts)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    d2 = ((v[:, None, :] - v[None, :, :]) ** 2).sum(-1)
    edge_len = d2[d2 > 1e-9].min()
    is_edge = np.isclose(d2, edge_len)
    faces = []
    n = len(v)
    for i in range(n):
        for j in range(i + 1, n):
            if not is_edge[i, j]:
                continue
            for k in range(j + 1, n):
                if is_edge[i, k] and is_edge[j, k]:
                    faces.append((i, j, k))
    return v, faces


def _subdivide(verts, faces):
    verts = [tuple(v) for v in verts]
    index = {}

    def key(v):
        return tuple(np.round(v, 12))

    for i, v in enumerate(verts):
        index[key(np.asarray(v))] = i

    def midpoint(a, b):
        m = np.asarray(verts[a]) + np.asarray(verts[b])
        m /= np.linalg.norm(m)
        k = key(m)
        if k not in index:
            index[k] = len(verts)
            verts.append(tuple(m))
        return index[k]

    out = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
    return np.asarray(verts), out


def generate_icosphere_directions(subdivisions: int) -> np.ndarray:
    """Unit vertex directions of an icosahedron subdivided 0..3 times.

    Counts: 12, 42, 162, 642.
    """
    if subdivisions not in _ICO_SUBDIV_COUNTS:
        raise ValueError(f"unsupported subdivision count: {subdivisions}")
    v, f = _icosahedron()
    for _ in range(subdivisions):
        v, f = _subdivide(v, f)
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    assert len(v) == _ICO_SUBDIV_COUNTS[subdivisions]
    return v


def select_hemisphere(directions: np.ndarray, axis, count: int) -> np.ndarray:
    """The `count` directions with the largest dot product against `axis`.

    Ties broken by input order. Models a front-facing partial stage.
    """
    directions = np.asarray(directions, dtype=float)
    ax = unit(axis)
    dots = directions @ ax
    if count > int(np.sum(dots > 0)):
        raise ValueError(
            f"count {count} exceeds the {int(np.sum(dots > 0))} "
            "directions on the positive side of the axis"
        )
    order = np.argsort(-dots, kind="stable")
    return directions[np.sort(order[:count])]


def stage_directions(led_count: int) -> np.ndarray:
    """LED directions of a supported stage: the 12/42/162/642-vertex
    icospheres, or the 41 front-facing (+z) directions of the 162."""
    subdivisions = {count: sub for sub, count in _ICO_SUBDIV_COUNTS.items()}
    if led_count in subdivisions:
        return generate_icosphere_directions(subdivisions[led_count])
    if led_count == 41:
        return select_hemisphere(generate_icosphere_directions(2), (0, 0, 1), 41)
    raise ValueError(
        f"unsupported LED count {led_count}; use 12, 42, 162, 642 (icosphere) or 41 (hemisphere)"
    )


@dataclass(frozen=True)
class LedRecord:
    id: int
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "direction", unit(self.direction))


@dataclass(frozen=True)
class LightStage:
    leds: tuple[LedRecord, ...]
    quantization_levels: int = ILT_LEVELS

    def __post_init__(self):
        leds = tuple(self.leds)
        if not leds:
            raise ValueError("stage needs at least one LED")
        seen = set()
        for led in leds:
            if led.id in seen:
                raise ValueError(f"repeated LED id {led.id}")
            seen.add(led.id)
        if self.quantization_levels < 2:
            raise ValueError("need at least 2 quantization levels")
        object.__setattr__(self, "leds", leds)

    @classmethod
    def from_directions(cls, directions, quantization_levels=ILT_LEVELS):
        leds = tuple(
            LedRecord(i, d) for i, d in enumerate(np.asarray(directions, dtype=float))
        )
        return cls(leds, quantization_levels)

    @property
    def directions(self) -> np.ndarray:
        return np.stack([led.direction for led in self.leds])

    def to_json(self) -> str:
        """JSON list of {"id", "lx", "ly", "lz"} records, one per LED in order."""
        recs = [
            {"id": led.id, "lx": led.direction[0], "ly": led.direction[1], "lz": led.direction[2]}
            for led in self.leds
        ]
        return json.dumps(recs, indent=1)

    @classmethod
    def from_json(cls, text: str):
        recs = json.loads(text)
        return cls(tuple(LedRecord(r["id"], (r["lx"], r["ly"], r["lz"])) for r in recs))


def gradient_intensity(directions, condition):
    """Normalized LED intensity in [0,1] for one illumination condition, at
    one unit direction (3,) or at each of an array of them (..., 3).

    Gradients rescale the signed coordinate, (g+1)/2; complements flip the
    axis first; the constant condition drives every LED at full power. The
    directions are taken as given (a LightStage stores them unit length).
    """
    condition = Condition(condition)
    d = np.asarray(directions, dtype=float)
    if condition is Condition.C:
        return np.ones(d.shape[:-1])
    g = d[..., condition.axis]
    if condition.is_complement:
        g = -g
    return (g + 1.0) / 2.0


def _ilt_levels(p: np.ndarray, levels: int) -> np.ndarray:
    """ILT levels 0..levels-1 for intensities p in [0,1], rounding half up."""
    return np.floor(p * (levels - 1) + 0.5)


@dataclass(frozen=True)
class SceneSpec:
    """Ground truth for the Lambertian renderers.

    distortion packs the per-pixel 6-vector (dx, dy, dz, dxbar, dybar,
    dzbar) of symmetric and asymmetric lobe-deformation coefficients.
    """

    true_normals: NormalMap
    albedo: np.ndarray
    occlusion: np.ndarray
    distortion: np.ndarray

    def __post_init__(self):
        shape = self.true_normals.shape
        m = self.true_normals.mask
        # private copies, kept as read-only broadcast views so that a
        # constant stays one value; the checks run on the copies
        albedo = np.array(self.albedo, dtype=float)
        occl = np.array(self.occlusion, dtype=float)
        dist = np.array(self.distortion, dtype=float)
        object.__setattr__(self, "albedo", np.broadcast_to(albedo, shape))
        object.__setattr__(self, "occlusion", np.broadcast_to(occl, shape))
        object.__setattr__(self, "distortion", np.broadcast_to(dist, shape + (6,)))
        # written as "not all within", so NaN fails too
        if not _holds_at(m, (albedo >= 0) & (albedo <= 1)):
            raise ValueError("albedo must lie in [0, 1]")
        if not _holds_at(m, (occl >= 0) & (occl <= 1)):
            raise ValueError("occlusion term must lie in [0, 1]")
        finite = np.isfinite(dist)
        if not _holds_at(m, finite.all(axis=-1) if dist.ndim else finite):
            raise ValueError("distortion must be finite")


def _holds_at(mask: np.ndarray, flags: np.ndarray) -> bool:
    """Whether flags that broadcast to the grid hold at every valid pixel."""
    return bool(np.broadcast_to(flags, mask.shape)[mask].all())


@dataclass(frozen=True)
class SpecularSceneSpec:
    """Mirror-lobe scene: per-pixel unit reflection vectors and lobe scale."""

    reflection_vectors: NormalMap
    lobe_strength: np.ndarray

    def __post_init__(self):
        s = np.broadcast_to(
            np.asarray(self.lobe_strength, dtype=float), self.reflection_vectors.shape
        ).copy()
        object.__setattr__(self, "lobe_strength", s)


def render_lambert_analytic(scene: SceneSpec, condition) -> Image:
    """Closed-form radiance under continuous spherical illumination.

    gradient a:    (pi rho V / 2) (d_a + n_a/3 + 1/2)
    complement a:  (pi rho V / 2) (d_a + d_abar - n_a/3 + 1/2)
    constant:      (pi rho V / 2)
    """
    condition = Condition(condition)
    k = np.pi * scene.albedo * scene.occlusion / 2.0
    mask = scene.true_normals.mask
    if condition is Condition.C:
        return Image(k, mask)
    axis = condition.axis
    n_a = scene.true_normals.normals[:, :, axis]
    d_a = scene.distortion[:, :, axis]
    if condition.is_complement:
        term = d_a + scene.distortion[:, :, axis + 3] - n_a / 3.0 + 0.5
    else:
        term = d_a + n_a / 3.0 + 0.5
    r = k * term
    return Image(r, mask & (r >= 0))


def render_lambert_discrete(
    scene: SceneSpec,
    stage: LightStage,
    condition,
    quantize: bool = False,
    led_gain: np.ndarray | None = None,
) -> Image:
    """Equal-weight quadrature over the LED constellation.

    r = (4 pi / N) * sum_i P_i * (rho/2) * max(0, n . w_i); the rho/2
    factor is the Lambert response in the same radiometric scale as the
    analytic renderer, so the sum converges to it as N grows.

    led_gain: optional per-LED multiplicative intensity error, shape (N,);
    a zero gain switches an LED off for every pixel.

    The valid pixels are summed in blocks of core._CHUNK_BYTES of cosines,
    so memory does not grow with N beyond one block; invalid pixels are 0.
    """
    dirs = stage.directions
    p = gradient_intensity(dirs, condition)
    if quantize:
        levels = stage.quantization_levels
        p = _ilt_levels(p, levels) / (levels - 1)
    if led_gain is not None:
        p = p * np.asarray(led_gain, dtype=float)
    nm = scene.true_normals
    n = len(dirs)
    normals = nm.normals.reshape(-1, 3)
    valid = np.flatnonzero(nm.mask)
    total = np.zeros(len(normals))
    block = _block_rows(1, n)  # one pixel a row
    for i in range(0, len(valid), block):
        pixels = valid[i : i + block]
        cos = normals.take(pixels, axis=0) @ dirs.T
        np.maximum(cos, 0.0, out=cos)
        total[pixels] = cos @ p
    r = (4.0 * np.pi / n) * (scene.albedo / 2.0) * total.reshape(nm.shape)
    return Image(r, nm.mask & (r >= 0))


def render_specular_analytic(scene: SpecularSceneSpec, condition) -> Image:
    """Delta-lobe mirror radiance: the lobe strength s times the drive of
    the LED in the reflection direction u; (s/2)(u_a + 1) for a gradient."""
    u = scene.reflection_vectors
    r = scene.lobe_strength * gradient_intensity(u.normals, condition)
    return Image(np.maximum(r, 0.0), u.mask)


def render_set(scene: SceneSpec, conditions=None) -> GradientImageSet:
    """Analytic renders of several conditions (default: all seven)."""
    if conditions is None:
        conditions = list(Condition)
    return GradientImageSet({Condition(c): render_lambert_analytic(scene, c) for c in conditions})


def make_cylinder_scene(width: int, height: int, radius_px: float, albedo=1.0) -> SceneSpec:
    """Vertical cylinder with analytically exact normals (n_z >= 0)."""
    if not 0 < 2 * radius_px <= width:
        raise ValueError("cylinder radius must be positive and fit in the image")
    x = np.arange(width) - (width - 1) / 2.0
    nx = np.tile(x / radius_px, (height, 1))
    inside = np.abs(nx) <= 1.0
    nz = np.sqrt(np.maximum(1.0 - nx**2, 0.0))
    nm = NormalMap(np.stack([nx, np.zeros_like(nx), nz], axis=2), np.ones_like(nx), inside)
    return SceneSpec(nm, albedo, 1.0, np.zeros(6))


def make_sphere_scene(width: int, height: int, radius_px: float, albedo=1.0) -> SceneSpec:
    """Orthographic sphere with analytically exact normals."""
    if not 0 < 2 * radius_px <= min(width, height):
        raise ValueError("sphere radius must be positive and fit in the image")
    y, x = np.mgrid[0:height, 0:width].astype(float)
    nx = (x - (width - 1) / 2.0) / radius_px
    ny = (y - (height - 1) / 2.0) / radius_px
    r2 = nx**2 + ny**2
    inside = r2 <= 1.0
    nz = np.sqrt(np.maximum(1.0 - r2, 0.0))
    nm = NormalMap(np.stack([nx, ny, nz], axis=2), np.ones_like(nx), inside)
    return SceneSpec(nm, albedo, 1.0, np.zeros(6))
