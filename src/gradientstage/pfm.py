"""File formats: PFM float images, 8-bit PNG export, CSV tables.

PFM files are written little-endian (scale -1.0), rows bottom-to-top.
Invalid pixels are stored as NaN and recovered as invalid on read.
"""
from __future__ import annotations

import math
import os
import struct
import zlib

import numpy as np

from .core import Image, NormalMap, _filled


def _read_token(f) -> bytes:
    tok = b""
    while True:
        c = f.read(1)
        if not c:
            raise ValueError("unexpected end of PFM header")
        if c.isspace():
            if tok:
                return tok
            continue
        tok += c


def read_pfm_array(path) -> np.ndarray:
    """Read a PFM file into an (H, W) or (H, W, 3) float array (top-down rows)."""
    with open(path, "rb") as f:
        ident = _read_token(f).decode("ascii")
        if ident == "PF":
            channels = 3
        elif ident == "Pf":
            channels = 1
        else:
            raise ValueError(f"not a PFM file: identifier {ident!r}")
        width = int(_read_token(f))
        height = int(_read_token(f))
        scale = float(_read_token(f))
        endian = "<" if scale < 0 else ">"
        if width < 1 or height < 1:
            raise ValueError(f"PFM size {width}x{height} is not positive")
        # nan or inf would invalidate every pixel, 0 would make them valid zeros
        if not (math.isfinite(scale) and scale != 0):
            raise ValueError(f"PFM scale {scale} is not finite and non-zero")
        count = width * height * channels
        if count * 4 > os.fstat(f.fileno()).st_size - f.tell():
            raise ValueError(f"truncated PFM payload: {width}x{height}x{channels} floats claimed")
        data = np.frombuffer(f.read(count * 4), dtype=endian + "f4", count=count)
    arr = data.reshape(height, width, channels).astype(float)
    arr = np.flipud(arr)
    if abs(scale) != 1.0:
        arr = arr * abs(scale)
    return arr[:, :, 0] if channels == 1 else arr


def write_pfm_array(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=np.float32)
    if arr.ndim == 2:
        ident, payload = b"Pf", arr[:, :, None]
    elif arr.ndim == 3 and arr.shape[2] == 3:
        ident, payload = b"PF", arr
    else:
        raise ValueError("PFM supports HxW or HxWx3 arrays")
    h, w = payload.shape[:2]
    with open(path, "wb") as f:
        f.write(ident + b"\n")
        f.write(f"{w} {h}\n".encode("ascii"))
        f.write(b"-1.0\n")
        f.write(np.flipud(payload).astype("<f4").tobytes())


def write_masked(path, data: np.ndarray, mask: np.ndarray) -> None:
    """HxW or HxWx3 PFM with NaN at every invalid pixel."""
    write_pfm_array(path, _filled(data, mask, np.nan))


def write_image(path, img: Image) -> None:
    """One-channel PFM; invalid pixels stored as NaN."""
    write_masked(path, img.samples, img.mask)


def read_image(path) -> Image:
    """Inverse of write_image: non-finite or negative samples become invalid."""
    arr = read_pfm_array(path)
    if arr.ndim != 2:
        raise ValueError(f"{path}: expected a 1-channel PFM radiance image")
    return Image(arr, np.isfinite(arr) & (arr >= 0))


def write_normal_map(path, nm: NormalMap) -> None:
    """3-channel PFM of normal components; invalid pixels stored as NaN."""
    write_masked(path, nm.normals, nm.mask)


def read_normal_map(path) -> NormalMap:
    """Inverse of write_normal_map: a pixel with a NaN or infinite component
    has a non-finite length, which from_components marks invalid."""
    arr = read_pfm_array(path)
    if arr.ndim != 3:
        raise ValueError(f"{path}: expected a 3-channel PFM normal map")
    return NormalMap.from_components(arr)


GAMMA = 2.2


def to_8bit(samples: np.ndarray) -> np.ndarray:
    """Gamma-2.2 encode linear [0,1] values to uint8. Export boundary only."""
    v = np.clip(np.asarray(samples, dtype=float), 0.0, 1.0)
    return np.round(255.0 * np.power(v, 1.0 / GAMMA)).astype(np.uint8)


def write_png(path, samples: np.ndarray) -> None:
    """Minimal 8-bit grayscale PNG writer (no external imaging deps)."""
    b = to_8bit(samples)
    h, w = b.shape
    raw = b"".join(b"\x00" + b[r].tobytes() for r in range(h))

    def chunk(tag: bytes, payload: bytes) -> bytes:
        data = tag + payload
        return struct.pack(">I", len(payload)) + data + struct.pack(">I", zlib.crc32(data))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    with open(path, "wb") as f:
        f.write(b"\x89PNG\r\n\x1a\n")
        f.write(chunk(b"IHDR", ihdr))
        f.write(chunk(b"IDAT", zlib.compress(raw, 9)))
        f.write(chunk(b"IEND", b""))


def write_csv(path, header, rows) -> None:
    """ASCII table: the header's column names, then one line per row."""
    with open(path, "w", encoding="ascii") as f:
        for row in [header, *rows]:
            f.write(",".join(map(str, row)) + "\n")


def write_flow(path, flow) -> None:
    """Flow stored as 3-channel PFM (u, v, validity); see alignment.FlowField."""
    data = np.concatenate(
        [flow.vectors, flow.mask.astype(float)[..., None]], axis=2
    )
    write_pfm_array(path, data)

