"""File formats: PFM float images, 8-bit PNG export, CSV tables.

PFM files are written little-endian (scale -1.0), rows bottom-to-top.
Invalid pixels are stored as NaN and recovered as invalid on read.
"""
from __future__ import annotations

import math
import os
import re
import struct
import zlib

import numpy as np

from .core import Image, NormalMap, _fill, _image


# a valid header (identifier, size and scale) is a few dozen bytes
_HEADER_BYTES = 256
# optional whitespace, a token, and the whitespace byte that ends it
_TOKEN = re.compile(rb"\s*(\S*)(\s?)")


def _header_tokens(f):
    """The whitespace-delimited header tokens of f, opened at its start,
    from one read of at most _HEADER_BYTES. Before it yields a token, f is
    moved past the token's first trailing whitespace byte: after the
    scale, the payload starts there. A valid token is a few bytes."""
    for match in _TOKEN.finditer(f.read(_HEADER_BYTES)):
        token, space = match.groups()
        if len(token) > 64:
            raise ValueError("PFM header token longer than 64 bytes")
        if not space:
            raise ValueError(f"PFM header incomplete in its first {_HEADER_BYTES} bytes")
        f.seek(match.end())
        yield token


def read_pfm_array(path) -> np.ndarray:
    """Read a PFM file into an (H, W) or (H, W, 3) float array (top-down rows)."""
    with open(path, "rb") as f:
        tokens = _header_tokens(f)
        ident = next(tokens).decode("ascii")
        if ident == "PF":
            channels = 3
        elif ident == "Pf":
            channels = 1
        else:
            raise ValueError(f"not a PFM file: identifier {ident!r}")
        width = int(next(tokens))
        height = int(next(tokens))
        scale = float(next(tokens))
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
    shape = (height, width) if channels == 1 else (height, width, channels)
    # cast and flip in one pass, into a C-contiguous array that is scaled in place
    arr = np.empty(shape)
    np.copyto(arr, data.reshape(shape)[::-1])
    if abs(scale) != 1.0:
        arr *= abs(scale)
    return arr


def write_pfm_array(path, arr: np.ndarray) -> None:
    """HxW or HxWx3 float32 PFM, rows bottom-to-top. An arr that is the
    row-reversed view of a C-contiguous little-endian float32 buffer is
    written from that buffer without a copy."""
    arr = np.asarray(arr)
    if arr.ndim == 2:
        ident = b"Pf"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        ident = b"PF"
    else:
        raise ValueError("PFM supports HxW or HxWx3 arrays")
    h, w = arr.shape[:2]
    payload = np.ascontiguousarray(arr[::-1], dtype="<f4")
    with open(path, "wb") as f:
        f.write(ident + b"\n")
        f.write(f"{w} {h}\n".encode("ascii"))
        f.write(b"-1.0\n")
        f.write(payload)


def write_masked(path, data: np.ndarray, mask: np.ndarray) -> None:
    """HxW or HxWx3 PFM with NaN at every invalid pixel. A finite value at
    a valid pixel beyond float32's range, which would read back as an
    invalid pixel, is a ValueError raised before the file is opened."""
    # cast, flip and NaN-fill once, into the buffer that write_pfm_array writes
    buf = np.empty(data.shape, "<f4")
    overflow = []
    with np.errstate(over="call", call=lambda *_: overflow.append(True)):
        np.copyto(buf, data[::-1], casting="same_kind")
    _fill(buf, ~mask[::-1], np.nan)  # over the invalid pixels' overflows too
    if overflow and (np.isinf(buf) & np.isfinite(data[::-1])).any():
        raise ValueError(f"{path}: a valid value lies beyond the float32 range of a PFM")
    write_pfm_array(path, buf[::-1])


def write_image(path, img: Image) -> None:
    """One-channel PFM; invalid pixels stored as NaN."""
    write_masked(path, img.samples, img.mask)


def read_image(path) -> Image:
    """Inverse of write_image: non-finite or negative samples become invalid."""
    arr = read_pfm_array(path)
    if arr.ndim != 2:
        raise ValueError(f"{path}: expected a 1-channel PFM radiance image")
    mask = np.isfinite(arr)
    mask &= arr >= 0
    return _image(arr, mask)


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
    """Gamma-2.2 encode linear [0,1] values to uint8, clipping values outside
    [0, 1]; a NaN sample raises ValueError. Export boundary only."""
    v = np.clip(np.asarray(samples, dtype=float), 0.0, 1.0)
    # clip passes NaN through, and NaN has no uint8 value
    if np.isnan(v).any():
        raise ValueError("cannot encode NaN samples in 8 bits")
    return np.round(255.0 * np.power(v, 1.0 / GAMMA)).astype(np.uint8)


def write_png(path, samples: np.ndarray) -> None:
    """Minimal 8-bit grayscale PNG writer (no external imaging deps)."""
    b = to_8bit(samples)
    h, w = b.shape
    rows = np.zeros((h, w + 1), np.uint8)  # each row behind filter type 0
    rows[:, 1:] = b
    # run-length matches only: the default search deflates the stimulus
    # images three times slower for 5 % fewer bytes
    deflate = zlib.compressobj(strategy=zlib.Z_RLE)

    def chunk(tag: bytes, payload: bytes) -> bytes:
        data = tag + payload
        return struct.pack(">I", len(payload)) + data + struct.pack(">I", zlib.crc32(data))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    with open(path, "wb") as f:
        f.write(b"\x89PNG\r\n\x1a\n")
        f.write(chunk(b"IHDR", ihdr))
        f.write(chunk(b"IDAT", deflate.compress(rows) + deflate.flush()))
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

