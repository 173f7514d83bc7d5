"""File formats: PFM float images, 8-bit PNG export, CSV tables.

PFM files are written little-endian (scale -1.0), rows bottom-to-top.
Invalid pixels are stored as NaN and recovered as invalid on read.
"""
from __future__ import annotations

import contextlib
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


def _header(shape) -> bytes:
    """The header of an HxW or HxWx3 little-endian float32 PFM."""
    if len(shape) == 2:
        ident = b"Pf"
    elif len(shape) == 3 and shape[2] == 3:
        ident = b"PF"
    else:
        raise ValueError("PFM supports HxW or HxWx3 arrays")
    h, w = shape[:2]
    return ident + b"\n" + f"{w} {h}\n".encode("ascii") + b"-1.0\n"


def write_pfm_array(path, arr: np.ndarray) -> None:
    """HxW or HxWx3 float32 PFM, rows bottom-to-top. An arr that is the
    row-reversed view of a C-contiguous little-endian float32 buffer is
    written from that buffer without a copy."""
    arr = np.asarray(arr)
    header = _header(arr.shape)
    payload = np.ascontiguousarray(arr[::-1], dtype="<f4")
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)


@contextlib.contextmanager
def masked_writer(path, shape):
    """write(top, data, mask), which stores the block of rows top, top + 1,
    ... of an HxW or HxWx3 field of this shape, NaN at its invalid pixels,
    at its place in the PFM at path (rows are stored bottom-to-top, so a
    block is one contiguous byte range).

    Each block is cast, flipped and NaN-filled into one float32 buffer,
    reused by the next block. A finite value at a valid pixel beyond
    float32's range, which would read back as an invalid pixel, is a
    ValueError raised before its block is written; the file is opened
    once the first block passes, so a one-block write raises before the
    file exists, and a later block leaves it incomplete.
    """
    header = _header(shape)
    h, row = shape[0], shape[1:]
    row_bytes = 4 * math.prod(row)
    buf = np.empty((0, *row), "<f4")
    with contextlib.ExitStack() as stack:
        f = None

        def write(top, data, mask):
            nonlocal buf, f
            n = len(data)
            if len(buf) < n:
                buf = np.empty((n, *row), "<f4")
            block = buf[:n]
            overflow = []
            with np.errstate(over="call", call=lambda *_: overflow.append(True)):
                np.copyto(block, data[::-1], casting="same_kind")
            _fill(block, ~mask[::-1], np.nan)  # over the invalid pixels' overflows too
            if overflow and (np.isinf(block) & np.isfinite(data[::-1])).any():
                raise ValueError(f"{path}: a valid value lies beyond the float32 range of a PFM")
            if f is None:
                f = stack.enter_context(open(path, "wb"))
                f.write(header)
            f.seek(len(header) + (h - top - n) * row_bytes)
            f.write(block)

        yield write


def write_masked(path, data: np.ndarray, mask: np.ndarray) -> None:
    """HxW or HxWx3 PFM with NaN at every invalid pixel: masked_writer's
    one block, so a finite value at a valid pixel beyond float32's range is
    a ValueError raised before the file is opened."""
    with masked_writer(path, data.shape) as write:
        write(0, data, mask)


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

