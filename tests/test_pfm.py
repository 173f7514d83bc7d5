import io
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gradientstage import pfm
from gradientstage.alignment import FlowField
from gradientstage.core import Image, NormalMap


def test_image_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.random((13, 17)).astype(np.float32).astype(float)
    mask = rng.random((13, 17)) > 0.2
    img = Image(np.where(mask, vals, 0.0), mask)
    path = tmp_path / "img.pfm"
    pfm.write_image(path, img)
    back = pfm.read_image(path)
    np.testing.assert_array_equal(back.mask, mask)
    np.testing.assert_array_equal(back.samples[mask], img.samples[mask])


def test_pfm_header_is_little_endian_scale(tmp_path):
    path = tmp_path / "x.pfm"
    pfm.write_image(path, Image(np.ones((2, 3)), None))
    header = path.read_bytes()[:20]
    assert header.startswith(b"Pf\n3 2\n-1.0\n")


def test_normal_map_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    nm = NormalMap.from_components(rng.normal(size=(7, 5, 3)))
    path = tmp_path / "n.pfm"
    pfm.write_normal_map(path, nm)
    back = pfm.read_normal_map(path)
    np.testing.assert_array_equal(back.mask, nm.mask)
    np.testing.assert_allclose(back.normals[nm.mask], nm.normals[nm.mask], atol=2e-7)


def test_flow_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    vec = rng.normal(size=(4, 6, 2))
    mask = rng.random((4, 6)) > 0.5
    flow = FlowField(np.where(mask[..., None], vec, 0.0), mask)
    path = tmp_path / "f.pfm"
    pfm.write_flow(path, flow)
    back = pfm.read_pfm_array(path)
    np.testing.assert_array_equal(back[:, :, 2], mask)
    np.testing.assert_allclose(back[:, :, :2], flow.vectors, atol=2e-7)


def test_histogram_csv(tmp_path):
    path = tmp_path / "h.csv"
    pfm.write_csv(path, ("bin_center", "count"), [(0.5, 3), (1.5, 7)])
    assert path.read_text() == "bin_center,count\n0.5,3\n1.5,7\n"


def test_png_signature(tmp_path):
    png = tmp_path / "a.png"
    pfm.write_png(png, np.linspace(0, 1, 12).reshape(3, 4))
    assert png.read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"


def test_png_pixels_round_trip(tmp_path):
    png = tmp_path / "a.png"
    samples = np.random.default_rng(3).random((5, 7))
    pfm.write_png(png, samples)
    data, pos, idat = png.read_bytes(), 8, b""
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        if data[pos + 4 : pos + 8] == b"IDAT":
            idat += data[pos + 8 : pos + 8 + length]
        pos += 12 + length
    rows = np.frombuffer(zlib.decompress(idat), np.uint8).reshape(5, 1 + 7)
    assert not rows[:, 0].any()  # filter type 0 on every row
    np.testing.assert_array_equal(rows[:, 1:], pfm.to_8bit(samples))


def test_gamma_applied_at_export_boundary():
    # linear 0.5 encodes to round(255 * 0.5^(1/2.2)) = 186
    assert pfm.to_8bit(np.array([[0.5]]))[0, 0] == 186


def test_nan_sample_is_rejected_not_exported_black(tmp_path):
    with pytest.raises(ValueError, match="NaN"):
        pfm.to_8bit(np.array([[np.nan, 0.5, np.inf, -np.inf]]))
    png = tmp_path / "nan.png"
    with pytest.raises(ValueError, match="NaN"):
        pfm.write_png(png, np.array([[0.5, np.nan]]))
    assert not png.exists()
    # infinities clip to the ends of the range
    assert pfm.to_8bit(np.array([[0.5, np.inf, -np.inf]])).tolist() == [[186, 255, 0]]


def test_rejects_non_pfm(tmp_path):
    path = tmp_path / "bad.pfm"
    path.write_bytes(b"P5\n2 2\n255\n....")
    with pytest.raises(ValueError):
        pfm.read_pfm_array(path)


@pytest.mark.parametrize(
    "header",
    [b"Pf\n0 5\n-1.0\n", b"Pf\n5 0\n-1.0\n", b"PF\n-2 3\n-1.0\n",
     b"PF\n3000000000 3000000000\n-1.0\n", b"Pf\n4 4\n-1.0\n"],
)
def test_rejects_bad_size_before_reading(tmp_path, header):
    # each payload is 60 bytes: short of every header's claim (4x4 needs 64)
    path = tmp_path / "bad.pfm"
    path.write_bytes(header + bytes(60))
    with pytest.raises(ValueError, match="PFM"):
        pfm.read_pfm_array(path)


@pytest.mark.parametrize("data", [b"P" * 300_000, b"Pf\n" + b"9" * 300_000], ids=["ident", "width"])
def test_rejects_a_long_header_token_at_once(tmp_path, data):
    # a token grown byte by byte to the end of such a file took seconds
    path = tmp_path / "bad.pfm"
    path.write_bytes(data)
    with pytest.raises(ValueError, match="PFM header token longer than 64 bytes"):
        pfm.read_pfm_array(path)


def test_a_long_header_is_rejected_after_one_bounded_read(tmp_path, monkeypatch):
    # read one byte per call, 4 MB of spaces took half a second to reject
    path = tmp_path / "spaces.pfm"
    path.write_bytes(b"Pf" + b" " * 4_000_000)
    limit = 256
    total = 0

    class Counting(io.BufferedReader):
        def read(self, size=-1):
            nonlocal total
            data = super().read(size)
            total += len(data)
            assert total <= limit, f"read {total} bytes of a header"
            return data

    monkeypatch.setattr(pfm, "open", lambda p, mode: Counting(io.FileIO(p)), raising=False)
    with pytest.raises(ValueError, match="PFM header incomplete in its first 256 bytes"):
        pfm.read_pfm_array(path)
    assert 0 < total <= limit


def former_read_token(f) -> bytes:
    """The former header reader, one byte per call: the next
    whitespace-delimited token, and f just past its first trailing
    whitespace byte."""
    tok = b""
    while True:
        c = f.read(1)
        if not c:
            raise ValueError("unexpected end of PFM header")
        if c.isspace():
            if tok:
                return tok
            continue
        if len(tok) == 64:
            raise ValueError("PFM header token longer than 64 bytes")
        tok += c


WHITESPACE = st.text(" \t\r\n", min_size=1, max_size=8).map(str.encode)


@given(
    st.lists(WHITESPACE, min_size=5, max_size=5),
    st.sampled_from([b"Pf", b"PF"]),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from([b"-1.0", b"1", b"-0.5", b"2e0"]),
    st.binary(max_size=8),
)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_header_parses_as_the_former_reader(tmp_path, gaps, ident, w, h, scale, junk):
    """Runs of 1-8 whitespace bytes around the tokens: the same four tokens
    and the same payload offset as the former reader, so the whitespace
    after the scale's first trailing byte is payload."""
    fields = [ident, str(w).encode(), str(h).encode(), scale]
    header = gaps[0][1:] + b"".join(tok + gap for tok, gap in zip(fields, gaps[1:]))
    count = w * h * (3 if ident == b"PF" else 1)
    data = header + np.arange(count, dtype="<f4").tobytes() + junk
    path = tmp_path / "gaps.pfm"
    path.write_bytes(data)
    with open(path, "rb") as f:
        want = [former_read_token(f) for _ in range(4)]
        offset = f.tell()
    with open(path, "rb") as f:
        tokens = pfm._header_tokens(f)
        got = [next(tokens) for _ in range(4)]
        assert (got, f.tell()) == (want, offset)
    endian = "<" if scale.startswith(b"-") else ">"
    payload = np.frombuffer(data, endian + "f4", count, offset).astype(float) * abs(float(scale))
    shape = (h, w) if ident == b"Pf" else (h, w, 3)
    assert pfm.read_pfm_array(path).tobytes() == payload.reshape(shape)[::-1].tobytes()


@pytest.mark.parametrize("scale", [b"nan", b"inf", b"0", b"-inf", b"-0"])
def test_rejects_non_finite_or_zero_scale(tmp_path, scale):
    # nan or inf would invalidate every pixel, 0 would turn them into valid zeros
    path = tmp_path / "bad.pfm"
    path.write_bytes(b"Pf\n2 2\n" + scale + b"\n" + np.ones(4, "<f4").tobytes())
    with pytest.raises(ValueError, match="scale"):
        pfm.read_pfm_array(path)


# The reader and writer as they were before each did its work in one pass:
# the references that the properties below compare with bit for bit.


def reference_read_pfm_array(path):
    ident, size, scale, payload = path.read_bytes().split(b"\n", 3)
    channels = 3 if ident == b"PF" else 1
    width, height = map(int, size.split())
    scale = float(scale)
    endian = "<" if scale < 0 else ">"
    data = np.frombuffer(payload, dtype=endian + "f4", count=width * height * channels)
    arr = data.reshape(height, width, channels).astype(float)
    arr = np.flipud(arr)
    if abs(scale) != 1.0:
        arr = arr * abs(scale)
    return arr[:, :, 0] if channels == 1 else arr


def reference_read_image(path):
    arr = reference_read_pfm_array(path)
    return Image(arr, np.isfinite(arr) & (arr >= 0))


def reference_write_pfm_array(path, arr):
    arr = np.asarray(arr, dtype=np.float32)
    ident, payload = (b"Pf", arr[:, :, None]) if arr.ndim == 2 else (b"PF", arr)
    h, w = payload.shape[:2]
    header = ident + b"\n" + f"{w} {h}\n".encode("ascii") + b"-1.0\n"
    path.write_bytes(header + np.flipud(payload).astype("<f4").tobytes())


def reference_write_masked(path, data, mask):
    reference_write_pfm_array(path, np.where(mask if data.ndim == 2 else mask[..., None], data, np.nan))


def bits(a):
    """The bytes of a as a C-contiguous array: equal iff every element is
    bitwise equal, NaN payloads and the sign of zero included."""
    return np.ascontiguousarray(a).tobytes()


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, -1.5, 3.25, 1e-40]
FRAMES = st.tuples(st.integers(1, 5), st.integers(1, 6), st.sampled_from([1, 3]))
# every example overwrites the same files, so one tmp_path serves them all
PROPERTY = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@given(
    FRAMES,
    st.sampled_from([-1.0, 1.0, -2.5, 2.5]),
    st.data(),
)
@example((1, 6, 1), 2.5, None)
@example((1, 4, 3), -1.0, None)
@PROPERTY
def test_reader_matches_the_reference_bitwise(tmp_path, frame, scale, data):
    """NaN, infinities, -0.0 and negative samples; scales of either sign
    (a positive one is big-endian) and magnitude; 1xN frames; 1 and 3
    channels."""
    h, w, channels = frame
    elements = st.sampled_from(SPECIAL) | st.floats(width=32)
    if data is None:
        values = np.resize(np.array(SPECIAL, np.float32), h * w * channels)
    else:
        values = data.draw(arrays(np.float32, h * w * channels, elements=elements))
    endian = "<" if scale < 0 else ">"
    path = tmp_path / "frame.pfm"
    header = f"{'PF' if channels == 3 else 'Pf'}\n{w} {h}\n{scale}\n".encode("ascii")
    path.write_bytes(header + values.astype(endian + "f4").tobytes())

    arr, ref = pfm.read_pfm_array(path), reference_read_pfm_array(path)
    assert arr.shape == ref.shape and arr.dtype == ref.dtype
    assert bits(arr) == bits(ref)
    if channels == 1:
        img, ref_img = pfm.read_image(path), reference_read_image(path)
        assert bits(img.samples) == bits(ref_img.samples)
        np.testing.assert_array_equal(img.mask, ref_img.mask)
        assert not (img.samples.flags.writeable or img.mask.flags.writeable)


@given(FRAMES, st.data())
@example((1, 6, 1), None)
@PROPERTY
def test_writers_match_the_reference_bitwise(tmp_path, frame, data):
    """write_masked and write_pfm_array, on float64 samples that include
    NaN, infinities, -0.0, negative values and values beyond the float32
    range, with a random mask; write_pfm_array also on float32 and on
    non-contiguous arrays."""
    h, w, channels = frame
    shape = (h, w) if channels == 1 else (h, w, channels)
    elements = st.sampled_from(SPECIAL + [1e300, -1e300]) | st.floats()
    if data is None:
        values = np.resize(np.array(SPECIAL), shape)
        mask = np.arange(h * w).reshape(h, w) % 2 == 0
    else:
        values = data.draw(arrays(np.float64, shape, elements=elements))
        mask = data.draw(arrays(bool, (h, w)))
    ours, theirs = tmp_path / "ours.pfm", tmp_path / "theirs.pfm"
    with np.errstate(over="ignore"):  # the float32 cast of values beyond its range
        pfm.write_masked(ours, values, mask)
        reference_write_masked(theirs, values, mask)
        assert ours.read_bytes() == theirs.read_bytes()
        wide = np.concatenate([values, values], axis=1)
        for arr in (values, values.astype(np.float32), wide[:, ::2], wide[::-1, 1::2]):
            pfm.write_pfm_array(ours, arr)
            reference_write_pfm_array(theirs, arr)
            assert ours.read_bytes() == theirs.read_bytes()
