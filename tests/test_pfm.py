import struct
import zlib

import numpy as np
import pytest

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


@pytest.mark.parametrize("scale", [b"nan", b"inf", b"0", b"-inf", b"-0"])
def test_rejects_non_finite_or_zero_scale(tmp_path, scale):
    # nan or inf would invalidate every pixel, 0 would turn them into valid zeros
    path = tmp_path / "bad.pfm"
    path.write_bytes(b"Pf\n2 2\n" + scale + b"\n" + np.ones(4, "<f4").tobytes())
    with pytest.raises(ValueError, match="scale"):
        pfm.read_pfm_array(path)
