"""Netpbm I/O, luma, smoothing, edge detection, and cropping."""

import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dface import raster
from dface.augment import act_on_image
from dface.cli import main
from dface.dihedral import elements, parse_element
from dface.errors import DomainError, ImageFormatError, RasterShapeError
from dface.raster import (
    _FORWARD_STEPS,
    _SOBEL_TAPS,
    _SOBEL_X,
    _SOBEL_Y,
    _STRIP_ROWS,
    RasterImage,
    Rect,
    _correlate,
    _direction_bins,
    _gaussian_taps,
    _gradients,
    _hysteresis,
    _smooth_strips,
    bounding_rect,
    canny_edges,
    crop,
    gaussian_smooth,
    pad_to_square,
    read_image,
    to_grayscale,
    write_image,
)


def gray(arr) -> RasterImage:
    return RasterImage.from_array(np.asarray(arr, dtype=np.uint8))


def test_raster_validation():
    with pytest.raises(RasterShapeError):
        RasterImage(0, 4, 1, b"")
    with pytest.raises(RasterShapeError):
        RasterImage(2, 2, 2, b"\x00" * 8)
    with pytest.raises(RasterShapeError):
        RasterImage(2, 2, 1, b"\x00" * 5)
    with pytest.raises(RasterShapeError):
        RasterImage.from_array(np.zeros((2, 2), dtype=np.float64))
    with pytest.raises(RasterShapeError):
        RasterImage.from_array(np.full((2, 2), 300, dtype=np.int64))


def test_from_array_round_trip():
    arr = np.arange(12, dtype=np.uint8).reshape(3, 4)
    img = RasterImage.from_array(arr)
    assert (img.width, img.height, img.channels) == (4, 3, 1)
    assert np.array_equal(img.array(), arr)
    rgb = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
    img3 = RasterImage.from_array(rgb)
    assert img3.channels == 3
    assert np.array_equal(img3.array(), rgb)


def test_write_read_gray_round_trip():
    img = gray(np.arange(20, dtype=np.uint8).reshape(4, 5))
    data = write_image(img)
    assert data.startswith(b"P5\n5 4\n255\n")
    back = read_image(data)
    assert back == img
    assert write_image(back) == data


def test_write_read_color_round_trip():
    rng = np.random.default_rng(0)
    img = RasterImage.from_array(rng.integers(0, 256, (3, 7, 3), dtype=np.uint8))
    data = write_image(img)
    assert data.startswith(b"P6\n7 3\n255\n")
    assert read_image(data) == img


def test_read_accepts_header_comments():
    data = b"P5 # magic\n# a full comment line\n2 2 # size\n255\n" + bytes(4)
    img = read_image(data)
    assert (img.width, img.height) == (2, 2)


def test_read_accepts_minimal_whitespace():
    data = b"P5 2 2 255 " + bytes(4)
    assert read_image(data).samples == bytes(4)


def test_read_payload_may_contain_anything():
    # payload bytes that look like whitespace or '#' must pass through
    payload = b"\n# \x23"
    img = read_image(b"P5\n2 2\n255\n" + payload)
    assert img.samples == payload


def test_read_rejects_bad_magic():
    with pytest.raises(ImageFormatError):
        read_image(b"P4\n2 2\n255\n" + bytes(4))
    with pytest.raises(ImageFormatError):
        read_image(b"")


def test_read_rejects_bad_maxval():
    with pytest.raises(ImageFormatError) as exc:
        read_image(b"P5\n2 2\n65535\n" + bytes(8))
    assert "maxval" in str(exc.value)


def test_read_rejects_truncated_payload():
    with pytest.raises(ImageFormatError) as exc:
        read_image(b"P5\n2 2\n255\n" + bytes(3))
    assert "truncated" in str(exc.value)


def test_read_rejects_trailing_bytes():
    with pytest.raises(ImageFormatError) as exc:
        read_image(b"P5\n2 2\n255\n" + bytes(5))
    assert "trailing" in str(exc.value)


def test_read_rejects_non_numeric_header():
    # header numbers are ASCII digits only: int() would read 1_0 as 10
    for header in (b"two 2 255", b"1_0 1 255", b"+8 1 255", b"2 2 2_55"):
        with pytest.raises(ImageFormatError, match="^non-numeric header field$"):
            read_image(b"P5\n" + header + b"\n" + bytes(64))


def test_read_rejects_missing_payload():
    with pytest.raises(ImageFormatError):
        read_image(b"P5\n2 2\n255")


bytes_strategy = st.binary(min_size=1, max_size=64)


@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_round_trip_property(w, h, seed):
    rng = np.random.default_rng(seed)
    img = RasterImage.from_array(rng.integers(0, 256, (h, w), dtype=np.uint8))
    assert read_image(write_image(img)) == img


def test_luma_values():
    rgb = np.array(
        [[[255, 0, 0], [0, 255, 0], [0, 0, 255], [255, 255, 255], [0, 0, 0]]],
        dtype=np.uint8,
    )
    lum = to_grayscale(RasterImage.from_array(rgb))
    assert lum.channels == 1
    # floor(0.299*255 + 0.5) etc.
    assert list(lum.samples) == [76, 150, 29, 255, 0]


def test_luma_rounding_half_up():
    # 0.299*5 = 1.495 -> 1; 0.299*9 = 2.691 -> 3
    rgb = np.array([[[5, 0, 0], [9, 0, 0]]], dtype=np.uint8)
    assert list(to_grayscale(RasterImage.from_array(rgb)).samples) == [1, 3]


def test_luma_noop_on_gray():
    img = gray([[1, 2], [3, 4]])
    assert to_grayscale(img) is img


def test_smooth_constant_is_fixed_point():
    img = gray(np.full((5, 5), 77))
    assert gaussian_smooth(img, 1.4) == img


def test_smooth_preserves_mass_of_impulse():
    arr = np.zeros((15, 15), dtype=np.uint8)
    arr[7, 7] = 255
    out = gaussian_smooth(gray(arr), 1.0)
    total = int(out.array().astype(np.int64).sum())
    # rounding may shift total mass by at most half a count per pixel
    assert abs(total - 255) <= out.width * out.height / 2
    assert out.array()[7, 7] == out.array().max()


def test_smooth_validations():
    with pytest.raises(DomainError):
        gaussian_smooth(gray([[0]]), 0.0)
    rgb = RasterImage.from_array(np.zeros((2, 2, 3), dtype=np.uint8))
    with pytest.raises(RasterShapeError):
        gaussian_smooth(rgb, 1.0)


def _reflect_index(i: int, n: int) -> int:
    # half-sample symmetric border, period 2n
    i %= 2 * n
    return i if i < n else 2 * n - 1 - i


def _smooth_oracle(arr: np.ndarray, sigma: float) -> np.ndarray:
    """Direct 2-D convolution against the separable product kernel with
    symmetric-border indexing, rounded half away from zero."""
    radius = math.ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-(xs ** 2) / (2.0 * sigma * sigma))
    taps /= taps.sum()
    h, w = arr.shape
    out = np.zeros((h, w), dtype=np.float64)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    sy = _reflect_index(y + dy, h)
                    sx = _reflect_index(x + dx, w)
                    acc += taps[dy + radius] * taps[dx + radius] * arr[sy, sx]
            out[y, x] = acc
    return np.floor(out + 0.5).clip(0, 255).astype(np.uint8)


def test_smooth_matches_direct_convolution_oracle():
    rng = np.random.default_rng(3)
    arr = rng.integers(0, 256, (9, 7), dtype=np.uint8)
    got = gaussian_smooth(gray(arr), 0.8).array()
    want = _smooth_oracle(arr.astype(np.float64), 0.8)
    assert np.array_equal(got, want)


def test_smooth_kernel_wider_than_image():
    # radius far exceeds the image; symmetric wrap keeps this well defined
    arr = np.array([[0, 255], [255, 0]], dtype=np.uint8)
    out = gaussian_smooth(gray(arr), 5.0)
    got = out.array()
    want = _smooth_oracle(arr.astype(np.float64), 5.0)
    assert np.array_equal(got, want)
    # heavy smoothing pulls everything to the mean
    assert np.all(np.abs(got.astype(int) - 127) <= 2)


def test_canny_constant_image_has_no_edges():
    out = canny_edges(gray(np.full((10, 10), 200)), 0.1, 0.3)
    assert not any(out.samples)


def test_canny_vertical_step_single_column():
    arr = np.zeros((16, 16), dtype=np.uint8)
    arr[:, 8:] = 255
    out = canny_edges(gray(arr), 0.1, 0.3).array()
    cols = sorted(set(np.nonzero(out)[1]))
    assert len(cols) == 1
    assert abs(cols[0] - 8) <= 1
    rows = set(np.nonzero(out)[0])
    # every non-border row carries the edge
    assert rows == set(range(1, 15))


def test_canny_horizontal_step_single_row():
    arr = np.zeros((16, 16), dtype=np.uint8)
    arr[8:, :] = 255
    out = canny_edges(gray(arr), 0.1, 0.3).array()
    rows = sorted(set(np.nonzero(out)[0]))
    assert len(rows) == 1
    assert abs(rows[0] - 8) <= 1


def test_canny_square_outline_is_closed():
    arr = np.zeros((24, 24), dtype=np.uint8)
    arr[8:16, 8:16] = 255
    out = canny_edges(gray(arr), 0.08, 0.2, sigma=1.0).array()
    ys, xs = np.nonzero(out)
    assert ys.size > 0
    # the outline spans the square and closes around it: every row of the
    # ring has pixels on both sides of center, and likewise every column
    assert xs.min() <= 8 and xs.max() >= 15
    assert ys.min() <= 8 and ys.max() >= 15
    cx, cy = (xs.min() + xs.max()) / 2, (ys.min() + ys.max()) / 2
    for y in range(ys.min(), ys.max() + 1):
        row = xs[ys == y]
        assert row.size and row.min() <= cx <= row.max()
    for x in range(xs.min(), xs.max() + 1):
        col = ys[xs == x]
        assert col.size and col.min() <= cy <= col.max()


def test_canny_output_is_binary_with_clear_border():
    rng = np.random.default_rng(11)
    arr = rng.integers(0, 256, (12, 12), dtype=np.uint8)
    out = canny_edges(gray(arr), 0.2, 0.5).array()
    assert set(np.unique(out)) <= {0, 255}
    assert not out[0, :].any() and not out[-1, :].any()
    assert not out[:, 0].any() and not out[:, -1].any()


def test_canny_threshold_validation():
    img = gray(np.zeros((4, 4)))
    for low, high in [(0.0, 0.5), (0.5, 0.2), (0.2, 1.5), (-0.1, 0.3)]:
        with pytest.raises(DomainError):
            canny_edges(img, low, high)


def test_canny_hysteresis_promotes_connected_weak_pixels():
    # a bright step fading to a dimmer one: the dim section survives only
    # because it touches the strong section
    arr = np.zeros((20, 16), dtype=np.uint8)
    arr[:10, 8:] = 255
    arr[10:, 8:] = 120
    strict = canny_edges(gray(arr), 0.55, 0.6, sigma=1.0).array()
    lenient = canny_edges(gray(arr), 0.2, 0.6, sigma=1.0).array()
    assert lenient.sum() > strict.sum()
    # the promoted pixels connect to the strong ones
    rows_lenient = set(np.nonzero(lenient)[0])
    assert max(rows_lenient) > 10


def _hysteresis_oracle(strong: np.ndarray, weak: np.ndarray) -> np.ndarray:
    """Breadth-first growth of the strong pixels through 8-adjacent weak
    pixels, one pixel at a time."""
    h, w = weak.shape
    edges = strong.copy()
    queue = deque(zip(*np.nonzero(strong)))
    while queue:
        r, c = queue.popleft()
        for nr in range(max(r - 1, 0), min(r + 2, h)):
            for nc in range(max(c - 1, 0), min(c + 2, w)):
                if weak[nr, nc] and not edges[nr, nc]:
                    edges[nr, nc] = True
                    queue.append((nr, nc))
    return edges


@given(
    h=st.integers(1, 14),
    w=st.integers(1, 14),
    weak_p=st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]),
    strong_p=st.sampled_from([0.0, 0.05, 0.2, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(h=1, w=1, weak_p=1.0, strong_p=1.0, seed=0)
@example(h=1, w=1, weak_p=1.0, strong_p=0.0, seed=0)
@example(h=1, w=13, weak_p=0.7, strong_p=0.2, seed=1)
@example(h=11, w=1, weak_p=0.7, strong_p=0.2, seed=2)
@example(h=9, w=12, weak_p=1.0, strong_p=0.05, seed=3)
@example(h=9, w=12, weak_p=0.5, strong_p=0.0, seed=4)
def test_hysteresis_matches_breadth_first_oracle(h, w, weak_p, strong_p, seed):
    rng = np.random.default_rng(seed)
    weak = rng.random((h, w)) < weak_p
    strong = weak & (rng.random((h, w)) < strong_p)
    assert np.array_equal(_hysteresis(strong, weak), _hysteresis_oracle(strong, weak))


def test_hysteresis_follows_a_serpentine_chain():
    # a single-pixel chain winding through the whole image: full rows joined
    # by one pixel at alternating ends, grown from its end at the bottom left
    n = 256
    weak = np.zeros((n, n), dtype=bool)
    weak[::2, :] = True
    for r in range(1, n - 1, 2):
        weak[r, n - 1 if r % 4 == 1 else 0] = True
    strong = np.zeros_like(weak)
    strong[n - 2, 0] = True
    assert np.array_equal(_hysteresis(strong, weak), weak)
    assert not _hysteresis(np.zeros_like(weak), weak).any()


@pytest.mark.parametrize("sigma", [-1.0, 0.0, math.nan, math.inf, -math.inf, 1e-300, 1e-154])
def test_sigma_without_finite_taps_is_a_domain_error(sigma):
    # 1e-300 and 1e-154 put 2 sigma**2 below the normal range, where the taps
    # would come out NaN; no numpy warning may reach stderr on the way
    img = gray(np.arange(36).reshape(6, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="sigma must be positive and finite"):
            gaussian_smooth(img, sigma)
        with pytest.raises(DomainError, match="sigma must be positive and finite"):
            canny_edges(img, 0.1, 0.3, sigma)
        # the smallest sigma with 2 sigma**2 in the normal range still works
        tiny = math.sqrt(2.2250738585072014e-308 / 2) * 1.0001
        assert gaussian_smooth(img, tiny) == img
        canny_edges(img, 0.1, 0.3, tiny)


def _whole_plane_smooth_float(plane: np.ndarray, sigma: float) -> np.ndarray:
    """The whole-plane separable pass that strip smoothing replaced, kept
    verbatim as the reference for its bits."""
    taps = _gaussian_taps(sigma)
    radius = len(taps) // 2
    h, w = plane.shape
    padded = np.pad(plane, radius, mode="symmetric")
    rows = np.zeros((h + 2 * radius, w), dtype=np.float64)
    for i, t in enumerate(taps):
        rows += t * padded[:, i : i + w]
    out = np.zeros((h, w), dtype=np.float64)
    for i, t in enumerate(taps):
        out += t * rows[i : i + h, :]
    return out


def _whole_plane_convolve3(plane: np.ndarray, kernel) -> np.ndarray:
    """The whole-plane Sobel pass that strip Sobel replaced, kept verbatim
    as the reference for its bits."""
    h, w = plane.shape
    out = np.zeros((h, w), dtype=np.float64)
    if h < 3 or w < 3:
        return out
    acc = np.zeros((h - 2, w - 2), dtype=np.float64)
    for dy in range(3):
        for dx in range(3):
            # a zero tap would add a signed zero to acc, which is never -0.0
            # and so keeps every bit; skipping it saves a full-plane pass
            if kernel[dy][dx] != 0.0:
                acc += kernel[dy][dx] * plane[dy : dy + h - 2, dx : dx + w - 2]
    out[1 : h - 1, 1 : w - 1] = acc
    return out


def _every_weak_pixel_hysteresis(strong: np.ndarray, weak: np.ndarray) -> np.ndarray:
    """The union-find over every weak pixel that the weak-only union-find
    replaced, kept verbatim as the reference for its masks."""
    h, w = weak.shape
    n = int(np.count_nonzero(weak))
    ids = np.full((h, w), -1, dtype=np.int32)
    ids[weak] = np.arange(n, dtype=np.int32)
    firsts, seconds = [], []
    for dr, dc in _FORWARD_STEPS:
        first = (slice(0, h - dr), slice(max(0, -dc), w - max(0, dc)))
        second = (slice(dr, h), slice(max(0, dc), w - max(0, -dc)))
        both = weak[first] & weak[second]
        firsts.append(ids[first][both])
        seconds.append(ids[second][both])
    a, b = np.concatenate(firsts), np.concatenate(seconds)

    parent = np.arange(n, dtype=np.int32)
    while True:
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            break
        # pairs already sharing a root keep sharing it, so drop them
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped

    anchored = np.zeros(n, dtype=bool)
    anchored[parent[ids[strong]]] = True
    edges = np.zeros((h, w), dtype=bool)
    edges[weak] = anchored[parent]
    return edges


@pytest.mark.parametrize("seed", [41, 42])
@pytest.mark.parametrize("weak_p", [0.25, 0.45])
def test_weak_only_hysteresis_matches_the_every_weak_pixel_union_find(seed, weak_p):
    # 1024x1024 noise masks at densities below and above the 8-connected
    # percolation threshold (about 0.41), so components run from single
    # pixels to one spanning the image
    rng = np.random.default_rng(seed)
    weak = rng.random((1024, 1024)) < weak_p
    strong = weak & (rng.random((1024, 1024)) < 0.05)
    assert np.array_equal(_hysteresis(strong, weak), _every_weak_pixel_hysteresis(strong, weak))


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (7, 1), (2, 2), (16, 23)])
def test_weak_only_hysteresis_edge_cases_match_the_union_find(shape):
    rng = np.random.default_rng(sum(shape))
    ring = np.zeros(shape, dtype=bool)
    ring[0, :] = ring[-1, :] = ring[:, 0] = ring[:, -1] = True
    noise = rng.random(shape) < 0.5
    corner = np.zeros(shape, dtype=bool)
    corner[-1, -1] = True
    cases = [
        (np.zeros(shape, dtype=bool), ring),  # weak only on the outer border
        (ring & corner, ring),  # one strong pixel in the border's far corner
        (np.zeros(shape, dtype=bool), noise),  # strong empty
        (noise, noise),  # weak == strong
        (noise & corner, noise | ring),
    ]
    for strong, weak in cases:
        assert np.array_equal(_hysteresis(strong, weak), _every_weak_pixel_hysteresis(strong, weak))


def _signed_zero_plane(h: int) -> np.ndarray:
    """Four fifths signed zeros, so many Sobel windows sum six zero
    products, and one fifth non-integers, whose sums round by order."""
    rng = np.random.default_rng(h)
    plane = np.where(rng.random((h, 37)) < 0.5, 0.0, -0.0)
    values = rng.random((h, 37)) < 0.2
    plane[values] = rng.normal(0.0, 100.0, int(values.sum()))
    return plane


def _mod_bins(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Direction bins by np.mod, as every Canny before the strip pass
    computed them."""
    return np.mod(np.round(np.mod(np.arctan2(gy, gx), np.pi) / (np.pi / 4.0)).astype(np.int64), 4)


@pytest.mark.parametrize("h", [3, 4, _STRIP_ROWS + 1, _STRIP_ROWS + 2, 2 * _STRIP_ROWS + 1])
@pytest.mark.parametrize("kernel", [_SOBEL_X, _SOBEL_Y])
def test_strip_sobel_keeps_the_bits(h, kernel):
    # every value and every sign bit must match the whole-plane pass; the
    # rows run laid end to end, and the last two columns of each are scratch
    plane = _signed_zero_plane(h)
    taps = [(dy * 37 + dx, t) for dy, dx, t in _SOBEL_TAPS[(_SOBEL_X, _SOBEL_Y).index(kernel)]]
    got = np.empty((h - 2) * 37)
    _correlate(plane.reshape(-1), taps, got[:-2], np.empty(len(got) - 2))
    got = got.reshape(h - 2, 37)[:, :35]
    want = _whole_plane_convolve3(plane, kernel)[1:-1, 1:-1]
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert got.tobytes() == want.tobytes()


def _whole_plane_keep(mag: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Whole-plane non-maximum suppression of the magnitude ``mag`` by the
    direction ``bins`` of every pixel, as Canny did it before suppression
    ran in strips."""
    h, w = mag.shape
    keep = np.zeros((h, w), dtype=bool)
    center, sector = mag[1 : h - 1, 1 : w - 1], bins[1 : h - 1, 1 : w - 1]
    for b, (dr, dc) in enumerate(_FORWARD_STEPS):
        before = mag[1 - dr : h - 1 - dr, 1 - dc : w - 1 - dc]
        after = mag[1 + dr : h - 1 + dr, 1 + dc : w - 1 + dc]
        keep[1 : h - 1, 1 : w - 1] |= (sector == b) & (center > before) & (center >= after)
    return keep


@pytest.mark.parametrize("h", [1, 2, 3, 4, _STRIP_ROWS + 2, _STRIP_ROWS + 3, 2 * _STRIP_ROWS + 3])
def test_strip_gradients_keep_the_bits(h, monkeypatch):
    # the strip pass in one to four bands, fed strips led by two-row halos
    # as smoothing yields them, against whole-plane Sobel: magnitude bit for
    # bit, and suppression by the np.mod direction bins at every pixel
    plane = _signed_zero_plane(h)
    gx = _whole_plane_convolve3(plane, _SOBEL_X)
    gy = _whole_plane_convolve3(plane, _SOBEL_Y)
    want = np.hypot(gx, gy)
    want_keep = _whole_plane_keep(want, _mod_bins(gx, gy))

    def strips(a, b):
        return (plane[max(y - 2, a) : min(y + _STRIP_ROWS, b)] for y in range(a, b, _STRIP_ROWS))

    for count in range(1, 5):
        monkeypatch.setattr(raster, "_band_count", lambda rows, count=count: count)
        mag, keep = _gradients(strips, h, 37)
        assert mag.tobytes() == want.tobytes()
        assert np.array_equal(keep, want_keep)


def test_direction_bins_match_np_mod_bins():
    # every sign case of zero, tiny and huge components, and gradients a
    # few ulps either side of each bin boundary k pi / 8
    values = [0.0, 1e-300, 5e-324, 1e-5, 1.0, 3.0, 1e300, np.inf]
    values = np.array(values + [-v for v in values])
    gx, gy = (a.ravel() for a in np.meshgrid(values, values))
    theta = np.arange(-8, 9) * (np.pi / 8.0)
    steps = np.arange(-4, 5)
    near_x = np.cos(theta)[:, None] + steps * np.spacing(1.0)
    near_y = np.sin(theta)[:, None] + steps[::-1] * np.spacing(1.0)
    gx = np.concatenate([gx, near_x.ravel(), 1e300 * near_x.ravel()])
    gy = np.concatenate([gy, near_y.ravel(), 1e300 * near_y.ravel()])
    got = np.empty(len(gx), dtype=np.int8)
    _direction_bins(gx.copy(), gy.copy(), got)
    assert np.array_equal(got, _mod_bins(gx, gy))


def _every_pixel_direction_canny(arr: np.ndarray, low: float, high: float, sigma: float) -> bytes:
    """Canny with the direction bin computed for every pixel before the
    peak is known, as it was before directions were limited to candidates,
    and with the whole-plane smoothing, Sobel and hysteresis."""
    plane = _whole_plane_smooth_float(arr.astype(np.float64), sigma)
    gx = _whole_plane_convolve3(plane, _SOBEL_X)
    gy = _whole_plane_convolve3(plane, _SOBEL_Y)
    mag = np.hypot(gx, gy)
    h, w = mag.shape

    angle = np.mod(np.arctan2(gy, gx), np.pi)
    bins = np.mod(np.round(angle / (np.pi / 4.0)).astype(np.int64), 4)

    keep = _whole_plane_keep(mag, bins)

    # magnitudes under 1e-9 are rounding noise, never edges
    peak = float(mag.max())
    if peak < 1e-9:
        return bytes(h * w)
    strong = keep & (mag >= high * peak)
    weak = keep & (mag >= max(low * peak, 1e-9))
    edges = _every_weak_pixel_hysteresis(strong, weak)
    edges[0, :] = edges[-1, :] = False
    edges[:, 0] = edges[:, -1] = False
    return np.where(edges, 255, 0).astype(np.uint8).tobytes()


def _test_image(kind: str, h: int, w: int, channels: int, seed: int) -> np.ndarray:
    """Dense-edge noise, a sparse-edge disk with +-3 jitter, or a constant."""
    rng = np.random.default_rng(seed)
    shape = (h, w) if channels == 1 else (h, w, channels)
    if kind == "noise":
        return rng.integers(0, 256, shape, dtype=np.uint8)
    if kind == "constant":
        return np.full(shape, int(rng.integers(0, 256)), dtype=np.uint8)
    yy, xx = np.mgrid[0:h, 0:w]
    cx, cy = w * rng.uniform(0.3, 0.7), h * rng.uniform(0.3, 0.7)
    r = rng.uniform(0.2, 0.35) * min(w, h)
    inside = (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
    if channels == 3:
        inside = inside[:, :, None]
    levels = np.where(inside, rng.integers(160, 230), rng.integers(20, 60))
    return np.clip(levels + rng.integers(-3, 4, shape), 0, 255).astype(np.uint8)


@given(
    h=st.sampled_from([1, _STRIP_ROWS - 1, _STRIP_ROWS, _STRIP_ROWS + 1, 2 * _STRIP_ROWS,
                       2 * _STRIP_ROWS + 1, 2 * _STRIP_ROWS + 2]),
    w=st.integers(1, 80),
    kind=st.sampled_from(["noise", "disk", "constant"]),
    sigma=st.sampled_from([0.5, 1.0, 1.4, 2.5, 5.0, 20.0]),
    thresholds=st.tuples(st.floats(0.001, 1.0), st.floats(0.001, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
@example(h=2 * _STRIP_ROWS + 1, w=80, kind="noise", sigma=5.0, thresholds=(0.1, 0.3), seed=0)
# a radius of 60 rows: the ring carries more rows than a strip, so the rows
# it carries overlap their own copy
@example(h=2 * _STRIP_ROWS + 2, w=80, kind="noise", sigma=20.0, thresholds=(0.1, 0.3), seed=2)
@example(h=2 * _STRIP_ROWS, w=9, kind="disk", sigma=20.0, thresholds=(0.05, 0.2), seed=3)
@example(h=_STRIP_ROWS + 1, w=1, kind="disk", sigma=0.5, thresholds=(0.5, 1.0), seed=1)
@example(h=_STRIP_ROWS - 1, w=3, kind="constant", sigma=0.5, thresholds=(1.0, 0.5), seed=1)
def test_strip_smoothing_and_candidate_directions_keep_the_bits(
    h, w, kind, sigma, thresholds, seed
):
    low, high = sorted(thresholds)
    assume(low < high)
    arr = _test_image(kind, h, w, 1, seed)
    plane = arr.astype(np.float64)
    want = _whole_plane_smooth_float(plane, sigma)
    # each strip is checked before the next one overwrites it, halo included;
    # its rows are as wide as the padded plane, and their first w columns
    # are the smoothing
    taps = _gaussian_taps(sigma)
    padded = np.pad(plane, len(taps) // 2, mode="symmetric")
    y = 0
    for strip in _smooth_strips(padded, taps, 0, h, halo=2):
        lead = min(y, 2)
        assert strip.shape[1] == padded.shape[1]
        assert strip[:, :w].tobytes() == want[y - lead : y - lead + len(strip)].tobytes()
        y += len(strip) - lead
    assert y == h
    smoothed = np.floor(want + 0.5).clip(0, 255).astype(np.uint8)
    assert gaussian_smooth(gray(arr), sigma).samples == smoothed.tobytes()
    assert canny_edges(gray(arr), low, high, sigma).samples == _every_pixel_direction_canny(arr, low, high, sigma)


def _preprocess(tmp_path, arr: np.ndarray) -> tuple[str, str, str]:
    """stdout and output sha256 of ``dface preprocess`` on ``arr``, and the
    sha256 of the edge map it crops by, which the output shows only through
    its bounding rectangle."""
    img = RasterImage.from_array(arr)
    src, dst = tmp_path / "in.pnm", tmp_path / "out.pgm"
    src.write_bytes(write_image(img))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["preprocess", str(src), "-o", str(dst)]) == 0
    edges = canny_edges(gaussian_smooth(to_grayscale(img), 1.4), 0.1, 0.3, 1.4)
    return (out.getvalue(), hashlib.sha256(dst.read_bytes()).hexdigest(),
            hashlib.sha256(edges.samples).hexdigest())


@pytest.mark.parametrize(
    "kind, side, channels, rect, digest, edges_digest",
    [
        ("noise", 1024, 1, "1,1,1023,1023",
         "52bb201aa9896bc66823d9125b506e125d8d0b8c34b73655b128947e113c29a6",
         "cb18018b5f27cf6c7b1c9a58ee20afddec6d85956496ad44665323758506d57a"),
        ("disk", 1024, 1, "407,388,969,950",
         "bd730c58ead1967acbd1bdb087582478329f443b03e38e03130fc7321350c385",
         "2d6156d508b94f1a2012c0e1b9a81b35d6b0b79c7bc6960bab1120b02bf5f780"),
        ("disk", 512, 3, "204,194,485,475",
         "2dd05c81e770aaacb171ab429843d941c270e1a0e8c75be0cbf5f2e918cb2368",
         "15416de239d9e20b42d12cd303ae0659098ca2334c732c1cc7a136c8158804da"),
    ],
)
def test_preprocess_golden_on_large_images(
    tmp_path, kind, side, channels, rect, digest, edges_digest
):
    # 1024 rows span many smoothing strips; the default config is in use
    arr = _test_image(kind, side, side, channels, seed=20171)
    assert _preprocess(tmp_path, arr) == (rect + "\n", digest, edges_digest)


def test_canny_noise_golden():
    # pins the edge map bytes of a dense-edge image
    arr = np.random.default_rng(20171).integers(0, 256, (256, 256), dtype=np.uint8)
    out = canny_edges(gray(arr), 0.1, 0.3)
    assert hashlib.sha256(out.samples).hexdigest() == (
        "c4c278ec3ad98c3fc5efaac6ad9f005b0d7fbd01c5beea2c15f779c89232c4e2"
    )


def _traced_peak_mib(stage, *args) -> float:
    """The peak of what ``stage(*args)`` allocates, in MiB, as tracemalloc
    sees it; numpy reports its array buffers to it."""
    tracemalloc.start()
    try:
        stage(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("stage, channels, args, limit_mib", [
    pytest.param(gaussian_smooth, 1, (1.4,), 6, id="smooth"),
    pytest.param(canny_edges, 1, (0.1, 0.3, 1.4), 20, id="canny"),
    pytest.param(to_grayscale, 3, (), 6, id="luma"),
])
def test_raster_stages_run_in_bounded_memory(stage, channels, args, limit_mib, monkeypatch):
    # a 1024x1024 float64 plane is 8 MiB; the whole-plane passes peaked at
    # 24.6 MiB in smoothing, 28.8 in Canny and 48.0 in luma on this image.
    # Each band holds its own strip buffers, so the stages run in as many
    # bands as any host would give them.
    monkeypatch.setattr(raster, "_usable_cores", lambda: 64)
    assert raster._band_count(1024) == raster._MAX_BANDS
    img = RasterImage.from_array(_test_image("noise", 1024, 1024, channels, seed=0))
    assert _traced_peak_mib(stage, img, *args) <= limit_mib


@settings(deadline=None)
@given(
    h=st.integers(3, 200),
    w=st.integers(1, 40),
    kind=st.sampled_from(["noise", "disk", "constant"]),
    sigma=st.sampled_from([0.5, 1.4, 5.0, 20.0]),
    thresholds=st.tuples(st.floats(0.001, 1.0), st.floats(0.001, 1.0)),
    count=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
# four 50-row bands, each shorter than the kernel radius of 60 rows
@example(h=200, w=40, kind="noise", sigma=20.0, thresholds=(0.1, 0.3), count=4, seed=0)
# more bands than interior rows
@example(h=4, w=9, kind="disk", sigma=1.4, thresholds=(0.1, 0.3), count=4, seed=1)
def test_bands_keep_the_bits(h, w, kind, sigma, thresholds, count, seed):
    # smoothing and Canny split into one to four bands, against the
    # whole-plane oracles: the bytes do not depend on the band count
    low, high = sorted(thresholds)
    assume(low < high)
    arr = _test_image(kind, h, w, 1, seed)
    smoothed = np.floor(_whole_plane_smooth_float(arr.astype(np.float64), sigma) + 0.5)
    with mock.patch.object(raster, "_band_count", lambda rows: count):
        assert gaussian_smooth(gray(arr), sigma).samples == smoothed.clip(0, 255).astype(np.uint8).tobytes()
        assert canny_edges(gray(arr), low, high, sigma).samples == _every_pixel_direction_canny(arr, low, high, sigma)


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_a_band_failure_reaches_the_caller_once_every_band_stops(failing, monkeypatch, tmp_path, capsys):
    # a MemoryError in either band is raised by canny_edges after the other
    # band is done, and main() reports it as error[memory] with exit code 3
    direction_bins = raster._direction_bins

    def starved(gx, gy, out):
        if (threading.current_thread() is threading.main_thread()) == (failing == "caller"):
            raise MemoryError("no room for the band")
        direction_bins(gx, gy, out)

    monkeypatch.setattr(raster, "_direction_bins", starved)
    monkeypatch.setattr(raster, "_band_count", lambda rows: 2)
    img = gray(_test_image("noise", 120, 50, 1, seed=5))
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="no room for the band"):
        canny_edges(img, 0.1, 0.3)
    assert threading.active_count() == threads
    src = tmp_path / "in.pgm"
    src.write_bytes(write_image(img))
    assert main(["preprocess", str(src)]) == 3
    assert capsys.readouterr() == ("", "error[memory]: no room for the band\n")
    assert threading.active_count() == threads


def test_a_band_whose_thread_cannot_start_runs_on_the_caller(monkeypatch):
    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(raster, "_band_count", lambda rows: 3)
    arr = _test_image("disk", 150, 60, 1, seed=6)
    smoothed = np.floor(_whole_plane_smooth_float(arr.astype(np.float64), 1.4) + 0.5)
    assert gaussian_smooth(gray(arr), 1.4).samples == smoothed.astype(np.uint8).tobytes()
    assert canny_edges(gray(arr), 0.1, 0.3).samples == _every_pixel_direction_canny(arr, 0.1, 0.3, 1.4)


_BAND_THREAD_VM = """
import re
import numpy as np
from dface import raster
raster._band_count = lambda rows: 2
def vm_peak_kib():
    return int(re.search(r"VmPeak:\\s+(\\d+)", open("/proc/self/status").read())[1])
img = raster.RasterImage.from_array(np.zeros((100, 40), dtype=np.uint8))
before = vm_peak_kib()
raster.canny_edges(img, 0.1, 0.3)
print(vm_peak_kib() - before)
"""


def test_a_band_thread_allocates_from_the_callers_heap():
    # glibc would give the band thread an arena of its own, which reserves
    # 64 MiB of address space (128 MiB while it aligns it) on the thread's
    # first allocation; what is left is the thread's stack
    if "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {}):
        pytest.skip("glibc's malloc arenas only")
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(raster.__file__)))
    proc = subprocess.run([sys.executable, "-c", _BAND_THREAD_VM], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 32 << 10  # KiB


D4 = elements(4)


def _near_tie(arr: np.ndarray, low: float, high: float, sigma: float) -> bool:
    """Whether Canny's gradient magnitudes come within a billionth of the
    peak of a tie: a pixel at or above ``low`` times the peak against a
    neighbor along its gradient, or a pixel against a threshold (the peak
    pixel against ``high`` = 1 aside).  Such a tie is often exact in real
    arithmetic, and then the rounding of sums taken in scan order, which D4
    does not keep, decides it."""
    plane = _whole_plane_smooth_float(arr.astype(np.float64), sigma)
    gx, gy = _whole_plane_convolve3(plane, _SOBEL_X), _whole_plane_convolve3(plane, _SOBEL_Y)
    mag = np.hypot(gx, gy)
    h, w = mag.shape
    peak = mag.max()
    tol = 1e-9 * peak
    for t in (low, high):
        # at t == 1 the peak pixel itself sits on the threshold, and stays
        if np.count_nonzero(np.abs(mag - t * peak) <= tol) > (t == 1.0):
            return True
    bins = _mod_bins(gx, gy)
    center, sector = mag[1 : h - 1, 1 : w - 1], bins[1 : h - 1, 1 : w - 1]
    candidate = center >= low * peak - tol
    for b, (dr, dc) in enumerate(_FORWARD_STEPS):
        for s in (-1, 1):
            neighbor = mag[1 + s * dr : h - 1 + s * dr, 1 + s * dc : w - 1 + s * dc]
            if (candidate & (sector == b) & (np.abs(center - neighbor) <= tol)).any():
                return True
    return False


@settings(max_examples=40)
@given(
    h=st.integers(3, 40),
    w=st.integers(3, 40),
    levels=st.integers(2, 4),
    thresholds=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
    sigma=st.sampled_from([0.5, 0.8, 1.0, 1.4, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(h=40, w=37, levels=2, thresholds=(0.1, 0.3), sigma=1.4, seed=5)
@example(h=3, w=40, levels=3, thresholds=(0.05, 0.5), sigma=0.5, seed=6)
@example(h=3, w=3, levels=2, thresholds=(1.0, 0.5), sigma=1.4, seed=1304)
def test_smoothing_canny_and_crop_commute_with_d4(h, w, levels, thresholds, sigma, seed):
    # tie-heavy images: a few gray levels, so smoothing sums the same
    # products at many pixels
    low, high = sorted(thresholds)
    assume(low < high)
    rng = np.random.default_rng(seed)
    arr = (rng.integers(0, levels, (h, w)) * (255 // (levels - 1))).astype(np.uint8)
    img = gray(arr)
    smoothed = gaussian_smooth(img, sigma)
    for g in D4:
        assert gaussian_smooth(act_on_image(g, img), sigma) == act_on_image(g, smoothed)
    assume(not _near_tie(arr, low, high, sigma))
    edges = canny_edges(img, low, high, sigma)
    cropped = crop(img, bounding_rect(edges)) if any(edges.samples) else None
    for g in D4:
        moved = act_on_image(g, img)
        moved_edges = canny_edges(moved, low, high, sigma)
        assert moved_edges == act_on_image(g, edges)
        if cropped is not None:
            assert crop(moved, bounding_rect(moved_edges)) == act_on_image(g, cropped)


def test_canny_lets_rounding_decide_a_tie_that_d4_would_keep():
    # two bright rows, top and bottom: the image equals its half turn, so in
    # real arithmetic the two middle rows tie along the vertical gradient.
    # The sums run top to bottom, so the first of them comes out one ulp
    # larger and alone survives; the half-turned edge map is a row off.
    arr = np.zeros((4, 3), dtype=np.uint8)
    arr[0, :] = arr[3, :] = 255
    r2 = parse_element(4, "r2")
    assert act_on_image(r2, gray(arr)) == gray(arr)
    assert _near_tie(arr, 0.3, 0.55, 1.0)
    edges = canny_edges(gray(arr), 0.3, 0.55, 1.0)
    assert np.array_equal(np.argwhere(edges.array()), [[1, 1]])
    assert np.array_equal(np.argwhere(act_on_image(r2, edges).array()), [[2, 1]])


@pytest.mark.parametrize("sigma", [0.5, 1.4, 2.0])
def test_canny_finds_no_edges_in_a_flat_image(sigma):
    # smoothing a flat image rounds its sums apart by an ulp or so; relative
    # thresholds must not turn that noise into edges
    for value in range(256):
        edges = canny_edges(gray(np.full((9, 11), value, dtype=np.uint8)), 0.1, 0.3, sigma)
        assert not any(edges.samples), value


def test_canny_keeps_d4_on_a_mirror_symmetric_stripe():
    # the center column's gradient is zero in real arithmetic and rounding
    # noise in floats, and the noise differs between r and e
    arr = np.tile(np.array([255, 0, 255], dtype=np.uint8), (3, 1))
    for g in D4:
        assert canny_edges(act_on_image(g, gray(arr)), 0.5, 1.0) == gray(np.zeros((3, 3)))


def test_bounding_rect_simple():
    arr = np.zeros((8, 9), dtype=np.uint8)
    arr[2, 3] = 255
    arr[5, 6] = 255
    assert bounding_rect(gray(arr)) == Rect(3, 2, 7, 6)


def test_bounding_rect_empty():
    with pytest.raises(DomainError):
        bounding_rect(gray(np.zeros((4, 4))))


@pytest.mark.parametrize(
    "shape, points, rect",
    [
        ((1, 1), [(0, 0)], Rect(0, 0, 1, 1)),
        ((1, 9), [(0, 2), (0, 5)], Rect(2, 0, 6, 1)),
        ((1, 9), [(0, 8)], Rect(8, 0, 9, 1)),
        ((7, 1), [(1, 0), (4, 0)], Rect(0, 1, 1, 5)),
        ((7, 1), [(0, 0)], Rect(0, 0, 1, 1)),
    ],
)
def test_bounding_rect_one_pixel_wide(shape, points, rect):
    arr = np.zeros(shape, dtype=np.uint8)
    for y, x in points:
        arr[y, x] = 255
    assert bounding_rect(gray(arr)) == rect
    with pytest.raises(DomainError):
        bounding_rect(gray(np.zeros(shape)))


def test_bounding_rect_matches_brute_force_sprinkles():
    rng = np.random.default_rng(23)
    for _ in range(50):
        h, w = int(rng.integers(2, 20)), int(rng.integers(2, 20))
        arr = np.zeros((h, w), dtype=np.uint8)
        count = int(rng.integers(1, 6))
        pts = [(int(rng.integers(0, h)), int(rng.integers(0, w))) for _ in range(count)]
        for y, x in pts:
            arr[y, x] = 255
        r = bounding_rect(gray(arr))
        xs = [x for _, x in pts]
        ys = [y for y, _ in pts]
        assert (r.x0, r.y0, r.x1, r.y1) == (min(xs), min(ys), max(xs) + 1, max(ys) + 1)


def test_crop_hand_picked():
    arr = np.arange(16, dtype=np.uint8).reshape(4, 4)
    out = crop(gray(arr), Rect(1, 1, 3, 3))
    assert np.array_equal(out.array(), np.array([[5, 6], [9, 10]], dtype=np.uint8))


def test_crop_full_image_is_identity():
    img = gray(np.arange(12).reshape(3, 4))
    assert crop(img, Rect(0, 0, 4, 3)) == img


def test_crop_out_of_bounds():
    img = gray(np.zeros((3, 4)))
    with pytest.raises(RasterShapeError):
        crop(img, Rect(0, 0, 5, 3))


def test_crop_color():
    rgb = np.arange(36, dtype=np.uint8).reshape(3, 4, 3)
    out = crop(RasterImage.from_array(rgb), Rect(1, 0, 3, 2))
    assert np.array_equal(out.array(), rgb[0:2, 1:3])


def test_rect_validation_and_csv():
    with pytest.raises(RasterShapeError):
        Rect(2, 0, 2, 5)
    r = Rect(1, 2, 4, 7)
    assert (r.x1 - r.x0, r.y1 - r.y0) == (3, 5)
    assert r.csv() == "1,2,4,7"


def test_pad_to_square_wide():
    img = gray(np.full((3, 5), 7))
    out, (left, top) = pad_to_square(img)
    assert (out.width, out.height) == (5, 5)
    assert (left, top) == (0, 1)
    arr = out.array()
    assert np.all(arr[0] == 0) and np.all(arr[4] == 0)
    assert np.array_equal(arr[1:4], np.full((3, 5), 7, dtype=np.uint8))


def test_pad_to_square_tall_odd_split():
    img = gray(np.full((5, 2), 7))
    out, (left, top) = pad_to_square(img)
    assert out.is_square and out.width == 5
    # 3 columns of padding: 1 left, 2 right
    assert (left, top) == (1, 0)
    arr = out.array()
    assert np.all(arr[:, 0] == 0) and np.all(arr[:, 3:] == 0)
    assert np.all(arr[:, 1:3] == 7)


def test_pad_to_square_gives_an_odd_row_to_the_bottom_and_shifts_a_mirror():
    # top = pad // 2, as left is (test_pad_to_square_tall_odd_split), so an
    # odd padding puts its extra row at the bottom whatever the content, and
    # a mirrored image pads one column off the mirror of the padded image
    wide = gray(np.arange(1, 11).reshape(2, 5))
    padded, offset = pad_to_square(wide)
    assert offset == (0, 1)
    assert np.array_equal(np.nonzero(padded.array().any(axis=1))[0], [1, 2])
    tall = gray(np.arange(1, 11).reshape(5, 2))
    s = parse_element(4, "s")
    mirrored, _ = pad_to_square(act_on_image(s, tall))
    mirror_of_padded = act_on_image(s, pad_to_square(tall)[0]).array()
    assert not np.array_equal(mirrored.array(), mirror_of_padded)
    assert np.array_equal(mirrored.array(), np.roll(mirror_of_padded, -1, axis=1))


def test_pad_to_square_color():
    img = RasterImage.from_array(np.full((1, 3, 3), (1, 2, 3), dtype=np.uint8))
    out, offset = pad_to_square(img)
    assert offset == (0, 1) and out.channels == 3
    arr = out.array()
    assert arr.shape == (3, 3, 3) and np.all(arr[[0, 2]] == 0)
    assert np.array_equal(arr[1], np.full((3, 3), (1, 2, 3)))


def test_pad_to_square_noop():
    img = gray(np.zeros((4, 4)))
    out, offset = pad_to_square(img)
    assert out is img and offset == (0, 0)
