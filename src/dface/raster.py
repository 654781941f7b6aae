"""Bit-exact raster stack: netpbm I/O, luma, Gaussian smoothing, Canny
edges, and rectangle cropping.

Everything here is deterministic down to the byte.  Convolutions accumulate
in double precision with a fixed tap order and round once, half away from
zero, at the end; file round-trips reproduce input bytes exactly.  Only
binary PGM (P5) and PPM (P6) with maxval 255 are supported.
"""

from __future__ import annotations

from math import ceil
from sys import float_info, maxsize
from typing import TYPE_CHECKING

from .errors import DomainError, ImageFormatError, RasterShapeError
from .formatting import ascii_int, shown
from .record import record

if TYPE_CHECKING:
    from collections.abc import Iterator

    import numpy as np


def _check_ints(*geometry) -> None:
    for value in geometry:
        if not isinstance(value, int):
            raise RasterShapeError(f"geometry must be an int, got {shown(value)}")


@record
class RasterImage:
    """Immutable 8-bit image; ``samples`` is the row-major payload, one or
    three bytes per pixel."""

    width: int
    height: int
    channels: int
    samples: bytes

    def __post_init__(self):
        if not isinstance(self.samples, bytes):
            raise RasterShapeError(f"samples must be bytes, got {type(self.samples).__name__}")
        _check_ints(self.width, self.height, self.channels)
        if self.width < 1 or self.height < 1:
            raise RasterShapeError(f"bad dimensions {shown(self.width)}x{shown(self.height)}")
        if self.channels not in (1, 3):
            raise RasterShapeError(f"channels must be 1 or 3, got {shown(self.channels)}")
        expect = self.width * self.height * self.channels
        if len(self.samples) != expect:
            raise RasterShapeError(f"payload holds {len(self.samples)} bytes, "
                                   f"geometry needs {shown(expect)}")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "RasterImage":
        import numpy as np
        a = np.asarray(arr)
        if a.ndim == 2:
            channels = 1
        elif a.ndim == 3 and a.shape[2] == 3:
            channels = 3
        else:
            raise RasterShapeError(f"expected HxW or HxWx3 array, got shape {a.shape}")
        if a.dtype != np.uint8:
            if np.issubdtype(a.dtype, np.floating):
                raise RasterShapeError("float arrays must be rounded before wrapping")
            if a.min(initial=0) < 0 or a.max(initial=0) > 255:
                raise RasterShapeError("sample values outside [0, 255]")
            a = a.astype(np.uint8)
        h, w = a.shape[0], a.shape[1]
        return cls(w, h, channels, np.ascontiguousarray(a).tobytes())

    def array(self) -> np.ndarray:
        """Read-only uint8 view, shape (h, w) or (h, w, 3)."""
        import numpy as np
        a = np.frombuffer(self.samples, dtype=np.uint8)
        if self.channels == 1:
            return a.reshape(self.height, self.width)
        return a.reshape(self.height, self.width, self.channels)

    @property
    def is_square(self) -> bool:
        return self.width == self.height


@record
class Rect:
    """Pixel rectangle, inclusive x0/y0, exclusive x1/y1."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        _check_ints(self.x0, self.y0, self.x1, self.y1)
        if self.x0 >= self.x1 or self.y0 >= self.y1:
            raise RasterShapeError(f"degenerate rectangle ({self.csv()})")

    def csv(self) -> str:
        return ",".join(map(shown, (self.x0, self.y0, self.x1, self.y1)))


_WHITESPACE = b" \t\r\n\v\f"


def _header_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """Read ``count`` whitespace-separated header tokens, honoring
    ``#`` comments; returns the tokens and the offset just past the single
    whitespace byte that terminates the last one."""
    tokens: list[bytes] = []
    i, n = 0, len(data)
    while len(tokens) < count:
        while i < n:
            if data[i] in _WHITESPACE:
                i += 1
            elif data[i] == 0x23:  # '#' comment runs to end of line
                while i < n and data[i] != 0x0A:
                    i += 1
            else:
                break
        start = i
        while i < n and data[i] not in _WHITESPACE:
            i += 1
        if start == i:
            raise ImageFormatError("unexpected end of header")
        tokens.append(data[start:i])
    if i >= n:
        raise ImageFormatError("missing pixel payload")
    return tokens, i + 1  # exactly one whitespace byte precedes the payload


def read_image(data: bytes) -> RasterImage:
    """Decode binary PGM (P5) or PPM (P6), maxval 255, exact payload."""
    if len(data) < 2:
        raise ImageFormatError("not a netpbm file")
    magic = data[:2]
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise ImageFormatError(f"unsupported magic {magic!r} (want P5 or P6)")
    tokens, offset = _header_tokens(data[2:], 3)
    width, height, maxval = map(ascii_int, tokens)
    if None in (width, height, maxval):
        raise ImageFormatError("non-numeric header field")
    if width < 1 or height < 1:
        raise ImageFormatError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval} (want 255)")
    payload = data[2 + offset :]
    expect = width * height * channels
    if len(payload) < expect:
        raise ImageFormatError(
            f"truncated payload: need {expect} bytes, have {len(payload)}"
        )
    if len(payload) > expect:
        raise ImageFormatError("trailing data after pixel payload")
    return RasterImage(width, height, channels, payload)


def write_image(img: RasterImage) -> bytes:
    magic = b"P5" if img.channels == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (img.width, img.height)
    return header + img.samples


# Rows per strip in the luma, smoothing and Sobel passes: a strip of a
# 1024-wide plane and its buffers stay in cache across all the steps, a whole
# plane does not.
_STRIP_ROWS = 48


def to_grayscale(img: RasterImage) -> RasterImage:
    """Integer luma 0.299 R + 0.587 G + 0.114 B; a no-op on gray input."""
    import numpy as np
    if img.channels == 1:
        return img
    rgb = img.array()
    luma = np.empty((img.height, img.width), dtype=np.uint8)
    # a strip at a time, so no whole-plane float is built
    for y0 in range(0, img.height, _STRIP_ROWS):
        strip = rgb[y0 : y0 + _STRIP_ROWS].astype(np.float64)
        mix = 0.299 * strip[:, :, 0] + 0.587 * strip[:, :, 1] + 0.114 * strip[:, :, 2]
        luma[y0 : y0 + _STRIP_ROWS] = np.floor(mix + 0.5)
    return RasterImage.from_array(luma)


def check_sigma(sigma: float) -> None:
    """Raise DomainError unless numpy can size the Gaussian taps for ``sigma``
    (memory may still run out): sigma must be positive, with ``3 sigma``, the
    kernel radius, at most ``sys.maxsize // 32`` and ``2 sigma**2`` normal."""
    # numpy sizes no array past sys.maxsize bytes and rounds an arange's
    # count as a float, so the taps stay under half that.  3 * sigma is exact
    # for an int, so no comparison converts an int too large for a float.
    if not (isinstance(sigma, (int, float)) and sigma > 0 and 3 * sigma <= maxsize // 32
            and 2.0 * sigma * sigma >= float_info.min):
        raise DomainError(
            f"sigma must be positive and finite with 3*sigma <= {maxsize // 32} and "
            f"2*sigma**2 >= {float_info.min!r}, got {shown(sigma, str)}"
        )


def check_thresholds(low: float, high: float) -> None:
    """Raise DomainError unless ``low`` and ``high`` are valid Canny thresholds."""
    if not (isinstance(low, (int, float)) and isinstance(high, (int, float))
            and 0.0 < low < high and high <= 1.0):
        raise DomainError("thresholds must satisfy 0 < low < high <= 1, "
                          f"got {shown(low, str)}, {shown(high, str)}")


def _gaussian_taps(sigma: float) -> np.ndarray:
    import numpy as np
    radius = ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-(xs ** 2) / (2.0 * sigma * sigma))
    return taps / taps.sum()


def _correlate(src: np.ndarray, taps: list[tuple[int, int, float]], out: np.ndarray,
               term: np.ndarray) -> None:
    """Set ``out[y, x]`` to the sum of ``t * src[y + dy, x + dx]`` over the
    taps ``(dy, dx, t)``, added in tap order to +0.0; ``term`` is scratch of
    ``out``'s shape.

    A tap of +-1 adds or subtracts its window, which is exact, as ``a - b``
    is ``a + (-b)`` down to signed zeros.  The first tap needs no pass over
    zeros: a +-1 tap adds its window to +0.0, and any other writes its
    product, which keeps the bits unless that product is -0.0.  The
    smoothing taps and sources are never negative, so theirs never is.
    """
    import numpy as np
    h, w = out.shape
    for k, (dy, dx, t) in enumerate(taps):
        window = src[dy : dy + h, dx : dx + w]
        prior = out if k else 0.0
        if t == 1.0:
            np.add(prior, window, out=out)
        elif t == -1.0:
            np.subtract(prior, window, out=out)
        elif k:
            np.multiply(window, t, out=term)
            out += term
        else:
            np.multiply(window, t, out=out)


def _smooth_strips(plane: np.ndarray, sigma: float, halo: int = 0) -> Iterator[np.ndarray]:
    """Yield the separable Gaussian of a uint8 or float plane, as float64,
    symmetric-reflect border, fixed left-to-right tap order, one strip of at
    most ``_STRIP_ROWS`` rows at a time.  Each strip after the first is led
    by the ``halo`` smoothed rows before it.

    The row pass widens the padded source a strip at a time into a ring of
    ``2r + _STRIP_ROWS`` rows for a kernel radius r.  A strip's column pass
    reads the 2r rows after it too, so the ring carries its last 2r rows to
    the next strip.  Every value sums the same products in the same order as
    a whole-plane pass, so the bits do not depend on the strip height.  A
    yielded strip is a view that the next one overwrites.
    """
    import numpy as np
    taps = _gaussian_taps(sigma)
    radius = len(taps) // 2
    h, w = plane.shape
    span = min(_STRIP_ROWS, h)
    # padding the narrow samples before widening them moves an eighth of the bytes
    padded = np.pad(plane, radius, mode="symmetric")
    across = [(0, i, t) for i, t in enumerate(taps)]
    down = [(i, 0, t) for i, t in enumerate(taps)]
    wide = np.empty((2 * radius + span, w + 2 * radius))
    ring = np.empty((2 * radius + span, w))
    term = np.empty_like(ring)
    out = np.empty((halo + span, w))
    for y0 in range(0, h, span):
        n = min(span, h - y0)
        # ring row i holds the row pass of padded row y0 + i; the rows after
        # the 2r carried from the last strip are new
        new = slice(2 * radius if y0 else 0, 2 * radius + n)
        wide[new] = padded[y0 : y0 + 2 * radius + n][new]
        _correlate(wide[new], across, ring[new], term[new])
        _correlate(ring, down, out[halo : halo + n], term[:n])
        yield out[0 if y0 else halo : halo + n]
        # numpy copies through a buffer where the carried rows overlap their
        # own copy, as they do once 2r exceeds the strip
        ring[: 2 * radius] = ring[n : n + 2 * radius]
        out[:halo] = out[n : n + halo]


def gaussian_smooth(img: RasterImage, sigma: float) -> RasterImage:
    import numpy as np
    if img.channels != 1:
        raise RasterShapeError("smoothing expects a single-channel image")
    check_sigma(sigma)
    smooth = np.empty((img.height, img.width), dtype=np.uint8)
    y = 0
    for strip in _smooth_strips(img.array(), sigma):
        strip += 0.5
        np.floor(strip, out=strip)
        np.clip(strip, 0, 255, out=strip)
        smooth[y : y + len(strip)] = strip
        y += len(strip)
    return RasterImage.from_array(smooth)


_SOBEL_X = ((-1.0, 0.0, 1.0), (-2.0, 0.0, 2.0), (-1.0, 0.0, 1.0))
_SOBEL_Y = ((-1.0, -2.0, -1.0), (0.0, 0.0, 0.0), (1.0, 2.0, 1.0))

# Neighbor step (drow, dcol) per gradient-direction bin: 0 horizontal
# gradient, 1 diagonal, 2 vertical, 3 anti-diagonal.  With their negatives
# they make up the 8-neighborhood, so hysteresis pairs each adjacent pixel
# pair exactly once by stepping forward along them.
_FORWARD_STEPS = ((0, 1), (1, 1), (1, 0), (1, -1))

# Gradient magnitudes below this (0-255 scale) are rounding noise, neither
# weak nor strong.  A flat image smooths to sums that round differently from
# pixel to pixel, up to about 6e-14 apart; with thresholds relative to the
# peak, that noise would otherwise become a full edge map.
_NOISE_MAGNITUDE = 1e-9


# Sobel x and y taps (dy, dx, t) in scan order, zeros left out: a zero tap
# would add a signed zero to a sum that starts at +0.0 and so is never -0.0,
# which keeps every bit, and skipping it saves a pass
_SOBEL_TAPS = tuple(
    [(dy, dx, t) for dy, row in enumerate(kernel) for dx, t in enumerate(row) if t != 0.0]
    for kernel in (_SOBEL_X, _SOBEL_Y)
)


def _direction_bins(gx: np.ndarray, gy: np.ndarray, out: np.ndarray) -> None:
    """Write the direction bin of each gradient into the int8 array ``out``,
    with ``gx`` and ``gy`` as scratch.

    Adding pi to the negative angles, and +0.0 to the rest, folds them into
    [0, pi] and gives the bins of ``np.mod(angle, np.pi)`` at a fraction of
    its cost: the two differ only at pi and -0.0, and both land in bin 0.
    No step takes a ``where=`` mask, which would cost numpy's SIMD loops.
    """
    import numpy as np
    angle = np.arctan2(gy, gx, out=gx)
    np.multiply(angle < 0.0, np.pi, out=gy)
    angle += gy
    angle /= np.pi / 4.0
    np.rint(angle, out=angle)
    out[...] = angle
    out &= 3  # rounding gives 0..4; 4 (angle pi) is bin 0


def _gradients(blocks: Iterator[np.ndarray], h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Sobel gradient magnitude with a zero border, and the int8 direction
    bin of every interior pixel, of the h x w plane that ``blocks`` yields
    as consecutive strips of rows, each after the first led by the two rows
    before it.

    Sobel, magnitude and direction of a strip are done while its x and y
    gradients are in cache, and no whole-plane gradient is ever built.
    """
    import numpy as np
    mag = np.zeros((h, w), dtype=np.float64)
    bins = np.empty((max(h - 2, 0), max(w - 2, 0)), dtype=np.int8)
    if h < 3 or w < 3:
        return mag, bins
    gx_buf, gy_buf, term_buf = np.empty((3, min(_STRIP_ROWS, h - 2), w - 2), dtype=np.float64)
    y = 0  # interior rows done
    for block in blocks:
        n = len(block) - 2
        gx, gy = gx_buf[:n], gy_buf[:n]
        for taps, g in zip(_SOBEL_TAPS, (gx, gy)):
            _correlate(block, taps, g, term_buf[:n])
        np.hypot(gx, gy, out=mag[y + 1 : y + n + 1, 1 : w - 1])
        _direction_bins(gx, gy, bins[y : y + n])
        y += n
    return mag, bins


def _hysteresis(strong: np.ndarray, weak: np.ndarray) -> np.ndarray:
    """Mask of the weak pixels whose 8-connected component of weak pixels
    holds a strong one; ``strong`` must be a subset of ``weak``.

    Strong pixels are kept outright.  A weak-only pixel is kept iff its
    8-connected component of weak-only pixels has a pixel with a strong
    neighbor: a weak path to a strong pixel runs through weak-only pixels up
    to its first strong one, and the last of those touches it.

    The weak-only components come from a vectorized union-find over flat
    indices into the plane framed by one False pixel: each round hooks the
    larger of two adjacent roots to the smaller, then pointer-jumps until
    every node points at its root.  Parent ids only ever fall, so it
    terminates.
    """
    import numpy as np
    w = weak.shape[1]
    edges = np.pad(strong, 1)
    kept = edges.ravel()  # a view, so marking it marks edges
    only = np.pad(weak & ~strong, 1).ravel()
    nodes = np.flatnonzero(only)
    n = len(nodes)
    if n == 0:
        return edges[1:-1, 1:-1]
    ids = np.full(only.shape, -1, dtype=np.int32)
    ids[nodes] = np.arange(n, dtype=np.int32)
    firsts, seconds = [], []
    seeded = np.zeros(n, dtype=bool)  # has a strong neighbor
    for dr, dc in _FORWARD_STEPS:
        # the frame keeps every neighbor index of a node inside the plane
        off = dr * (w + 2) + dc
        ahead = nodes + off
        both = only[ahead]
        firsts.append(np.flatnonzero(both).astype(np.int32))
        seconds.append(ids[ahead[both]])
        seeded |= kept[ahead]
        seeded |= kept[nodes - off]
    a, b = np.concatenate(firsts), np.concatenate(seconds)
    # the union-find needs none of the pair-finding arrays, the id plane included
    del ids, ahead, both, firsts, seconds

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
    anchored[parent[seeded]] = True
    kept[nodes[anchored[parent]]] = True
    return edges[1:-1, 1:-1]


DEFAULT_CANNY_SIGMA = 1.4


def canny_edges(
    img: RasterImage, low: float, high: float, sigma: float = DEFAULT_CANNY_SIGMA
) -> RasterImage:
    """Classic edge pipeline: smooth, Sobel, non-maximum suppression,
    double-threshold hysteresis.

    ``low`` and ``high`` are fractions of the maximum gradient magnitude.
    Pixels kept by non-maximum suppression at or above ``low`` are weak, at
    or above ``high`` strong; hysteresis keeps the 8-connected weak
    components that touch a strong pixel.  A magnitude below 1e-9 is
    rounding noise and neither weak nor strong, so a flat image has no edges.
    When two neighbors along the gradient tie exactly, the earlier pixel in
    scan order survives, so a symmetric step yields a single edge column.
    Output is binary {0, 255} with a one-pixel zero border.
    """
    import numpy as np
    if img.channels != 1:
        raise RasterShapeError("edge detection expects a single-channel image")
    check_thresholds(low, high)
    check_sigma(sigma)
    h, w = img.height, img.width
    mag, bins = _gradients(_smooth_strips(img.array(), sigma, halo=2), h, w)
    peak = float(mag.max())
    weak = mag >= max(low * peak, _NOISE_MAGNITUDE)
    strong = mag >= max(high * peak, _NOISE_MAGNITUDE)

    # the bins of pixels below the low threshold are read here but never
    # used: they are not weak, and weak &= keep keeps them out
    keep = np.zeros((h, w), dtype=bool)
    center = mag[1 : h - 1, 1 : w - 1]
    for b, (dr, dc) in enumerate(_FORWARD_STEPS):
        before = mag[1 - dr : h - 1 - dr, 1 - dc : w - 1 - dc]
        after = mag[1 + dr : h - 1 + dr, 1 + dc : w - 1 + dc]
        keep[1 : h - 1, 1 : w - 1] |= (bins == b) & (center > before) & (center >= after)
    # hysteresis runs without the magnitude, its views and the bins
    del mag, center, before, after, bins
    weak &= keep
    strong &= keep

    # keep is False on the one-pixel border, so weak and strong are too
    edges = _hysteresis(strong, weak)
    return RasterImage.from_array(edges.view(np.uint8) * 255)  # bools are bytes 0 and 1


def bounding_rect(edges: RasterImage) -> Rect:
    """Tightest rectangle containing every nonzero pixel."""
    import numpy as np
    if edges.channels != 1:
        raise RasterShapeError("bounding box expects a single-channel image")
    arr = edges.array()
    ys = np.flatnonzero(arr.any(axis=1))
    if ys.size == 0:
        raise DomainError("empty edge map has no bounding rectangle")
    xs = np.flatnonzero(arr.any(axis=0))
    return Rect(int(xs[0]), int(ys[0]), int(xs[-1]) + 1, int(ys[-1]) + 1)


def crop(img: RasterImage, r: Rect) -> RasterImage:
    import numpy as np
    if r.x0 < 0 or r.y0 < 0 or r.x1 > img.width or r.y1 > img.height:
        raise RasterShapeError(
            f"rectangle ({r.csv()}) exceeds image bounds {img.width}x{img.height}"
        )
    arr = img.array()
    return RasterImage.from_array(np.ascontiguousarray(arr[r.y0 : r.y1, r.x0 : r.x1]))


def pad_to_square(img: RasterImage) -> tuple[RasterImage, tuple[int, int]]:
    """Center the image on a max(w, h) square canvas of zeros; returns the
    padded image and the (left, top) offset for remapping key points."""
    import numpy as np
    side = max(img.width, img.height)
    pad_x, pad_y = side - img.width, side - img.height
    left, top = pad_x // 2, pad_y // 2
    if pad_x == 0 and pad_y == 0:
        return img, (0, 0)
    arr = img.array()
    widths = ((top, pad_y - top), (left, pad_x - left))
    if img.channels == 3:
        widths = widths + ((0, 0),)
    padded = np.pad(arr, widths)
    return RasterImage.from_array(padded), (left, top)
