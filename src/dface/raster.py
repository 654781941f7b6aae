"""Bit-exact raster stack: netpbm I/O, luma, Gaussian smoothing, Canny
edges, and rectangle cropping.

Everything here is deterministic down to the byte.  Convolutions accumulate
in double precision with a fixed tap order and round once, half away from
zero, at the end; file round-trips reproduce input bytes exactly.  Only
binary PGM (P5) and PPM (P6) with maxval 255 are supported.
"""

from __future__ import annotations

import os
import threading
from functools import cache
from math import ceil
from sys import float_info, maxsize
from typing import TYPE_CHECKING

from .errors import DomainError, ImageFormatError, RasterShapeError
from .formatting import ascii_int, shown
from .record import record

if TYPE_CHECKING:
    from collections.abc import Callable, Iterator

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


def _header_tokens(data: bytes, count: int, i: int) -> tuple[list[bytes], int]:
    """Read ``count`` whitespace-separated header tokens from offset ``i``
    on, honoring ``#`` comments; returns the tokens and the offset just past
    the single whitespace byte that terminates the last one."""
    tokens: list[bytes] = []
    n = len(data)
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
    tokens, offset = _header_tokens(data, 3, 2)
    width, height, maxval = map(ascii_int, tokens)
    if None in (width, height, maxval):
        raise ImageFormatError("non-numeric header field")
    if width < 1 or height < 1:
        raise ImageFormatError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval} (want 255)")
    payload = data[offset:]
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


# Bands run at once, each with its own strip buffers: about 1.8 MiB a band in
# smoothing and 3.8 MiB in Canny at 1024 wide.  A third band would take a
# 1024x1024 plane to 7.3 MiB traced in smoothing and 21.3 in Canny, so the
# scratch is capped here rather than growing with the host's cores.
_MAX_BANDS = 2


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _band_count(rows: int) -> int:
    """Bands to split ``rows`` rows into: one per usable core, at most
    ``_MAX_BANDS``, with at least ``_STRIP_ROWS`` rows in each, and at
    least one."""
    return max(1, min(_usable_cores(), _MAX_BANDS, rows // _STRIP_ROWS))


@cache
def _share_the_heap() -> None:
    """Have every thread allocate from the calling thread's malloc heap:
    glibc's ``M_ARENA_MAX`` of 1, set once, before the first band thread.

    glibc gives each new thread an arena of its own on its first
    allocation, which reserves 64 MiB of address space, more than a
    2,500x2,500 image can spare under a 250 MiB ``RLIMIT_AS``, and keeps
    the buffers that thread frees out of reach of the calling thread's
    later allocations.  Other C libraries are left as they are.
    """
    if "CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", {}):
        import ctypes
        ctypes.CDLL(None).mallopt(-8, 1)  # -8 is M_ARENA_MAX


def _in_bands(work: Callable[[int, int], object], start: int, stop: int) -> list:
    """Run ``work(a, b)`` on each of ``_band_count`` contiguous bands
    [a, b) that split the rows [start, stop), start < stop, all at once, and
    return the results in band order.

    The calling thread runs the first band and a thread each runs the rest;
    numpy drops the GIL inside its loops, so the bands share the cores, and
    every thread allocates from the calling thread's heap.  A band whose
    thread cannot start runs on the calling thread.  An exception
    in any band, MemoryError included, is raised here once every band has
    stopped.
    """
    count = _band_count(stop - start)
    cuts = [start + (stop - start) * k // count for k in range(count + 1)]
    bands = [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]
    results = [None] * len(bands)
    failures: list[BaseException] = []

    def run(k: int) -> None:
        try:
            results[k] = work(*bands[k])
        except BaseException as exc:  # raised in the caller after the join
            failures.append(exc)

    threads, mine = [], [0]
    if len(bands) > 1:
        _share_the_heap()
    try:
        for k in range(1, len(bands)):
            thread = threading.Thread(target=run, args=(k,))
            try:
                thread.start()
            except RuntimeError:  # no thread to be had
                mine.append(k)
            else:
                threads.append(thread)
        for k in mine:
            run(k)
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]
    return results


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


def _correlate(src: np.ndarray, taps: list[tuple[int, float]], out: np.ndarray,
               term: np.ndarray) -> None:
    """Set ``out[i]`` to the sum of ``t * src[i + k]`` over the taps
    ``(k, t)``, added in tap order to +0.0; ``term`` is scratch of ``out``'s
    length.  The strip passes lay a strip's rows end to end, so a tap at row
    dy and column dx of rows ``width`` long is at k = dy * width + dx, and
    each tap is one contiguous call rather than one per row.

    A tap of +-1 adds or subtracts its window, which is exact, as ``a - b``
    is ``a + (-b)`` down to signed zeros.  The first tap needs no pass over
    zeros: a +-1 tap adds its window to +0.0, and any other writes its
    product, which keeps the bits unless that product is -0.0.  The
    smoothing taps and sources are never negative, so theirs never is.
    """
    import numpy as np
    n = len(out)
    for j, (k, t) in enumerate(taps):
        window = src[k : k + n]
        prior = out if j else 0.0
        if t == 1.0:
            np.add(prior, window, out=out)
        elif t == -1.0:
            np.subtract(prior, window, out=out)
        elif j:
            np.multiply(window, t, out=term)
            out += term
        else:
            np.multiply(window, t, out=out)


def _smooth_strips(padded: np.ndarray, taps: np.ndarray, start: int, stop: int,
                   halo: int = 0) -> Iterator[np.ndarray]:
    """Yield rows [start, stop) of the separable Gaussian ``taps`` of the
    plane that ``padded`` holds with a symmetric-reflect border as wide as
    the taps' radius, as float64, fixed left-to-right tap order, one strip
    of at most ``_STRIP_ROWS`` rows at a time.  Each strip after the first
    is led by the ``halo`` smoothed rows before it.  A yielded row is as
    wide as ``padded``: its first columns, as many as the plane has, are
    the smoothing, and the 2r after them, for a kernel radius r, scratch.

    Both passes run over a strip's rows laid end to end, so each tap is one
    contiguous multiply and add; the scratch columns take the sums that
    straddle two rows.  The row pass widens the padded source a strip at a
    time and writes a ring of ``2r + _STRIP_ROWS`` rows.  A strip's column
    pass reads the 2r rows after it too, so the ring carries its last 2r
    rows to the next strip.  Every value sums the same products in the same
    order as a whole-plane pass, so the bits depend on neither the strip
    height nor the rows asked for.  A yielded strip is a view that the next
    one overwrites.
    """
    import numpy as np
    radius = len(taps) // 2
    width = padded.shape[1]
    span = min(_STRIP_ROWS, stop - start)
    across = [(i, float(t)) for i, t in enumerate(taps)]
    down = [(i * width, float(t)) for i, t in enumerate(taps)]
    wide = np.empty((2 * radius + span) * width)
    # no pass writes the scratch columns of a strip's last ring row, which
    # the column pass reads: zeros keep them finite
    ring = np.zeros_like(wide)
    term = np.empty_like(wide)
    out = np.empty((halo + span) * width)
    for y0 in range(start, stop, span):
        n = min(span, stop - y0)
        # ring row i holds the row pass of padded row y0 + i; the rows after
        # the 2r carried from the last strip are new
        a, b = (2 * radius if y0 > start else 0) * width, (2 * radius + n) * width
        wide[a:b] = padded[y0 : y0 + 2 * radius + n].reshape(-1)[a:]
        new = slice(a, b - 2 * radius)
        _correlate(wide[a:b], across, ring[new], term[new])
        rows = slice(halo * width, (halo + n) * width)
        _correlate(ring, down, out[rows], term[: n * width])
        yield out[(halo if y0 == start else 0) * width : rows.stop].reshape(-1, width)
        # numpy copies through a buffer where the carried rows overlap their
        # own copy, as they do once 2r exceeds the strip
        ring[: 2 * radius * width] = ring[n * width : (n + 2 * radius) * width]
        out[: halo * width] = out[n * width : (n + halo) * width]


def _padded_taps(img: RasterImage, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The uint8 samples of ``img`` padded, symmetric-reflect, by the radius
    of the Gaussian taps of ``sigma``, and those taps: the source and the
    kernel that every band of ``_smooth_strips`` reads."""
    import numpy as np
    taps = _gaussian_taps(sigma)
    # padding the narrow samples, not widened ones, moves an eighth of the bytes
    return np.pad(img.array(), len(taps) // 2, mode="symmetric"), taps


def gaussian_smooth(img: RasterImage, sigma: float) -> RasterImage:
    import numpy as np
    if img.channels != 1:
        raise RasterShapeError("smoothing expects a single-channel image")
    check_sigma(sigma)
    padded, taps = _padded_taps(img, sigma)
    smooth = np.empty((img.height, img.width), dtype=np.uint8)

    def band(start: int, stop: int) -> None:
        y = start
        for strip in _smooth_strips(padded, taps, start, stop):
            strip += 0.5
            np.floor(strip, out=strip)
            np.clip(strip, 0, 255, out=strip)
            smooth[y : y + len(strip)] = strip[:, : img.width]
            y += len(strip)

    _in_bands(band, 0, img.height)
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


def _suppress(mag: np.ndarray, keep: np.ndarray, y: int, bins: np.ndarray,
              votes: np.ndarray) -> None:
    """Non-maximum suppression of rows [y, y + len(bins)) of ``mag``, at its
    interior columns, into ``keep``: a pixel is kept when its magnitude
    exceeds that of its neighbor before it along the direction of its bin
    and ties or exceeds that of the neighbor after it, so the earlier of two
    exactly tied neighbors survives.

    The rows run laid end to end, from column 1 of row y to column w - 2 of
    the last, so each test is one contiguous call.  ``bins`` is int8 of
    shape (len(bins), w): a row holds the bins of its w - 2 interior pixels,
    then two values for the border pixels between it and the next row.
    Their magnitude is the zero border's, which exceeds no neighbor's, so
    they stay unkept whatever their bin.  ``votes`` is bool scratch of
    shape (3, 4, k), k >= len(bins) * w - 2: per bin, whether a pixel is in
    it, beats the neighbor before and holds against the one after.  Twelve
    tests into one buffer and three calls to combine them make fewer and
    larger numpy calls than a mask per test, so bands hand the GIL to each
    other less often.
    """
    import numpy as np
    w = mag.shape[1]
    size, at = max(len(bins) * w - 2, 0), y * w + 1
    flat = mag.reshape(-1)
    center = flat[at : at + size]
    votes = votes[:, :, :size]
    np.equal(bins.reshape(-1)[:size], np.arange(4, dtype=bins.dtype)[:, None], out=votes[0])
    for b, (dr, dc) in enumerate(_FORWARD_STEPS):
        step = dr * w + dc
        np.greater(center, flat[at - step : at - step + size], out=votes[1, b])
        np.greater_equal(center, flat[at + step : at + step + size], out=votes[2, b])
    np.logical_and(votes[0], votes[1], out=votes[0])
    np.logical_and(votes[0], votes[2], out=votes[0])
    np.logical_or.reduce(votes[0], axis=0, out=keep.reshape(-1)[at : at + size])


def _edge_band(blocks: Iterator[np.ndarray], mag: np.ndarray, keep: np.ndarray,
               start: int, stop: int) -> list[tuple[int, np.ndarray]]:
    """Sobel gradient magnitude of rows [start, stop) of an interior band
    into the zeroed ``mag``, and their non-maximum suppression into the
    zeroed ``keep``.  ``blocks`` yields the smoothed rows [start - 1,
    stop + 1) as consecutive C-contiguous strips, each after the first led
    by the two rows before it; columns past the plane's width are scratch.

    Sobel, magnitude, direction and suppression of a strip are done while
    its gradients are in cache, and no whole-plane gradient or direction
    plane is ever built.  Suppression runs one row behind Sobel, as a row
    needs the magnitude of the row after it.  A first or last row whose
    neighbor row belongs to another band is left to the caller, once every
    band has its magnitude: it is returned with its direction bins.
    """
    import numpy as np
    h, w = mag.shape
    span = min(_STRIP_ROWS, stop - start)
    votes = np.empty((3, 4, (span + 1) * w), dtype=bool)
    # row i holds the bins of row y - 1 + i for the strip at y, laid out as
    # _suppress reads them; row 0 carries the last row of the strip before
    bins = np.zeros((span + 1, w), dtype=np.int8)
    # rows [lo, hi) have both neighbor rows in the band or on the zero border
    lo, hi = start + (start > 1), stop - (stop < h - 1)
    seams = []
    y = start
    for block in blocks:
        n, width = len(block) - 2, block.shape[1]
        if y == start:
            # Sobel runs over a strip's rows laid end to end, as smoothing
            # does: the gradient of row j, column x is at j * width + x, and
            # past a row's first w - 2 columns lies scratch
            sobel = [[(dy * width + dx, t) for dy, dx, t in taps] for taps in _SOBEL_TAPS]
            gx_buf, gy_buf, term_buf = np.empty((3, span * width))
            dirs = np.empty(span * width, dtype=np.int8)
        size = n * width - 2
        for taps, g in zip(sobel, (gx_buf, gy_buf)):
            _correlate(block.reshape(-1), taps, g[:size], term_buf[:size])
        gx, gy = (g[: n * width].reshape(n, width)[:, : w - 2] for g in (gx_buf, gy_buf))
        np.hypot(gx, gy, out=mag[y : y + n, 1 : w - 1])
        _direction_bins(gx_buf[:size], gy_buf[:size], dirs[:size])
        bins[1 : n + 1, : w - 2] = dirs[: n * width].reshape(n, width)[:, : w - 2]
        if y == start and lo > start:
            seams.append((start, bins[1].copy()))
        if y + n == stop and hi < stop:
            seams.append((stop - 1, bins[n].copy()))
        # every row before the strip's last now has the magnitude of the row
        # after it; at the band's end, so has its last row unless a seam
        first, last = max(y - 1, lo), y + n - 1 if y + n < stop else hi
        _suppress(mag, keep, first, bins[first - y + 1 : last - y + 1], votes)
        bins[0] = bins[n]
        y += n
    return seams


def _gradients(strips: Callable[[int, int], Iterator[np.ndarray]], h: int,
               w: int) -> tuple[np.ndarray, np.ndarray]:
    """Sobel gradient magnitude with a zero border, and the mask of the
    interior pixels that non-maximum suppression keeps, of the h x w plane
    whose rows [a, b) ``strips(a, b)`` yields as consecutive strips, each
    after the first led by the two rows before it, in the layout
    ``_edge_band`` takes.  The interior rows run in
    bands, and the rows at band seams are suppressed after the join."""
    import numpy as np
    mag = np.zeros((h, w), dtype=np.float64)
    keep = np.zeros((h, w), dtype=bool)
    if h > 2 and w > 2:
        def band(start: int, stop: int) -> list[tuple[int, np.ndarray]]:
            return _edge_band(strips(start - 1, stop + 1), mag, keep, start, stop)

        for seams in _in_bands(band, 1, h - 1):
            for y, bins in seams:
                _suppress(mag, keep, y, bins[None], np.empty((3, 4, w - 2), dtype=bool))
    return mag, keep


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
    padded, taps = _padded_taps(img, sigma)
    mag, keep = _gradients(lambda a, b: _smooth_strips(padded, taps, a, b, halo=2), h, w)
    peak = float(mag.max())
    weak = mag >= max(low * peak, _NOISE_MAGNITUDE)
    strong = mag >= max(high * peak, _NOISE_MAGNITUDE)
    # hysteresis runs without the magnitude and the padded source
    del mag, padded
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
