"""Never a traceback: every file-reading command, fed arbitrary or mutated
bytes, exits 0, 2 or 3, and a nonzero exit explains itself as
``error[<code>]: ...`` on stderr.  A mirrored face at any scale the float
range can hold either scores as mirrored or is refused as degenerate."""

import contextlib
import io
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import frame_with, symmetric_coords
from dface.cli import main
from dface.face import build_frame, serialize_frame

_FRAME = serialize_frame(frame_with(symmetric_coords(), **{"2": None})).encode()
_MOVED = serialize_frame(frame_with(symmetric_coords(), **{"14": (75.0, 130.0)})).encode()
_INI = b"[sequence]\ninterocular_ref = 60\ntimestamps = 0,0.04\n"
_CONFIG = (
    b"[au]\nthreshold = 0.05\ntie_order = happiness,sadness,surprise,fear,anger,disgust\n"
    b"[canny]\nlow = 0.1\nhigh = 0.3\nsigma = 1.4\n[report]\nformat = csv\n"
)
_CANNY = b"[canny]\nlow = 0.1\nhigh = 0.3\nsigma = 1.4\n"
_PGM = b"P5\n4 3\n255\n" + bytes(range(0, 240, 20))
_PPM = b"P6\n2 2\n255\n" + bytes(range(12))
_KERNEL = b"# blur\n1,2,1\n2,4,2\n1,2,1\n"


@st.composite
def _mutated(draw, seed: bytes):
    """``seed`` after one to four byte edits, or arbitrary bytes."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=300))
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["replace", "replace", "insert", "delete", "truncate"]))
        if edit == "replace" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif edit == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif edit == "delete":
            del data[at:at + draw(st.integers(1, 8))]
        else:
            del data[at:]
    return bytes(data)


def _check(argv):
    """Run ``argv`` under a stdout with a byte buffer and under a text-only
    one: both end alike, and a nonzero exit explains itself."""
    ends = []
    for out in (io.TextIOWrapper(io.BytesIO()), io.StringIO()):
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), (code, err.getvalue())
        if code:
            assert err.getvalue().startswith("error["), err.getvalue()
        ends.append((code, err.getvalue()))
    assert ends[0] == ends[1]


_EXAMPLES = settings(max_examples=60)


@_EXAMPLES
@given(_mutated(_FRAME))
def test_midline_never_escapes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "frame.csv")
        path.write_bytes(data)
        _check(["midline", str(path)])


@_EXAMPLES
@given(st.sampled_from(["frame_0.csv", "frame_1.csv", "sequence.ini"]), st.data())
def test_sequence_asymmetry_never_escapes(target, data):
    files = {"frame_0.csv": _FRAME, "frame_1.csv": _MOVED, "sequence.ini": _INI}
    files[target] = data.draw(_mutated(files[target]))
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            Path(tmp, name).write_bytes(content)
        _check(["asymmetry", tmp])


@_EXAMPLES
@given(_mutated(_CONFIG))
def test_config_never_escapes(data):
    with tempfile.TemporaryDirectory() as tmp:
        config, neutral, expr = (Path(tmp, n) for n in ("c.ini", "n.csv", "e.csv"))
        config.write_bytes(data)
        neutral.write_bytes(_FRAME)
        expr.write_bytes(_MOVED)
        _check(["--config", str(config), "classify", str(neutral), str(expr)])


@_EXAMPLES
@given(_mutated(_CANNY))
@example(b"[canny]\nsigma = 100000\n")
@example(b"[canny]\nsigma = 1e300\n")
@example(b"[canny]\nsigma = 1e-300\n")
def test_preprocess_config_never_escapes(data):
    with tempfile.TemporaryDirectory() as tmp:
        config, image = Path(tmp, "c.ini"), Path(tmp, "image.pgm")
        config.write_bytes(data)
        image.write_bytes(_PGM)
        _check(["--config", str(config), "preprocess", str(image)])


@_EXAMPLES
@given(st.sampled_from([_PGM, _PPM]).flatmap(_mutated), st.sampled_from(["e", "r", "sr3"]))
def test_transform_never_escapes(data, element):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "image.pnm")
        path.write_bytes(data)
        _check(["transform", element, str(path), "-o", str(Path(tmp, "out.pnm"))])


@_EXAMPLES
@given(_mutated(_KERNEL))
def test_kernels_never_escapes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "kernel.txt")
        path.write_bytes(data)
        _check(["kernels", str(path), str(Path(tmp, "bank"))])


@_EXAMPLES
@given(st.integers(-320, 306))
@example(-320)  # smallest: coordinates are subnormal
@example(-160)  # the scatter falls below the normal range
@example(-150)  # the scatter is just inside it
@example(152)  # the scatter is just below overflow
@example(306)  # largest
def test_scaled_mirrored_face_is_mirrored_or_degenerate(exponent):
    # Scaled by editing the decimal exponent, so the CSV keeps the mirror exact.
    coords = {pid: (float(f"{x!r}e{exponent}"), float(f"{y!r}e{exponent}"))
              for pid, (x, y) in symmetric_coords().items()}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "frame.csv")
        path.write_text(serialize_frame(build_frame(coords)), encoding="utf-8")
        for argv in (["midline", str(path)], ["asymmetry", str(path), "--structural"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            if code:
                assert (code, out.getvalue()) == (3, ""), err.getvalue()
                assert err.getvalue().startswith("error[degenerate-face]:"), err.getvalue()
                continue
            rows = [line.split(",") for line in out.getvalue().splitlines()]
            if argv[0] == "midline":
                rows = [row[1:] for row in rows]  # drop the row labels
            numbers = [float(v) for row in rows for v in row]
            assert all(math.isfinite(v) for v in numbers), rows
            if argv[0] == "asymmetry":
                assert len(numbers) == 1 and numbers[0] < 1e-9, rows
