"""Command line driver tying the whole pipeline together.

Exit codes: 0 success, 2 usage or configuration problem, 3 data problem.
Diagnostics go to stderr as ``error[<code>]: message``; machine-readable
results go to stdout or to files, and identical inputs always produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from .augment import act_on_image, augment_dataset, kernel_bank, orbit, write_orbits
from .aus import (
    activations_csv,
    classify_emotion,
    detect_active_aus,
)
from .config import REPORT_FORMATS, Config, load_config
from .dihedral import (
    axiom_report_csv,
    cayley_csv,
    parse_element,
    verify_group_axioms,
)
from .errors import DfaceError, DomainError, InsufficientPairsError, SchemaError, UsageError
from .face import FrameSequence, load_frame, load_sequence, serialize_frame
from .formatting import ascii_int, finite, fmt, np, ordered_mean, read_text, write_file
from .overlay import render_overlay
from .raster import (
    bounding_rect,
    canny_edges,
    crop,
    gaussian_smooth,
    pad_to_square,
    read_image,
    to_grayscale,
    write_image,
)
from .symmetry import (
    MidlineAxis,
    asymmetry_report,
    estimate_midline,
    movement_asymmetry,
    reconstruct_occluded,
    report_csv,
    structural_asymmetry,
)

# Largest n that `cayley` and `verify` accept: both do O(n^2) work, about
# 0.17 s end to end at 256 and over a second in-process at 1024.
MAX_ORDER = 256


def _positive_order(raw: str) -> int:
    """``raw`` as ASCII decimal digits naming an order in 1..MAX_ORDER."""
    n = ascii_int(raw)
    if n is None:
        raise UsageError(f"group order must be decimal digits, got {raw!r}")
    if not 1 <= n <= MAX_ORDER:
        raise UsageError(f"group order must be in 1..{MAX_ORDER}, got {n}")
    return n


def _element(raw: str):
    try:
        return parse_element(4, raw)
    except DomainError as exc:
        raise UsageError(str(exc)) from None


def _write_or_stdout(data: str | bytes, output: str | None) -> None:
    """Write ``data`` to the file ``output``, else to stdout: text as text,
    bytes through its buffer, which a text-only stdout lacks."""
    if output:
        write_file(output, data)
    elif isinstance(data, str):
        sys.stdout.write(data)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.buffer.write(data)
    else:
        raise OSError("stdout takes only text here; give -o FILE")


def _cmd_cayley(args, config: Config) -> int:
    sys.stdout.write(cayley_csv(_positive_order(args.n)))
    return 0


def _cmd_verify(args, config: Config) -> int:
    report = verify_group_axioms(_positive_order(args.n))
    sys.stdout.write(axiom_report_csv(report))
    return 0 if report.passed else 3


def _cmd_transform(args, config: Config) -> int:
    g = _element(args.element)
    img = read_image(Path(args.image).read_bytes())
    _write_or_stdout(write_image(act_on_image(g, img)), args.output)
    return 0


def _cmd_orbit(args, config: Config) -> int:
    img = read_image(Path(args.image).read_bytes())
    write_orbits(Path(args.outdir), [(*orbit(img, Path(args.image).stem), {})])
    return 0


def _parse_kernel(text: str) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.replace(",", " ").split()
        try:
            values = [float(t) for t in tokens]
        except ValueError:
            raise SchemaError(f"line {lineno}: bad kernel value") from None
        if not finite(*values):
            raise SchemaError(f"line {lineno}: kernel values must be finite")
        rows.append(values)
    if not rows:
        raise SchemaError("kernel file holds no rows")
    if len({len(r) for r in rows}) != 1:
        raise SchemaError("kernel rows have unequal lengths")
    return np.array(rows, dtype=np.float64)


def _cmd_kernels(args, config: Config) -> int:
    kernel = _parse_kernel(read_text(args.kernel_file, SchemaError, "kernel file is "))
    bank = kernel_bank(kernel)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.kernel_file).stem
    for name, mat in bank:
        lines = [",".join(fmt(v) for v in row) for row in mat]
        write_file(outdir / f"{stem}__{name}.csv", "\n".join(lines) + "\n")
    return 0


def _cmd_preprocess(args, config: Config) -> int:
    img = read_image(Path(args.image).read_bytes())
    gray = to_grayscale(img)
    # Smoothing here and again inside canny_edges is deliberate: the edges
    # see an effective sigma of canny_sigma * sqrt(2), and dropping either
    # pass would change the crop rectangle and the output bytes.
    smooth = gaussian_smooth(gray, config.canny_sigma)
    edges = canny_edges(smooth, config.canny_low, config.canny_high, config.canny_sigma)
    rect = bounding_rect(edges)
    square, _offset = pad_to_square(crop(gray, rect))
    if args.output:
        write_file(args.output, write_image(square))
    sys.stdout.write(rect.csv() + "\n")
    return 0


def _cmd_midline(args, config: Config) -> int:
    axis = estimate_midline(load_frame(args.frame))
    out = [
        f"point,{fmt(axis.point[0])},{fmt(axis.point[1])}",
        f"direction,{fmt(axis.direction[0])},{fmt(axis.direction[1])}",
        f"residual,{fmt(axis.fit_residual)}",
        f"degenerate,{1 if axis.degenerate else 0}",
    ]
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def _load_any_sequence(path: str) -> FrameSequence:
    p = Path(path)
    if p.is_dir():
        return load_sequence(p)
    return FrameSequence((load_frame(p),))


def _cmd_asymmetry(args, config: Config) -> int:
    seq = _load_any_sequence(args.path)
    axes = [estimate_midline(f) for f in seq.frames]
    if args.structural:
        scores = [structural_asymmetry(f, a) for f, a in zip(seq.frames, axes)]
        sys.stdout.write(fmt(ordered_mean(scores)) + "\n")
    elif args.movement:
        sys.stdout.write(fmt(movement_asymmetry(seq, axes)) + "\n")
    else:
        sys.stdout.write(report_csv(asymmetry_report(seq, axes)))
    return 0


def _finite_numbers(raw: str, count: int, name: str, form: str) -> tuple[float, ...]:
    """The ``count`` comma-separated finite numbers of option ``--<name>``."""
    parts = raw.split(",")
    if len(parts) != count:
        raise UsageError(f"--{name} takes {form}")
    try:
        values = tuple(float(t) for t in parts)
    except ValueError:
        raise UsageError(f"bad {name} {raw!r}") from None
    if not finite(*values):
        raise UsageError(f"bad {name} {raw!r}")
    return values


def _parse_axis(raw: str) -> MidlineAxis | None:
    if raw == "auto":
        return None
    x, y, dx, dy = _finite_numbers(raw, 4, "axis", "'auto' or 'x,y,dx,dy'")
    if dx == 0.0 and dy == 0.0:
        raise UsageError("axis direction must be nonzero")
    squared = dx * dx + dy * dy
    if not sys.float_info.min <= squared < math.inf:
        # The squares overflowed or lost bits below the normal range: scale
        # both sides by one power of two so that the longer is in [0.5, 1).
        # Only these directions are rescaled; the rest keep the plain
        # expression's bits.
        shift = -math.frexp(max(abs(dx), abs(dy)))[1]
        dx, dy = math.ldexp(dx, shift), math.ldexp(dy, shift)
        squared = dx * dx + dy * dy
    norm = squared ** 0.5
    return MidlineAxis((x, y), (dx / norm, dy / norm), 0.0)


def _cmd_reconstruct(args, config: Config) -> int:
    frame = load_frame(args.frame)
    restored = reconstruct_occluded(frame, _parse_axis(args.axis))
    _write_or_stdout(serialize_frame(restored), args.output)
    return 0


def _cmd_aus(args, config: Config) -> int:
    neutral, expr = load_frame(args.neutral), load_frame(args.expr)
    acts = detect_active_aus(neutral, expr, threshold=config.au_threshold)
    sys.stdout.write(activations_csv(acts))
    return 0


def _cmd_classify(args, config: Config) -> int:
    neutral, expr = load_frame(args.neutral), load_frame(args.expr)
    acts = detect_active_aus(neutral, expr, threshold=config.au_threshold)
    result = classify_emotion(acts, config.tie_order)
    if result.is_neutral:
        sys.stdout.write("Neutral\n")
        return 0
    for rank, (emotion, score) in enumerate(result.ranking, start=1):
        sys.stdout.write(f"{emotion.value},{score:.3f},rank={rank}\n")
    return 0


def _cmd_augment(args, config: Config) -> int:
    chosen = None
    if args.elements is not None:
        tokens = [t.strip() for t in args.elements.split(",")]
        chosen = [_element(t) for t in tokens if t]
        if not chosen:
            raise UsageError(f"--elements names no element, got {args.elements!r}")
    center = None
    if args.center is not None:
        center = _finite_numbers(args.center, 2, "center", "'x,y'")
    summary = augment_dataset(
        args.indir, args.outdir,
        chosen=chosen,
        center=center,
        require_square=args.require_square,
    )
    for name, message in summary.errors:
        print(f"error[data]: {name}: {message}", file=sys.stderr)
    sys.stdout.write(
        f"processed={summary.processed} written={summary.written} "
        f"errors={len(summary.errors)}\n"
    )
    return 0


def _cmd_report(args, config: Config) -> int:
    seq = load_sequence(args.seqdir)
    neutral = load_frame(args.neutral) if args.neutral else seq.frames[0]
    axes = [estimate_midline(f) for f in seq.frames]
    mode = args.report_format or config.report_format
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    if mode in ("csv", "both"):
        rows = ["frame,structural,movement_cumulative"]
        for i, frame in enumerate(seq.frames):
            structural = structural_asymmetry(frame, axes[i])
            if i == 0:
                cumulative = 0.0
            else:
                prefix = FrameSequence(seq.frames[: i + 1],
                                       interocular_ref=seq.interocular_ref)
                try:
                    cumulative = movement_asymmetry(prefix, axes[: i + 1])
                except InsufficientPairsError:
                    # No pair is tracked across any step yet; asymmetry_report
                    # scores such movement 0 too.
                    cumulative = 0.0
            rows.append(f"{i},{fmt(structural)},{fmt(cumulative)}")
        write_file(outdir / "asymmetry.csv", "\n".join(rows) + "\n")

        # Fill the neutral frame once here, not once per detect_active_aus
        # call, and each sequence frame (frame 0 too) about its fit above.
        if not neutral.complete:
            neutral = reconstruct_occluded(neutral, None if args.neutral else axes[0])
        rows = ["frame,label,score"]
        for i, frame in enumerate(seq.frames):
            expr = frame if frame.complete else reconstruct_occluded(frame, axes[i])
            acts = detect_active_aus(neutral, expr, threshold=config.au_threshold)
            result = classify_emotion(acts, config.tie_order)
            score = fmt(result.ranking[0][1]) if result.ranking else ""
            rows.append(f"{i},{result.label},{score}")
        write_file(outdir / "classification.csv", "\n".join(rows) + "\n")

    if mode in ("svg", "both"):
        for i, frame in enumerate(seq.frames):
            write_file(outdir / f"overlay_{i}.svg", render_overlay(frame, axes[i]))
    return 0


def _arg(*flags: str, **kwargs) -> tuple:
    return flags, kwargs


_OUTPUT = _arg("-o", "--output")

# One row per subcommand: name, help, handler, arguments.  An argument is a
# plain name, an _arg, or a list of _args that are mutually exclusive.
_COMMANDS = (
    ("cayley", "print the D_n multiplication table", _cmd_cayley, ("n",)),
    ("verify", "check the group axioms for D_n", _cmd_verify, ("n",)),
    ("transform", "apply one group element to an image", _cmd_transform,
     ("element", "image", _OUTPUT)),
    ("orbit", "write all 8 transformed images plus a manifest", _cmd_orbit, ("image", "outdir")),
    ("kernels", "write the 8-member transformed kernel bank", _cmd_kernels,
     ("kernel_file", "outdir")),
    ("preprocess", "grayscale, denoise, find edges, crop to their box, pad square",
     _cmd_preprocess, ("image", _OUTPUT)),
    ("midline", "estimate the facial midline of one frame", _cmd_midline, ("frame",)),
    ("asymmetry", "structural/movement asymmetry scores", _cmd_asymmetry, (
        _arg("path", help="frame CSV or sequence directory"),
        [_arg("--structural", action="store_true"), _arg("--movement", action="store_true")],
    )),
    ("reconstruct", "fill occluded points by mirroring", _cmd_reconstruct,
     ("frame", _arg("--axis", default="auto", help="'auto' or 'x,y,dx,dy'"), _OUTPUT)),
    ("aus", "detect activated action units", _cmd_aus, ("neutral", "expr")),
    ("classify", "rank basic emotions for an expression", _cmd_classify, ("neutral", "expr")),
    ("augment", "expand a dataset by the group orbit", _cmd_augment, (
        "indir", "outdir",
        _arg("--elements", help="comma list, e.g. 'e,r,sr2'"),
        _arg("--center", help="key point pivot 'x,y'"),
        _arg("--require-square", action="store_true"),
    )),
    ("report", "per-frame asymmetry and emotion report", _cmd_report, (
        "seqdir", "outdir",
        _arg("--report-format", choices=REPORT_FORMATS),
        _arg("--neutral", help="neutral frame CSV (default: first frame)"),
    )),
)


@functools.cache  # built on the first main() call; parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dface",
        description="Square-symmetry toolkit for facial key point analysis.",
    )
    parser.add_argument("--config", help="INI config path")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for argument in arguments:
            target, members = p, [argument]
            if isinstance(argument, list):
                target, members = p.add_mutually_exclusive_group(), argument
            for member in members:
                flags, kwargs = _arg(member) if isinstance(member, str) else member
                target.add_argument(*flags, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        for dest in ("config", "output", "outdir"):
            if getattr(args, dest, None) == "":
                raise UsageError(f"{dest} must name a path, got ''")
        config = load_config(args.config)
        return args.handler(args, config)
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error[memory]: {exc}", file=sys.stderr)
        return 3
    except DfaceError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_status
