"""Square-symmetry group action on images, key points, and kernels, plus
orbit generation for dataset augmentation.

The action convention is fixed once: element g moves the content, so the
output at position p shows the input at g^-1 p, with positions taken in
centered math coordinates (y up).  On the pixel lattice every one of the
eight transforms is a pure permutation — rotations by multiples of 90
degrees and axis flips — so nothing is interpolated and nothing is lost.
Even-sized images pivot about the half-integer center (w-1)/2, which the
permutation realizes exactly.
"""

from __future__ import annotations

from collections.abc import Collection
from pathlib import Path

from .dihedral import GroupElement, element_name, elements, matrix_of
from .errors import DfaceError, RasterShapeError
from .face import POINT_COUNT, FaceFrame, counterpart, load_frame, save_frame
from .formatting import np
from .raster import RasterImage, read_image, write_image
from .record import record


def _permute(g: GroupElement, arr: np.ndarray) -> np.ndarray:
    """The permutation that g's matrix M makes of the pixel lattice: the
    output at (x, y) shows the input at M^-1 (x, y), y up.  A diagonal M
    flips the columns where it negates x and the rows where it negates y; a
    quarter turn transposes, then flips.  ``matrix_of`` refuses an element
    outside D4."""
    (a, b), (c, d) = matrix_of(g).entries
    out = arr[::d, ::a] if b == 0 else arr.swapaxes(0, 1)[::-c, ::-b]
    return np.ascontiguousarray(out)


def act_on_image(g: GroupElement, img: RasterImage) -> RasterImage:
    """Permute pixels by g (see ``_permute``).  Quarter-turn elements
    transpose the output dimensions."""
    return RasterImage.from_array(_permute(g, img.array()))


def act_on_keypoints(
    g: GroupElement, frame: FaceFrame, center: tuple[float, float]
) -> FaceFrame:
    """Move every present key point to M(g) (p - center) + center.

    Coordinates are raster (y down); the matrix acts in y-up convention, so
    the vertical component is negated around the pivot.  Reflections swap
    anatomical sides, and the schema keys points by side, so each
    transformed coordinate, with its state and reconstructed flag, is stored
    under its mirror id: the frame stays canonical and the subject's left
    data lands in the slot now on the subject's left.
    """
    matrix = matrix_of(g)
    cx, cy = center
    ids = list(range(POINT_COUNT))
    if matrix.determinant < 0:
        ids = [counterpart(pid) for pid in ids]
    xy: list[tuple[float, float] | None] = [None] * POINT_COUNT
    for target, p in zip(ids, frame.xy):
        if p is not None:
            mx, my = matrix.apply((p[0] - cx, cy - p[1]))
            xy[target] = (cx + mx, cy - my)
    states = tuple(frame.states[pid] for pid in ids)  # ids is its own inverse
    return FaceFrame(tuple(xy), states, frozenset(ids[pid] for pid in frame.reconstructed))


def transform_kernel(g: GroupElement, kernel: np.ndarray) -> np.ndarray:
    """Same index permutation as the image action, applied to a square
    odd-sized convolution kernel; entry sum is preserved exactly."""
    k = np.asarray(kernel, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise RasterShapeError(f"kernel must be square, got shape {k.shape}")
    if k.shape[0] % 2 == 0:
        raise RasterShapeError(f"kernel side must be odd, got {k.shape[0]}")
    return _permute(g, k)


def kernel_bank(kernel: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """The eight transformed copies of a kernel, in canonical element
    order — the filter bank for symmetry-respecting convolution."""
    return [(element_name(g), transform_kernel(g, kernel)) for g in elements(4)]


@record
class OrbitEntry:
    element: str
    path: str
    sha256: str


@record
class OrbitManifest:
    source_id: str
    entries: tuple[OrbitEntry, ...]


def _suffix(img: RasterImage) -> str:
    return ".pgm" if img.channels == 1 else ".ppm"


def orbit(img: RasterImage, source_id: str = "image") -> tuple[OrbitManifest, dict[str, RasterImage]]:
    """All eight transformed images plus a manifest of content hashes.

    Only square images have a well-defined orbit here: a quarter turn of a
    non-square image changes its shape.  The number of distinct results,
    that is of distinct ``sha256`` values among the entries, always divides
    eight (it is 8 / |stabilizer|).
    """
    import hashlib
    if not img.is_square:
        raise RasterShapeError(
            f"orbit needs a square image, got {img.width}x{img.height}; "
            "pad_to_square first"
        )
    images: dict[str, RasterImage] = {}
    entries = []
    for g in elements(4):
        name = element_name(g)
        out = act_on_image(g, img)
        digest = hashlib.sha256(write_image(out)).hexdigest()
        images[name] = out
        entries.append(OrbitEntry(name, f"{source_id}__{name}{_suffix(out)}", digest))
    return OrbitManifest(source_id, tuple(entries)), images


@record
class AugmentSummary:
    processed: int
    written: int
    errors: tuple[tuple[str, str], ...]


def manifest_csv(manifests: list[OrbitManifest]) -> str:
    lines = ["source,element,path,sha256"]
    for m in manifests:
        for e in m.entries:
            lines.append(f"{m.source_id},{e.element},{e.path},{e.sha256}")
    return "\n".join(lines) + "\n"


def augment_dataset(
    in_dir: str | Path,
    out_dir: str | Path,
    chosen: Collection[GroupElement] | None = None,
    center: tuple[float, float] | None = None,
    require_square: bool = False,
) -> AugmentSummary:
    """Expand every image in ``in_dir`` into its orbit under the ``chosen``
    D4 elements (all eight by default), carrying along any key point file
    that shares the image's stem.

    Output naming is ``<stem>__<element>`` with the image's own suffix.
    Unreadable or non-square inputs are recorded in the summary and skipped
    unless ``require_square`` makes them fatal.  The manifest is sorted by
    input name then canonical element order, so reruns are byte-identical.
    """
    in_dir, out_dir = Path(in_dir), Path(out_dir)
    wanted = None if chosen is None else set(chosen)
    for g in wanted or ():
        matrix_of(g)  # refuses an element outside D4
    # listed before out_dir exists, so an unreadable in_dir leaves nothing behind
    sources = sorted(p for p in in_dir.iterdir() if p.suffix.lower() in (".pgm", ".ppm"))
    out_dir.mkdir(parents=True, exist_ok=True)
    manifests = []
    errors = []
    processed = written = 0
    for src in sources:
        try:
            img = read_image(src.read_bytes())
            manifest, images = orbit(img, src.stem)
            kept = [(g, entry) for g, entry in zip(elements(4), manifest.entries)
                    if wanted is None or g in wanted]
            kp_path = src.with_suffix(".csv")
            frame = load_frame(kp_path) if kp_path.exists() else None
            pivot = center if center is not None else ((img.width - 1) / 2.0, (img.height - 1) / 2.0)
            # Every element's key points move before any file is written, so
            # a frame that one element cannot move skips the image whole.
            moved = [None if frame is None else act_on_keypoints(g, frame, pivot)
                     for g, _ in kept]
        except DfaceError as exc:
            if require_square and isinstance(exc, RasterShapeError):
                raise
            errors.append((src.name, str(exc)))
            continue
        for (_, entry), points in zip(kept, moved):
            (out_dir / entry.path).write_bytes(write_image(images[entry.element]))
            if points is not None:
                save_frame((out_dir / entry.path).with_suffix(".csv"), points)
        written += len(kept)
        entries = tuple(entry for _, entry in kept)
        manifests.append(OrbitManifest(manifest.source_id, entries))
        processed += 1
    (out_dir / "manifest.csv").write_text(manifest_csv(manifests), encoding="utf-8")
    return AugmentSummary(processed, written, tuple(errors))
