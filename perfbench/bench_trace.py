"""Spans at the module boundaries of ``dface``, recorded from outside.

A traced pass swaps each public function that one ``dface`` module imports
from another for a wrapper in the importing module's namespace (so
``dface.cli.movement_asymmetry`` and ``dface.aus.reconstruct_occluded`` are
wrapped, but calls inside ``dface.symmetry`` are not).  Wrapping every name,
including ``reflect_about`` inside ``symmetry``, records close to a million
spans per ``report`` and doubles its time; boundary spans cost little.  The
one exception is ``augment``, whose orbit, pixel-permutation and key-point
stages are also wrapped inside the module, so that its per-stage times can
be told apart; they run about a thousand times per pass.

``config``, ``formatting`` and ``errors`` are glue of the ``cli`` layer and
get no spans; their time lands in whichever span calls them.  Spans are
kept in memory and reduced to per-layer metrics after each pass.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("dihedral", "face", "symmetry", "aus", "overlay", "raster", "augment")
CALLER_MODULES = ("cli", "aus", "augment", "overlay", "symmetry", "face", "raster", "dihedral")
INTRA_STAGES = {"augment": ("orbit", "act_on_image", "act_on_keypoints")}
ROOT = "cli.main"

# Exact counts taken from the arguments or result of one boundary call.
COUNTERS = {
    "face.load_frame": lambda a, r: {"face.frames_parsed": 1},
    "face.parse_frame": lambda a, r: {"face.frames_parsed": 1},
    "face.load_sequence": lambda a, r: {"face.frames_parsed": len(r.frames)},
    "face.serialize_frame": lambda a, r: {"face.frames_written": 1},
    "face.save_frame": lambda a, r: {"face.frames_written": 1},
    "symmetry.movement_asymmetry":
        lambda a, r: {"symmetry.movement_frames_scanned": len(a[0].frames)},
    "symmetry.reconstruct_occluded":
        lambda a, r: {"symmetry.points_reconstructed": len(a[0].missing_ids())},
    "aus.detect_active_aus": lambda a, r: {"aus.fired": sum(1 for x in r if x.active)},
    "overlay.render_overlay": lambda a, r: {"overlay.svg_bytes": len(r.encode("utf-8"))},
    "raster.canny_edges": lambda a, r: {
        "raster.canny_pixels": r.width * r.height,
        "raster.edge_share_sum": r.samples.count(b"\xff") / (r.width * r.height),
    },
    "raster.read_image": lambda a, r: {"raster.bytes_read": len(a[0])},
    "raster.write_image": lambda a, r: {"raster.bytes_written": len(r)},
    "augment.augment_dataset":
        lambda a, r: {"augment.images_written": r.written, "augment.skipped": len(r.errors)},
}

# Self time (span minus the part its child spans cover) summed over functions.
SELF_TIME = {
    "symmetry.movement_s": ("symmetry.movement_asymmetry",),
    "symmetry.midline_s": ("symmetry.estimate_midline",),
    "symmetry.structural_s": ("symmetry.structural_asymmetry", "symmetry.asymmetry_report",
                              "symmetry.report_csv"),
    "symmetry.reconstruct_s": ("symmetry.reconstruct_occluded",),
    "face.parse_s": ("face.load_frame", "face.parse_frame", "face.load_sequence"),
    "face.serialize_s": ("face.serialize_frame", "face.save_frame"),
    "aus.detect_s": ("aus.detect_active_aus",),
    "aus.classify_s": ("aus.classify_emotion", "aus.activations_csv"),
    "overlay.render_s": ("overlay.render_overlay",),
    "raster.canny_s": ("raster.canny_edges",),
    "raster.smooth_s": ("raster.gaussian_smooth",),
    "raster.gray_s": ("raster.to_grayscale",),
    "raster.crop_pad_s": ("raster.bounding_rect", "raster.crop", "raster.pad_to_square"),
    "raster.read_s": ("raster.read_image",),
    "raster.write_s": ("raster.write_image",),
    "augment.dataset_self_s": ("augment.augment_dataset",),
    "augment.orbit_s": ("augment.orbit", "augment.act_on_image"),
    "augment.act_on_image_s": ("augment.act_on_image",),
    "augment.keypoints_s": ("augment.act_on_keypoints",),
    "dihedral.verify_s": ("dihedral.verify_group_axioms", "dihedral.axiom_report_csv"),
    "dihedral.cayley_s": ("dihedral.cayley_csv",),
    "cli.self_s": (ROOT,),
}

CALLS = {
    "symmetry.movement_calls": "symmetry.movement_asymmetry",
    "symmetry.midline_calls": "symmetry.estimate_midline",
    "aus.detect_calls": "aus.detect_active_aus",
    "augment.act_on_image_calls": "augment.act_on_image",
    "cli.commands": ROOT,
}

COUNTED = ("face.frames_parsed", "face.frames_written", "symmetry.movement_frames_scanned",
           "symmetry.points_reconstructed", "aus.fired", "overlay.svg_bytes",
           "raster.bytes_read", "raster.bytes_written", "augment.images_written",
           "augment.skipped")


class Tracer:
    """Installs boundary wrappers for the duration of a traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [key, parent index, start ns, end ns]
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, key: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [key, stack[-1], 0, 0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter_ns()
                stack.pop()
            if count is not None:
                counts.update(count(args, result))
            return result

        return wrapper

    def install(self) -> None:
        for caller in CALLER_MODULES:
            module = sys.modules[f"dface.{caller}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                crosses = layer != caller and layer in LAYERS
                if crosses or name in INTRA_STAGES.get(caller, ()):
                    self._saved.append((module, name, obj))
                    setattr(module, name, self._wrap(f"{layer}.{name}", obj))

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._saved):
            setattr(module, name, obj)
        self._saved.clear()

    def command(self, main, argv):
        """Run one CLI command as the root span of the cli layer."""
        return self._wrap(ROOT, main)(argv)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times, call counts and exact counts of the spans
        recorded since the last reset."""
        covered = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_ns: defaultdict[str, int] = defaultdict(int)
        calls: Counter = Counter()
        for i, (key, _, start, end) in enumerate(self.spans):
            self_ns[key] += end - start - covered[i]
            calls[key] += 1
        out = {name: sum(self_ns[k] for k in keys) / 1e9 for name, keys in SELF_TIME.items()}
        out.update({name: calls[key] for name, key in CALLS.items()})
        out.update({name: self.counts[name] for name in COUNTED})
        detects = calls["aus.detect_active_aus"]
        out["symmetry.reconstruct_calls_per_frame"] = (
            calls["symmetry.reconstruct_occluded"] / detects if detects else 0.0)
        canny_s = out["raster.canny_s"]
        out["raster.canny_mpix_per_s"] = (
            self.counts["raster.canny_pixels"] / canny_s / 1e6 if canny_s else 0.0)
        cannies = calls["raster.canny_edges"]
        out["raster.edge_frac"] = (
            self.counts["raster.edge_share_sum"] / cannies if cannies else 0.0)
        return out
