"""Square-symmetry toolkit for facial key point analysis.

Exact dihedral group algebra, a 24-point facial key point model with
mirror pairing, midline and asymmetry measurement, FACS rule tables with
geometric activation detection, a bit-exact raster pipeline, and orbit
augmentation, all wired into one CLI.
"""

from importlib import import_module

# Public names by defining module, in import order; __all__ is built from
# the same table, so each name is written once.
_EXPORTS = {
    "aus": ("ActionUnit", "AUActivation", "ClassificationResult", "Emotion", "classify_emotion",
            "detect_active_aus", "rule_tables"),
    "augment": ("act_on_image", "act_on_keypoints", "kernel_bank", "orbit", "transform_kernel"),
    "dihedral": ("GroupElement", "cayley_table", "compose", "element_name", "elements", "inverse",
                 "matrix_of", "parse_element", "power", "verify_group_axioms"),
    "face": ("FaceFrame", "FrameSequence", "KeyPoint", "build_frame", "counterpart",
             "interocular_distance", "load_frame", "load_sequence", "parse_frame",
             "serialize_frame"),
    "raster": ("RasterImage", "Rect", "bounding_rect", "canny_edges", "crop", "gaussian_smooth",
               "pad_to_square", "read_image", "to_grayscale", "write_image"),
    "symmetry": ("AsymmetryReport", "MidlineAxis", "estimate_midline", "movement_asymmetry",
                 "reconstruct_occluded", "reflect_about", "structural_asymmetry"),
}

__version__ = "0.1.0"

__all__ = ["__version__"]
for _module, _names in _EXPORTS.items():
    _source = import_module(f".{_module}", __name__)
    globals().update((_name, getattr(_source, _name)) for _name in _names)
    __all__ += _names
del _module, _names, _source, import_module
