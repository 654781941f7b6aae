"""The package's public surface: the names `dface` exports and the module
each one comes from."""

import ast
import importlib
from pathlib import Path

import dface

# name -> the dface module that defines it
PUBLIC = {
    "ActionUnit": "aus",
    "AUActivation": "aus",
    "ClassificationResult": "aus",
    "Emotion": "aus",
    "classify_emotion": "aus",
    "detect_active_aus": "aus",
    "rule_tables": "aus",
    "act_on_image": "augment",
    "act_on_keypoints": "augment",
    "kernel_bank": "augment",
    "orbit": "augment",
    "transform_kernel": "augment",
    "GroupElement": "dihedral",
    "cayley_table": "dihedral",
    "compose": "dihedral",
    "element_name": "dihedral",
    "elements": "dihedral",
    "inverse": "dihedral",
    "matrix_of": "dihedral",
    "parse_element": "dihedral",
    "power": "dihedral",
    "verify_group_axioms": "dihedral",
    "FaceFrame": "face",
    "FrameSequence": "face",
    "KeyPoint": "face",
    "build_frame": "face",
    "counterpart": "face",
    "interocular_distance": "face",
    "load_frame": "face",
    "load_sequence": "face",
    "parse_frame": "face",
    "serialize_frame": "face",
    "RasterImage": "raster",
    "Rect": "raster",
    "bounding_rect": "raster",
    "canny_edges": "raster",
    "crop": "raster",
    "gaussian_smooth": "raster",
    "pad_to_square": "raster",
    "read_image": "raster",
    "to_grayscale": "raster",
    "write_image": "raster",
    "AsymmetryReport": "symmetry",
    "MidlineAxis": "symmetry",
    "estimate_midline": "symmetry",
    "movement_asymmetry": "symmetry",
    "reconstruct_occluded": "symmetry",
    "reflect_about": "symmetry",
    "structural_asymmetry": "symmetry",
}


def test_all_lists_exactly_the_public_names():
    assert len(dface.__all__) == len(set(dface.__all__)) == 50
    assert set(dface.__all__) == set(PUBLIC) | {"__version__"}
    assert dface.__version__ == "0.1.0"


def test_each_public_name_is_its_defining_module_object():
    for name, module in PUBLIC.items():
        source = importlib.import_module(f"dface.{module}")
        assert getattr(dface, name) is getattr(source, name), name
        assert getattr(dface, name).__module__ == f"dface.{module}", name


def test_only_the_package_declares_all():
    # a second, per-module export list drifts from the package's one
    assigners = []
    for path in sorted(Path(dface.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                assigners.append(path.name)
    assert set(assigners) == {"__init__.py"}
