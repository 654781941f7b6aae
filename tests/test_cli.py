"""End-to-end command line behavior: outputs, exit codes, configuration."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dface
from conftest import frame_with, rigid_motion, symmetric_coords, write_golden_sequence
from dface.cli import MAX_ORDER, _parse_axis, main
from dface.config import MAX_SIGMA
from dface.dihedral import cayley_csv
from dface.face import PointState, build_frame, load_frame, save_frame, serialize_frame
from dface.formatting import fmt
from dface.raster import RasterImage, read_image, write_image
from dface.symmetry import reconstruct_occluded, structural_asymmetry

HAPPY_MOVES = {"14": (75.0, 134.0), "17": (125.0, 134.0)}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_frame(path, coords=None, **overrides):
    coords = symmetric_coords() if coords is None else coords
    save_frame(path, frame_with(coords, **overrides))
    return path


def write_pgm(path, arr):
    img = RasterImage.from_array(np.asarray(arr, dtype=np.uint8))
    path.write_bytes(write_image(img))
    return img


def test_cayley_stdout(capsys):
    code, out, err = run(capsys, "cayley", "4")
    assert code == 0 and err == ""
    assert out == cayley_csv(4)
    assert out.splitlines()[0] == "e,r,r2,r3,s,sr,sr2,sr3"


def test_cayley_rejects_bad_order(capsys):
    code, out, err = run(capsys, "cayley", "0")
    assert code == 2
    assert err.startswith("error[usage]:")
    code, _, err = run(capsys, "cayley", "four")
    assert code == 2 and "usage" in err


@pytest.mark.parametrize("command", ["cayley", "verify"])
@pytest.mark.parametrize("n", ["1_0", "\u0664", "+8", " 8", "-1", "8.0", "",
                               pytest.param("1" * 5000, id="5000-digits")])
def test_group_order_is_ascii_decimal_digits(capsys, command, n):
    # int() used to read "1_0" as 10 and "\u0664" (Arabic-Indic four) as 4
    code, out, err = run(capsys, command, n)
    assert (code, out) == (2, "")
    assert err == f"error[usage]: group order must be decimal digits, got {n!r}\n"
    assert run(capsys, command, "008")[:2] == run(capsys, command, "8")[:2]


@pytest.mark.parametrize("command", ["cayley", "verify"])
def test_group_order_is_bounded(capsys, command):
    for n in (MAX_ORDER + 1, 100000):
        start = time.perf_counter()
        code, out, err = run(capsys, command, str(n))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"error[usage]: group order must be in 1..{MAX_ORDER}, got {n}\n"


def test_exit_status_is_set_on_the_error_class():
    errors = [c for c in vars(dface.errors).values()
              if isinstance(c, type) and issubclass(c, dface.errors.DfaceError)]
    assert len(errors) > 10
    two = {c.__name__ for c in errors if c.exit_status == 2}
    assert two == {"ConfigError", "UsageError"}
    assert all(c.exit_status in (2, 3) for c in errors)


def test_readme_lists_every_error_code_with_its_exit_status():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Exit codes\n", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `([a-z-]+)` \| (\d) \|", section, re.M))
    errors = [c for c in vars(dface.errors).values() if isinstance(c, type)
              and issubclass(c, dface.errors.DfaceError) and c is not dface.errors.DfaceError]
    assert len(errors) == 14
    for c in errors:
        assert rows.get(c.code) == str(c.exit_status), c.__name__
    assert (rows["io"], rows["memory"], rows["data"]) == ("3", "3", "0")


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_verify_passes(capsys):
    code, out, err = run(capsys, "verify", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check,status,detail"
    assert all(",pass," in line or line.endswith(",pass") or ",pass" in line
               for line in lines[1:])


def test_transform_identity_bytes(tmp_path, capsys):
    src = tmp_path / "in.pgm"
    write_pgm(src, np.arange(9).reshape(3, 3))
    out_path = tmp_path / "out.pgm"
    code, _, err = run(capsys, "transform", "e", str(src), "-o", str(out_path))
    assert code == 0 and err == ""
    assert out_path.read_bytes() == src.read_bytes()


def test_transform_stdout_bytes(tmp_path, capsysbinary):
    src = tmp_path / "in.pgm"
    img = write_pgm(src, [[1, 2], [3, 4]])
    code = main(["transform", "r2", str(src)])
    out = capsysbinary.readouterr().out
    assert code == 0
    rotated = read_image(out)
    assert rotated.array().tolist() == [[4, 3], [2, 1]]
    assert sorted(rotated.samples) == sorted(img.samples)


def test_transform_bad_element(tmp_path, capsys):
    src = tmp_path / "in.pgm"
    write_pgm(src, [[0]])
    code, _, err = run(capsys, "transform", "q", str(src))
    assert code == 2 and err.startswith("error[usage]:")
    # exponents reduce modulo the order, so r9 is just another name for r
    code, _, err = run(capsys, "transform", "r9", str(src), "-o", str(src) + ".out")
    assert code == 0


@pytest.mark.parametrize("element", ["r\u00b2", "r\u0663",
                                     pytest.param("r" + "1" * 5000, id="r-5000-digits")])
def test_element_exponent_is_ascii_decimal_digits(tmp_path, capsys, element):
    # "r\u00b2" let int() raise a bare ValueError out of main()
    src = tmp_path / "in.pgm"
    write_pgm(src, [[0]])
    code, out, err = run(capsys, "transform", element, str(src), "-o", str(tmp_path / "o.pgm"))
    assert (code, out, err) == (2, "", f"error[usage]: unknown element name {element!r}\n")
    code, out, err = run(capsys, "augment", str(tmp_path), str(tmp_path / "out"),
                         "--elements", element)
    assert (code, out, err) == (2, "", f"error[usage]: unknown element name {element!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.pgm"]


@pytest.mark.parametrize("argv, dest", [
    (["transform", "e", "{img}", "-o", ""], "output"),
    (["transform", "e", "{img}", "--output="], "output"),
    (["preprocess", "{img}", "-o", ""], "output"),
    (["reconstruct", "{frame}", "-o", ""], "output"),
    (["orbit", "{img}", ""], "outdir"),
    (["kernels", "{kernel}", ""], "outdir"),
    (["augment", ".", ""], "outdir"),
    (["report", "{seq}", ""], "outdir"),
    (["--config", "", "cayley", "2"], "config"),
])
def test_an_empty_output_path_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, dest):
    # -o "" used to mean no -o, an empty outdir the current directory, and
    # --config "" read the current directory as the config file
    paths = {"img": tmp_path / "a.pgm", "frame": tmp_path / "f.csv",
             "kernel": tmp_path / "k.csv", "seq": tmp_path / "seq"}
    write_pgm(paths["img"], np.full((8, 8), 9))
    write_frame(paths["frame"])
    paths["kernel"].write_text("1,2,1\n", encoding="utf-8")
    write_golden_sequence(paths["seq"])
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert (code, out, err) == (2, "", f"error[usage]: {dest} must name a path, got ''\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_an_empty_config_environment_means_no_config_file(capsys, monkeypatch):
    monkeypatch.setenv("DFACE_CONFIG", "")
    code, out, err = run(capsys, "cayley", "2")
    assert (code, err) == (0, "") and out.startswith("e,")


def _capped_preprocess(tmp_path, side: int) -> tuple[subprocess.CompletedProcess, Path]:
    """A fresh ``dface preprocess`` of a side x side noise PGM with its
    address space capped at 250 MiB, and the path of its output."""
    resource = pytest.importorskip("resource")
    src, dst = tmp_path / "big.pgm", tmp_path / "out.pgm"
    noise = np.random.default_rng(0).integers(0, 256, (side, side), dtype=np.uint8)
    write_pgm(src, noise)
    limit = 250 << 20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(Path(dface.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    env.pop("DFACE_CONFIG", None)
    proc = subprocess.run([sys.executable, "-m", "dface", "preprocess", str(src), "-o", str(dst)],
                          env=env, preexec_fn=cap_address_space, capture_output=True,
                          text=True, timeout=60)
    return proc, dst


def test_out_of_memory_is_a_memory_error(tmp_path):
    # numpy's allocation failure used to escape main() as a traceback
    proc, dst = _capped_preprocess(tmp_path, 4000)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error[memory]:") and "Traceback" not in proc.stderr
    assert not dst.exists()


def test_preprocess_fits_a_large_image_under_the_memory_cap(tmp_path):
    # whole-plane float64 smoothing ran out of memory here; the strip
    # passes keep only the gradient magnitude as a whole float plane
    proc, dst = _capped_preprocess(tmp_path, 2500)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1,1,2499,2499\n", "")
    assert dst.stat().st_size == len(b"P5\n2498 2498\n255\n") + 2498 * 2498


def test_transform_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "transform", "e", str(tmp_path / "nope.pgm"))
    assert code == 3 and err.startswith("error[io]:")


def test_transform_corrupt_image(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n2 2\n255\n\x00")
    code, _, err = run(capsys, "transform", "e", str(bad))
    assert code == 3 and err.startswith("error[image-format]:")


def test_transform_zero_width_image(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n0 1\n255\n")
    code, out, err = run(capsys, "transform", "e", str(bad))
    assert (code, out, err) == (3, "", "error[image-format]: bad dimensions 0x1\n")


def test_orbit_writes_files_and_manifest(tmp_path, capsys):
    src = tmp_path / "probe.pgm"
    write_pgm(src, np.arange(16).reshape(4, 4))
    outdir = tmp_path / "orbit"
    code, out, err = run(capsys, "orbit", str(src), str(outdir))
    assert code == 0 and err == ""
    names = sorted(p.name for p in outdir.iterdir())
    assert "manifest.csv" in names
    assert len(names) == 9
    lines = (outdir / "manifest.csv").read_text().splitlines()
    assert lines[0] == "source,element,path,sha256"
    assert len(lines) == 9


def test_orbit_non_square_is_data_error(tmp_path, capsys):
    src = tmp_path / "wide.pgm"
    write_pgm(src, np.zeros((2, 3)))
    code, _, err = run(capsys, "orbit", str(src), str(tmp_path / "o"))
    assert code == 3 and err.startswith("error[shape]:")


def test_kernels_bank(tmp_path, capsys):
    kfile = tmp_path / "sobel.csv"
    kfile.write_text("-1,0,1\n-2,0,2\n-1,0,1\n")
    outdir = tmp_path / "bank"
    code, _, err = run(capsys, "kernels", str(kfile), str(outdir))
    assert code == 0 and err == ""
    names = sorted(p.name for p in outdir.iterdir())
    assert names == sorted(
        f"sobel__{n}.csv" for n in ["e", "r", "r2", "r3", "s", "sr", "sr2", "sr3"]
    )
    assert (outdir / "sobel__e.csv").read_text() == "-1,0,1\n-2,0,2\n-1,0,1\n"
    assert (outdir / "sobel__r.csv").read_text() == "1,2,1\n0,0,0\n-1,-2,-1\n"


def test_kernels_accepts_comments_and_spaces(tmp_path, capsys):
    kfile = tmp_path / "k.txt"
    kfile.write_text("# 3x3 box\n1 1 1\n1 1 1\n\n1 1 1\n")
    code, _, _ = run(capsys, "kernels", str(kfile), str(tmp_path / "bank"))
    assert code == 0


def test_kernels_rejects_bad_file(tmp_path, capsys):
    kfile = tmp_path / "k.csv"
    kfile.write_text("1,2\n3\n")
    code, _, err = run(capsys, "kernels", str(kfile), str(tmp_path / "bank"))
    assert code == 3 and err.startswith("error[schema]:")
    kfile.write_text("1,x\n")
    code, _, err = run(capsys, "kernels", str(kfile), str(tmp_path / "bank"))
    assert code == 3 and "line 1" in err


@pytest.mark.parametrize("text", ["1,nan\n2,3\n", "1 2\n-inf 3\n"])
def test_kernels_rejects_non_finite_entries(tmp_path, capsys, text):
    kfile = tmp_path / "k.csv"
    kfile.write_text(text)
    code, _, err = run(capsys, "kernels", str(kfile), str(tmp_path / "bank"))
    assert code == 3 and err.startswith("error[schema]:") and "finite" in err


def test_preprocess_square_output(tmp_path, capsys):
    arr = np.zeros((24, 20), dtype=np.uint8)
    arr[8:16, 6:14] = 255
    src = tmp_path / "scene.pgm"
    write_pgm(src, arr)
    out_path = tmp_path / "face.pgm"
    code, out, err = run(capsys, "preprocess", str(src), "-o", str(out_path))
    assert code == 0 and err == ""
    x0, y0, x1, y1 = (int(t) for t in out.strip().split(","))
    assert 0 <= x0 < x1 <= 20 and 0 <= y0 < y1 <= 24
    # the detected box surrounds the bright square
    assert x0 <= 6 and x1 >= 14 and y0 <= 8 and y1 >= 16
    result = read_image(out_path.read_bytes())
    assert result.is_square


def test_preprocess_blank_image_fails(tmp_path, capsys):
    src = tmp_path / "flat.pgm"
    write_pgm(src, np.full((12, 12), 60))
    code, _, err = run(capsys, "preprocess", str(src))
    assert code == 3 and err.startswith("error[domain]:")


def test_preprocess_flat_image_fails_at_any_gray_level(tmp_path, capsys):
    # at 77 and 128 the smoothed sums round apart, which once made edges
    for value in (1, 77, 128, 254):
        src = tmp_path / f"flat{value}.pgm"
        write_pgm(src, np.full((12, 12), value))
        code, _, err = run(capsys, "preprocess", str(src))
        assert code == 3 and err.startswith("error[domain]:"), value


def test_preprocess_golden_double_smoothing(tmp_path, capsys):
    # preprocess smooths and Canny smooths again (effective sigma 1.4 * sqrt(2));
    # the rectangle and the output bytes pin that decision
    rng = np.random.default_rng(4)
    yy, xx = np.mgrid[0:90, 0:120]
    disk = (xx - 70.0) ** 2 + (yy - 40.0) ** 2 <= 22.0 ** 2
    arr = np.where(disk, 180, 40) + rng.integers(-25, 26, (90, 120))
    src = tmp_path / "disk.pgm"
    write_pgm(src, np.clip(arr, 0, 255))
    out_path = tmp_path / "face.pgm"
    code, out, err = run(capsys, "preprocess", str(src), "-o", str(out_path))
    assert (code, out, err) == (0, "48,18,93,63\n", "")
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "058526e2df96ef09ccbbb22f3161f452199b376611b7ed033cd58678ef861785"
    )


def test_midline_golden(tmp_path, capsys):
    frame_path = write_frame(tmp_path / "f.csv")
    code, out, err = run(capsys, "midline", str(frame_path))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[1] == "direction,0,1"
    assert lines[2] == "residual,0"
    assert lines[3] == "degenerate,0"
    assert lines[0].startswith("point,100,")


@pytest.mark.parametrize("command", ["midline", "asymmetry"])
def test_overflowing_midline_fit_is_an_error(tmp_path, capsys, command):
    # Largest coordinate 1e306: the midpoint scatter overflows, which used to
    # print NaN with exit 0 and a numpy RuntimeWarning.
    coords = symmetric_coords()
    scale = 1e306 / max(max(abs(x), abs(y)) for x, y in coords.values())
    huge = {pid: (x * scale, y * scale) for pid, (x, y) in coords.items()}
    frame_path = write_frame(tmp_path / "f.csv", huge)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, command, str(frame_path))
    assert (code, out, caught) == (3, "", [])
    assert err.startswith("error[degenerate-face]: midline fit overflows")


TURNED_1E_100 = {
    "midline": "point,3.71788619e-99,1.40527514e-98\ndirection,-0.479425539,0.877582562\n"
               "residual,1.51426551e-09\ndegenerate,0\n",
    "asymmetry": "4.49052858e-09\n",
}


@pytest.mark.parametrize("command", ["midline", "asymmetry"])
def test_subnormal_midline_scatter_is_an_error(tmp_path, capsys, command):
    # The fixture turned by 0.5 rad and scaled by 1e-300 used to print the
    # axis direction 0,1 and a structural score of 0.500562853, with exit 0.
    argv = [command] + (["--structural"] if command == "asymmetry" else [])
    turned = {scale: rigid_motion(symmetric_coords(), 0.5, (0.0, 0.0), scale)
              for scale in (1e-300, 1e-100)}
    tiny = write_frame(tmp_path / "tiny.csv", turned[1e-300])
    code, out, err = run(capsys, *argv, str(tiny))
    assert (code, out) == (3, "")
    assert err.startswith("error[degenerate-face]: midline fit underflows")
    small = write_frame(tmp_path / "small.csv", turned[1e-100])
    assert run(capsys, *argv, str(small)) == (0, TURNED_1E_100[command], "")


def test_asymmetry_structural_scalar(tmp_path, capsys):
    frame_path = write_frame(tmp_path / "f.csv")
    code, out, err = run(capsys, "asymmetry", str(frame_path), "--structural")
    assert code == 0 and out == "0\n"


def test_asymmetry_full_report(tmp_path, capsys):
    frame_path = write_frame(tmp_path / "f.csv")
    code, out, _ = run(capsys, "asymmetry", str(frame_path))
    lines = out.splitlines()
    assert lines[0] == "metric,region,value"
    assert lines[1] == "structural,all,0"
    assert lines[-1] == "frames_used,all,1"


def test_asymmetry_movement_needs_sequence(tmp_path, capsys):
    frame_path = write_frame(tmp_path / "f.csv")
    code, _, err = run(capsys, "asymmetry", str(frame_path), "--movement")
    assert code == 3 and err.startswith("error[insufficient-frames]:")


def test_asymmetry_sequence_directory(tmp_path, capsys):
    seqdir = tmp_path / "seq"
    seqdir.mkdir()
    write_frame(seqdir / "frame_0.csv")
    write_frame(seqdir / "frame_1.csv", **{"14": (75.0, 152.0)})
    code, out, _ = run(capsys, "asymmetry", str(seqdir), "--movement")
    assert code == 0
    assert float(out) == pytest.approx(0.02)


def test_asymmetry_structural_sequence_needs_no_reference(tmp_path, capsys):
    # frame 0 lacks an eye point and there is no sequence.ini, so movement
    # has no reference length; the mean structural score needs none
    seqdir = tmp_path / "seq"
    seqdir.mkdir()
    write_frame(seqdir / "frame_0.csv", **{"9": None, "17": (127.0, 140.0)})
    write_frame(seqdir / "frame_1.csv", **{"14": (75.0, 152.0)})
    scores = [structural_asymmetry(load_frame(seqdir / f"frame_{i}.csv")) for i in (0, 1)]
    code, out, err = run(capsys, "asymmetry", str(seqdir), "--structural")
    assert code == 0 and err == ""
    assert out == fmt(sum(scores) / 2) + "\n"
    code, _, err = run(capsys, "asymmetry", str(seqdir))
    assert code == 3 and err.startswith("error[missing-point]:")


def test_asymmetry_no_tracked_pair(tmp_path, capsys):
    # each pair is complete in one frame only: the report scores movement
    # 0, the scalar movement score refuses
    seqdir = tmp_path / "seq"
    seqdir.mkdir()
    write_frame(seqdir / "frame_0.csv", **{str(pid): None for pid in (0, 1, 2, 6, 7)})
    write_frame(seqdir / "frame_1.csv", **{str(pid): None for pid in (8, 9, 14, 15, 16)})
    (seqdir / "sequence.ini").write_text("[sequence]\ninterocular_ref = 60\n")
    code, out, _ = run(capsys, "asymmetry", str(seqdir))
    assert code == 0
    assert "movement,all,0" in out.splitlines()
    code, _, err = run(capsys, "asymmetry", str(seqdir), "--movement")
    assert code == 3 and err.startswith("error[insufficient-pairs]:")


@pytest.mark.parametrize(
    "ini",
    [
        b"\xff\xfe[sequence]\ninterocular_ref = 60\n",
        b"interocular_ref = 60\n",
        b"[sequence]\ninterocular_ref = sixty\n",
        b"[sequence]\ntimestamps = 0,x\n",
        b"[sequence]\ntimestamps = 0%,1\n",
        b"[sequence]\ninterocular_ref = nan\n",
        b"[sequence]\ninterocular_ref = inf\n",
        b"[sequence]\ntimestamps = 0,nan\n",
        b"[sequence]\ntimestamps = 0,inf\n",
    ],
    ids=[
        "non-utf8", "no-section", "ref-not-number", "timestamp-not-number",
        "bad-interpolation", "ref-nan", "ref-inf", "timestamp-nan", "timestamp-inf",
    ],
)
def test_bad_sequence_ini_is_schema_error(tmp_path, capsys, ini):
    seqdir = tmp_path / "seq"
    seqdir.mkdir()
    write_frame(seqdir / "frame_0.csv")
    write_frame(seqdir / "frame_1.csv", **HAPPY_MOVES)
    (seqdir / "sequence.ini").write_bytes(ini)
    code, out, err = run(capsys, "asymmetry", str(seqdir))
    assert (code, out) == (3, "") and err.startswith("error[schema]:")


# one INI reader serves both files, so both refuse the same slips; each case
# used to exit 0, the typo'd interocular_ref normalising by frame 0's eyes
# instead.  A config already refused them in a named section
# (test_config_unknown_key, test_config_unknown_section), not under [DEFAULT].
@pytest.mark.parametrize(
    "name, text, message",
    [
        ("sequence.ini", "[sequence]\ninterocular_reff = 30\n",
         "error[schema]: unknown key 'interocular_reff' in section [sequence]"),
        ("sequence.ini", "[sequence]\ninterocular_ref = 30\n[extra]\nx = 1\n",
         "error[schema]: unknown sequence.ini section [extra]"),
        ("sequence.ini", "[DEFAULT]\ninterocular_ref = 30\n[sequence]\n",
         "error[schema]: unknown sequence.ini section [DEFAULT]"),
        ("config", "[DEFAULT]\nthresholdd = 0.1\n",
         "error[config]: unknown config section [DEFAULT]"),
        ("config", "[DEFAULT]\n[au]\nthreshold = 0.1\n",
         "error[config]: unknown config section [DEFAULT]"),
        ("config", "[DEFAULT]\nthreshold = 0.1\n[au]\n",
         "error[config]: unknown config section [DEFAULT]"),
    ],
    ids=["ini-typo", "ini-section", "ini-default", "config-typo", "config-section", "config-default"],
)
def test_unknown_ini_entries_are_refused(tmp_path, capsys, name, text, message):
    seqdir = tmp_path / "seq"
    seqdir.mkdir()
    write_frame(seqdir / "frame_0.csv")
    write_frame(seqdir / "frame_1.csv", **{"14": (75.0, 152.0)})
    argv = ["asymmetry", str(seqdir), "--movement"]
    if name == "config":
        (tmp_path / "dface.ini").write_text(text)
        argv = ["--config", str(tmp_path / "dface.ini"), *argv]
    else:
        (seqdir / "sequence.ini").write_text(text)
    assert run(capsys, *argv) == (3 if name == "sequence.ini" else 2, "", message + "\n")


def test_duplicate_frame_index_is_schema_error(tmp_path, capsys):
    # frame_1.csv and frame_01.csv used to load as two frames, ordered by path
    seqdir = tmp_path / "seq"
    seqdir.mkdir()
    write_frame(seqdir / "frame_0.csv")
    write_frame(seqdir / "frame_1.csv", **HAPPY_MOVES)
    write_frame(seqdir / "frame_01.csv")
    code, out, err = run(capsys, "asymmetry", str(seqdir))
    assert (code, out) == (3, "")
    assert err == "error[schema]: frame_01.csv and frame_1.csv both hold frame 1\n"


def test_unreadable_sequence_ini_is_io_error(tmp_path, capsys):
    # a sequence.ini that cannot be read used to be skipped without a word,
    # and movement fell back to frame 0's eye distance
    seqdir = tmp_path / "seq"
    seqdir.mkdir()
    write_frame(seqdir / "frame_0.csv")
    write_frame(seqdir / "frame_1.csv", **{"14": (75.0, 152.0)})
    (seqdir / "sequence.ini").mkdir()
    code, out, err = run(capsys, "asymmetry", str(seqdir), "--movement")
    assert (code, out) == (3, "")
    assert err.startswith("error[io]:") and "sequence.ini" in err


def test_reconstruct_round_trip(tmp_path, capsys):
    frame_path = write_frame(tmp_path / "f.csv", **{"2": None})
    out_path = tmp_path / "fixed.csv"
    code, _, err = run(capsys, "reconstruct", str(frame_path), "-o", str(out_path))
    assert code == 0 and err == ""
    fixed = load_frame(out_path)
    assert fixed.complete
    assert fixed.point(2).reconstructed
    assert fixed.coords(2) == pytest.approx((55.0, 80.0), abs=1e-9)


def test_reconstruct_explicit_axis_stdout(tmp_path, capsys):
    frame_path = write_frame(tmp_path / "f.csv", **{"2": None})
    code, out, _ = run(capsys, "reconstruct", str(frame_path), "--axis", "100,0,0,2")
    assert code == 0
    assert ",55,80,2" in out


def test_reconstruct_bad_axis(tmp_path, capsys):
    frame_path = write_frame(tmp_path / "f.csv")
    code, _, err = run(capsys, "reconstruct", str(frame_path), "--axis", "1,2")
    assert code == 2 and err.startswith("error[usage]:")
    code, _, err = run(capsys, "reconstruct", str(frame_path), "--axis", "1,2,0,0")
    assert code == 2


def test_stdout_without_a_byte_buffer(tmp_path):
    # under a text-only stdout, reconstruct's CSV text is printed, while the
    # image bytes of transform are refused; both let AttributeError escape
    frame_path = write_frame(tmp_path / "f.csv", **{"2": None})
    write_pgm(tmp_path / "in.pgm", [[1, 2], [3, 4]])
    runs = []
    for argv in (["reconstruct", str(frame_path)], ["transform", "e", str(tmp_path / "in.pgm")]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            runs.append((main(argv), out.getvalue(), err.getvalue()))
    restored = serialize_frame(reconstruct_occluded(load_frame(frame_path)))
    assert runs[0] == (0, restored, "")
    code, out, err = runs[1]
    assert (code, out) == (3, "") and err.startswith("error[io]:"), err


@pytest.mark.parametrize("axis", ["100,0,nan,1", "inf,0,0,1", "100,-inf,0,1", "x,0,0,1"])
def test_reconstruct_rejects_non_finite_axis(tmp_path, capsys, axis):
    frame_path = write_frame(tmp_path / "f.csv")
    code, out, err = run(capsys, "reconstruct", str(frame_path), "--axis", axis)
    assert (code, out) == (2, "") and err.startswith("error[usage]: bad axis")


@pytest.mark.parametrize("direction", ["1e200,1e200", "1e-200,1e-200", "1e308,1e308"])
def test_reconstruct_axis_direction_beyond_squaring_range(tmp_path, capsys, direction):
    frame_path = write_frame(tmp_path / "f.csv", **{"2": None})
    code, out, err = run(capsys, "reconstruct", str(frame_path), "--axis", f"100,0,{direction}")
    assert (code, err) == (0, "")
    assert ",2\n" in out.splitlines(keepends=True)[3]  # point 2 filled in, flagged reconstructed
    assert run(capsys, "reconstruct", str(frame_path), "--axis", "100,0,1,1")[1] == out


_normal_sides = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)


@given(_normal_sides, _normal_sides)
def test_axis_direction_keeps_the_plain_expressions_bits(dx, dy):
    squared = dx * dx + dy * dy
    if not sys.float_info.min <= squared:
        return  # too small to square in the normal range: rescaled instead
    norm = squared ** 0.5
    axis = _parse_axis(f"3,4,{dx!r},{dy!r}")
    assert axis.point == (3.0, 4.0)
    assert axis.direction == (dx / norm, dy / norm)


def test_reconstruct_unrecoverable(tmp_path, capsys):
    frame_path = write_frame(tmp_path / "f.csv", **{"2": None, "5": None})
    code, _, err = run(capsys, "reconstruct", str(frame_path))
    assert code == 3 and err.startswith("error[unrecoverable-point]:")
    assert "2,5" in err


def test_aus_golden(tmp_path, capsys):
    neutral = write_frame(tmp_path / "n.csv")
    expr = write_frame(tmp_path / "e.csv", **HAPPY_MOVES)
    code, out, err = run(capsys, "aus", str(neutral), str(expr))
    assert code == 0 and err == ""
    assert out == "au,descriptor,side,magnitude\n12,Lip Corner Puller,bilateral,0.1\n"


def test_classify_golden(tmp_path, capsys):
    neutral = write_frame(tmp_path / "n.csv")
    expr = write_frame(tmp_path / "e.csv", **HAPPY_MOVES)
    code, out, err = run(capsys, "classify", str(neutral), str(expr))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "Happiness,1.000,rank=1"
    assert len(lines) == 6
    assert all(f"rank={i}" in line for i, line in enumerate(lines, start=1))


def test_classify_neutral(tmp_path, capsys):
    neutral = write_frame(tmp_path / "n.csv")
    code, out, _ = run(capsys, "classify", str(neutral), str(neutral))
    assert code == 0 and out == "Neutral\n"


def test_classify_deterministic(tmp_path, capsys):
    neutral = write_frame(tmp_path / "n.csv")
    expr = write_frame(tmp_path / "e.csv", **HAPPY_MOVES)
    _, first, _ = run(capsys, "classify", str(neutral), str(expr))
    _, second, _ = run(capsys, "classify", str(neutral), str(expr))
    assert first == second


def test_augment_summary_line(tmp_path, capsys):
    indir = tmp_path / "in"
    indir.mkdir()
    write_pgm(indir / "a.pgm", np.arange(16).reshape(4, 4))
    code, out, err = run(capsys, "augment", str(indir), str(tmp_path / "out"))
    assert code == 0 and err == ""
    assert out == "processed=1 written=8 errors=0\n"


def test_augment_reports_per_file_errors(tmp_path, capsys):
    indir = tmp_path / "in"
    indir.mkdir()
    write_pgm(indir / "a.pgm", np.zeros((2, 2)))
    (indir / "b.pgm").write_bytes(b"junk")
    code, out, err = run(capsys, "augment", str(indir), str(tmp_path / "out"))
    assert code == 0
    assert out == "processed=1 written=8 errors=1\n"
    assert err.startswith("error[data]: b.pgm:")


def test_augment_element_subset_and_center(tmp_path, capsys):
    indir = tmp_path / "in"
    indir.mkdir()
    write_pgm(indir / "a.pgm", np.arange(16).reshape(4, 4))
    save_frame(indir / "a.csv", build_frame(symmetric_coords()))
    code, out, _ = run(
        capsys, "augment", str(indir), str(tmp_path / "out"),
        "--elements", "e,s", "--center", "100,100",
    )
    assert code == 0
    assert out == "processed=1 written=2 errors=0\n"
    # flipping the mirrored fixture about its own axis reproduces it
    flipped = load_frame(tmp_path / "out" / "a__s.csv")
    assert flipped == build_frame(symmetric_coords())


def test_augment_element_aliases_write_the_canonical_files(tmp_path, capsys):
    # V is the matrix label of s and r5 reduces to r; both pass the CLI's
    # element check, so the dataset step must take them too
    indir = tmp_path / "in"
    indir.mkdir()
    write_pgm(indir / "a.pgm", np.arange(16).reshape(4, 4))
    outputs = {}
    for names in ("V, r5", "s,r"):
        out_dir = tmp_path / names
        code, out, err = run(capsys, "augment", str(indir), str(out_dir), "--elements", names)
        assert (code, out, err) == (0, "processed=1 written=2 errors=0\n", "")
        outputs[names] = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    assert outputs["V, r5"] == outputs["s,r"]
    assert sorted(outputs["s,r"]) == ["a__r.pgm", "a__s.pgm", "manifest.csv"]


def test_augment_unknown_element(tmp_path, capsys):
    (tmp_path / "in").mkdir()
    code, _, err = run(
        capsys, "augment", str(tmp_path / "in"), str(tmp_path / "out"),
        "--elements", "q",
    )
    assert code == 2 and err.startswith("error[usage]:")


@pytest.mark.parametrize("make", [lambda p: None, lambda p: p.write_bytes(b"")],
                         ids=["missing", "file"])
def test_augment_of_an_unreadable_input_writes_nothing(tmp_path, capsys, make):
    # the output directory used to be made before the input was listed
    make(tmp_path / "in")
    code, out, err = run(capsys, "augment", str(tmp_path / "in"), str(tmp_path / "out"))
    assert (code, out) == (3, "") and err.startswith("error[io]: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("elements", [",", "", " , "])
def test_augment_elements_must_name_an_element(tmp_path, capsys, elements):
    # "--elements ," used to write an empty manifest and report written=0
    indir = tmp_path / "in"
    indir.mkdir()
    write_pgm(indir / "a.pgm", np.zeros((2, 2)))
    code, out, err = run(
        capsys, "augment", str(indir), str(tmp_path / "out"), "--elements", elements
    )
    assert (code, out) == (2, "")
    assert err == f"error[usage]: --elements names no element, got {elements!r}\n"
    assert not (tmp_path / "out").exists()


def test_augment_center_must_name_a_point(tmp_path, capsys):
    # an empty --center used to mean the image centre and write all 8 images
    indir = tmp_path / "in"
    indir.mkdir()
    write_pgm(indir / "a.pgm", np.zeros((2, 2)))
    code, out, err = run(capsys, "augment", str(indir), str(tmp_path / "out"), "--center", "")
    assert (code, out, err) == (2, "", "error[usage]: --center takes 'x,y'\n")
    assert not (tmp_path / "out").exists()


def test_augment_skips_an_image_whose_keypoints_cannot_move(tmp_path, capsys):
    # a quarter turn about this pivot moves a key point to x = inf; the run
    # used to stop there with exit 3, three files of a.pgm and no manifest
    indir, outdir = tmp_path / "in", tmp_path / "out"
    indir.mkdir()
    write_pgm(indir / "a.pgm", np.arange(16).reshape(4, 4))
    save_frame(indir / "a.csv", build_frame(symmetric_coords()))
    write_pgm(indir / "b.pgm", np.zeros((2, 2)))
    code, out, err = run(capsys, "augment", str(indir), str(outdir), "--center", "1e308,-1e308")
    assert (code, out) == (0, "processed=1 written=8 errors=1\n")
    assert err == (
        "error[data]: a.pgm: coordinates must be None or an (x, y) pair of finite numbers, "
        "got (inf, 0.0)\n"
    )
    names = sorted(p.name for p in outdir.iterdir())
    assert names == ["b__e.pgm", "b__r.pgm", "b__r2.pgm", "b__r3.pgm", "b__s.pgm",
                     "b__sr.pgm", "b__sr2.pgm", "b__sr3.pgm", "manifest.csv"]
    manifest = (outdir / "manifest.csv").read_text().splitlines()
    assert len(manifest) == 9 and all(line.startswith("b,") for line in manifest[1:])


def test_augment_moves_point_states_with_their_points(tmp_path, capsys):
    # the mirror writes point 0's coordinates in row 3, and row 0 used to
    # keep point 0's passive state
    indir = tmp_path / "in"
    indir.mkdir()
    write_pgm(indir / "a.pgm", np.arange(16).reshape(4, 4))
    save_frame(indir / "a.csv", build_frame(symmetric_coords(), states={0: PointState.PASSIVE}))
    code, out, _ = run(capsys, "augment", str(indir), str(tmp_path / "out"), "--elements", "s")
    assert (code, out) == (0, "processed=1 written=1 errors=0\n")
    rows = (tmp_path / "out" / "a__s.csv").read_text().splitlines()
    assert rows[1].startswith("0,eyebrow,left,active,")
    assert rows[4].startswith("3,eyebrow,right,passive,")


@pytest.mark.parametrize("center", ["nan,100", "100,inf", "a,100"])
def test_augment_rejects_non_finite_center(tmp_path, capsys, center):
    indir = tmp_path / "in"
    indir.mkdir()
    write_pgm(indir / "a.pgm", np.zeros((2, 2)))
    code, out, err = run(
        capsys, "augment", str(indir), str(tmp_path / "out"), "--center", center
    )
    assert (code, out) == (2, "") and err.startswith("error[usage]: bad center")
    assert not (tmp_path / "out").exists()


def test_augment_require_square(tmp_path, capsys):
    indir = tmp_path / "in"
    indir.mkdir()
    write_pgm(indir / "wide.pgm", np.zeros((2, 3)))
    code, _, err = run(
        capsys, "augment", str(indir), str(tmp_path / "out"), "--require-square"
    )
    assert code == 3 and err.startswith("error[shape]:")


def write_non_utf8_frame(path):
    text = serialize_frame(build_frame(symmetric_coords())).encode("utf-8")
    path.write_bytes(b"\xff\xfe" + text)
    return path


def test_non_utf8_text_inputs_are_data_errors(tmp_path, capsys):
    bad = write_non_utf8_frame(tmp_path / "bad.csv")
    code, out, err = run(capsys, "midline", str(bad))
    assert (code, out) == (3, "") and err.startswith("error[parse]:")
    code, _, err = run(capsys, "kernels", str(bad), str(tmp_path / "bank"))
    assert code == 3 and err.startswith("error[schema]:")
    seqdir = tmp_path / "seq"
    seqdir.mkdir()
    write_non_utf8_frame(seqdir / "frame_0.csv")
    code, _, err = run(capsys, "asymmetry", str(seqdir))
    assert code == 3 and err.startswith("error[parse]: frame_0.csv:")


def test_mislabelled_frame_row_is_a_parse_error(tmp_path, capsys):
    text = serialize_frame(build_frame(symmetric_coords()))
    assert "\n0,eyebrow,left,active," in text
    path = tmp_path / "f.csv"
    path.write_text(text.replace("\n0,eyebrow,left,", "\n0,eye,left,"), encoding="utf-8")
    code, out, err = run(capsys, "midline", str(path))
    assert (code, out) == (3, "") and err.startswith("error[parse]:")
    assert "point 0 labelled eye/left, expected eyebrow/left" in err


def test_augment_skips_non_utf8_keypoints(tmp_path, capsys):
    indir = tmp_path / "in"
    indir.mkdir()
    write_pgm(indir / "a.pgm", np.zeros((2, 2)))
    write_non_utf8_frame(indir / "a.csv")
    code, out, err = run(capsys, "augment", str(indir), str(tmp_path / "out"))
    assert code == 0
    assert out == "processed=0 written=0 errors=1\n"
    assert err.startswith("error[data]: a.pgm:")


def _write_report_sequence(tmp_path):
    seqdir = tmp_path / "seq"
    seqdir.mkdir()
    write_frame(seqdir / "frame_0.csv")
    write_frame(seqdir / "frame_1.csv", **HAPPY_MOVES)
    return seqdir


def test_report_both_formats(tmp_path, capsys):
    seqdir = _write_report_sequence(tmp_path)
    outdir = tmp_path / "report"
    code, _, err = run(capsys, "report", str(seqdir), str(outdir))
    assert code == 0 and err == ""
    names = sorted(p.name for p in outdir.iterdir())
    assert names == ["asymmetry.csv", "classification.csv", "overlay_0.svg", "overlay_1.svg"]

    asym = (outdir / "asymmetry.csv").read_text().splitlines()
    assert asym == ["frame,structural,movement_cumulative", "0,0,0", "1,0,0"]

    cls = (outdir / "classification.csv").read_text().splitlines()
    assert cls == ["frame,label,score", "0,Neutral,", "1,Happiness,1"]

    svg = (outdir / "overlay_0.svg").read_text()
    assert svg.startswith("<svg ")
    assert "<circle" in svg and "<line" in svg


def test_report_csv_only(tmp_path, capsys):
    seqdir = _write_report_sequence(tmp_path)
    outdir = tmp_path / "report"
    code, _, _ = run(
        capsys, "report", str(seqdir), str(outdir), "--report-format", "csv"
    )
    assert code == 0
    names = sorted(p.name for p in outdir.iterdir())
    assert names == ["asymmetry.csv", "classification.csv"]


def test_report_explicit_neutral(tmp_path, capsys):
    seqdir = _write_report_sequence(tmp_path)
    neutral = write_frame(tmp_path / "custom_neutral.csv", **HAPPY_MOVES)
    outdir = tmp_path / "report"
    code, _, _ = run(
        capsys, "report", str(seqdir), str(outdir),
        "--report-format", "csv", "--neutral", str(neutral),
    )
    assert code == 0
    cls = (outdir / "classification.csv").read_text().splitlines()
    # frame 1 equals the supplied neutral, so it reads as Neutral; frame 0
    # shows the corners dropped relative to it
    assert cls[2] == "1,Neutral,"
    assert cls[1].startswith("0,")
    assert cls[1] != "0,Neutral,"


def test_report_fills_an_incomplete_neutral_frame_once(tmp_path, capsys):
    seqdir = tmp_path / "seq"
    seqdir.mkdir()
    write_frame(seqdir / "frame_0.csv", **{"2": None})
    for t in (1, 2, 3):
        write_frame(seqdir / f"frame_{t}.csv", **HAPPY_MOVES)
    filled = []

    def counted(frame, axis=None):
        filled.append(frame.missing_ids())
        return reconstruct_occluded(frame, axis)

    with mock.patch("dface.cli.reconstruct_occluded", counted), \
            mock.patch("dface.aus.reconstruct_occluded", counted):
        code, _, err = run(capsys, "report", str(seqdir), str(tmp_path / "out"),
                           "--report-format", "csv")
    assert (code, err) == (0, "")
    # once as the neutral frame, once as the expression of row 0
    assert filled == [(2,), (2,)]
    cls = (tmp_path / "out" / "classification.csv").read_text().splitlines()
    assert cls == ["frame,label,score", "0,Neutral,", *(f"{t},Happiness,1" for t in (1, 2, 3))]


def test_report_reruns_byte_identical(tmp_path, capsys):
    seqdir = _write_report_sequence(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["report", str(seqdir), str(out1)]) == 0
    assert main(["report", str(seqdir), str(out2)]) == 0
    capsys.readouterr()
    for p in sorted(out1.iterdir()):
        assert p.read_bytes() == (out2 / p.name).read_bytes()


def test_report_and_asymmetry_golden_on_a_moving_sequence(tmp_path, capsys):
    seqdir = tmp_path / "seq"
    write_golden_sequence(seqdir)
    outdir = tmp_path / "report"
    code, _, err = run(capsys, "report", str(seqdir), str(outdir), "--report-format", "both")
    assert code == 0 and err == ""

    def digest(*names):
        h = hashlib.sha256()
        for name in names:
            h.update((outdir / name).read_bytes())
        return h.hexdigest()

    assert digest("asymmetry.csv") == (
        "06be7c238b9b922e2c920716b37e7bf8931bbf187e62a2da4b1808317b1e5f2e"
    )
    assert digest("classification.csv") == (
        "bd0679af7109be9b033992b84b68f592c3c67372465d46d6cb8915ee375d5d5a"
    )
    assert digest(*(f"overlay_{i}.svg" for i in range(40))) == (
        "540b31a13c992f861aa1c65c1bec67c36a928a65b1e81df962673140e1cc867b"
    )
    code, out, err = run(capsys, "asymmetry", str(seqdir))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b5297d5fa437b20b6fdfd1a4ce0fbdcf9aeb96d13b276beacd9063766514c812"
    )


def test_report_prefix_without_tracked_pair(tmp_path, capsys):
    # frame 0 has pairs 5-9 complete, frames 1 and 2 pairs 0-4: the first
    # step tracks no pair, so its cumulative movement is 0, the value the
    # asymmetry report gives such movement; the second step tracks pairs 0-4
    seqdir = tmp_path / "seq"
    seqdir.mkdir()
    write_frame(seqdir / "frame_0.csv", **{str(pid): None for pid in (0, 1, 2, 6, 7)})
    late = {str(pid): None for pid in (8, 9, 14, 15, 16)}
    write_frame(seqdir / "frame_1.csv", **late)
    write_frame(seqdir / "frame_2.csv", **late, **{"1": (70.0, 71.0)})
    (seqdir / "sequence.ini").write_text("[sequence]\ninterocular_ref = 48\n")
    outdir = tmp_path / "report"
    code, _, err = run(capsys, "report", str(seqdir), str(outdir), "--report-format", "csv")
    assert code == 0 and err == ""
    code, movement, _ = run(capsys, "asymmetry", str(seqdir), "--movement")
    assert code == 0 and float(movement) > 0.0
    rows = [row.split(",") for row in (outdir / "asymmetry.csv").read_text().splitlines()[1:]]
    assert [cumulative for _, _, cumulative in rows] == ["0", "0", movement.strip()]


def test_config_threshold_changes_classification(tmp_path, capsys):
    cfg = tmp_path / "strict.ini"
    cfg.write_text("[au]\nthreshold = 0.2\n")
    neutral = write_frame(tmp_path / "n.csv")
    expr = write_frame(tmp_path / "e.csv", **HAPPY_MOVES)
    code, out, _ = run(
        capsys, "--config", str(cfg), "classify", str(neutral), str(expr)
    )
    assert code == 0 and out == "Neutral\n"


def test_config_tie_order(tmp_path, capsys):
    neutral = write_frame(tmp_path / "n.csv")
    # inner brows up plus mouth corners down: exactly the sad pattern, with
    # Surprise and Disgust tied behind it
    expr = write_frame(
        tmp_path / "e.csv",
        **{"0": (85.0, 74.0), "3": (115.0, 74.0),
           "14": (75.0, 146.0), "17": (125.0, 146.0)},
    )
    code, out, _ = run(capsys, "classify", str(neutral), str(expr))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("Sadness,")
    assert lines[1].startswith("Surprise,0.333")
    assert lines[2].startswith("Disgust,0.333")

    cfg = tmp_path / "flip.ini"
    cfg.write_text(
        "[au]\ntie_order = Disgust,Anger,Fear,Surprise,Sadness,Happiness\n"
    )
    code, out, _ = run(
        capsys, "--config", str(cfg), "classify", str(neutral), str(expr)
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("Sadness,")
    assert lines[1].startswith("Disgust,0.333")
    assert lines[2].startswith("Surprise,0.333")


def test_config_missing_file(tmp_path, capsys):
    code, _, err = run(
        capsys, "--config", str(tmp_path / "nope.ini"), "cayley", "4"
    )
    assert code == 2 and err.startswith("error[config]:")


def test_config_unknown_section(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[nope]\nx = 1\n")
    code, _, err = run(capsys, "--config", str(cfg), "cayley", "4")
    assert code == 2 and "unknown config section" in err


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[au]\nthresholdd = 0.1\n")
    code, _, err = run(capsys, "--config", str(cfg), "cayley", "4")
    assert code == 2 and "unknown key" in err


def test_config_invalid_value(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[canny]\nlow = 0.9\nhigh = 0.2\n")
    code, _, err = run(capsys, "--config", str(cfg), "cayley", "4")
    assert code == 2 and err.startswith("error[config]:")


@pytest.mark.parametrize(
    "text",
    [
        "[au]\nthreshold = nan\n",
        "[au]\nthreshold = inf\n",
        "[canny]\nsigma = nan\n",
        "[canny]\nsigma = inf\n",
        "[report]\nformat = 5%\n",
        "[report]\nformat = pdf\n",
    ],
    ids=["threshold-nan", "threshold-inf", "sigma-nan", "sigma-inf", "bad-interpolation",
         "unknown-format"],
)
def test_config_rejects_non_finite_and_malformed_values(tmp_path, capsys, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    code, out, err = run(capsys, "--config", str(cfg), "cayley", "4")
    assert (code, out) == (2, "") and err.startswith("error[config]:")


def test_config_non_utf8_is_config_error(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(b"\xff\xfe[au]\nthreshold = 0.1\n")
    code, out, err = run(capsys, "--config", str(cfg), "cayley", "4")
    assert (code, out) == (2, "") and err.startswith("error[config]:")
    monkeypatch.setenv("DFACE_CONFIG", str(cfg))
    code, out, err = run(capsys, "cayley", "4")
    assert (code, out) == (2, "") and err.startswith("error[config]:")


def test_unreadable_config_is_config_error(tmp_path, capsys, monkeypatch):
    # configparser's read skips a file it cannot open, so a directory used to
    # run the command with the built-in defaults and exit 0
    code, out, err = run(capsys, "--config", str(tmp_path), "cayley", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error[config]: cannot read config file:") and str(tmp_path) in err
    monkeypatch.setenv("DFACE_CONFIG", str(tmp_path))
    code, out, err = run(capsys, "cayley", "2")
    assert (code, out) == (2, "") and err.startswith("error[config]: cannot read config file:")


def test_config_parse_errors_name_the_file(tmp_path, capsys):
    # as a quoted path; it used to be printed as PosixPath('...')
    cfg = tmp_path / "dup.ini"
    cfg.write_text("[au]\nthreshold = 0.1\nthreshold = 0.2\n")
    code, _, err = run(capsys, "--config", str(cfg), "cayley", "2")
    assert code == 2
    assert err.startswith(f"error[config]: malformed config: While reading from {str(cfg)!r} [line  3]")


def test_config_environment_fallback(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "env.ini"
    cfg.write_text("[au]\nthreshold = 0.2\n")
    monkeypatch.setenv("DFACE_CONFIG", str(cfg))
    neutral = write_frame(tmp_path / "n.csv")
    expr = write_frame(tmp_path / "e.csv", **HAPPY_MOVES)
    code, out, _ = run(capsys, "classify", str(neutral), str(expr))
    assert code == 0 and out == "Neutral\n"


def test_config_flag_beats_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DFACE_CONFIG", str(tmp_path / "missing.ini"))
    good = tmp_path / "good.ini"
    good.write_text("[au]\nthreshold = 0.01\n")
    code, out, _ = run(capsys, "--config", str(good), "cayley", "1")
    assert code == 0
    assert out.splitlines()[0] == "e,s"


def test_overlay_contents():
    from dface.overlay import render_overlay
    from dface.symmetry import MidlineAxis

    frame = frame_with(symmetric_coords())
    axis = MidlineAxis((100.0, 0.0), (0.0, 1.0), 0.0)
    svg = render_overlay(frame, axis)
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" viewBox=')
    assert svg.endswith("</svg>\n")
    # 24 filled points plus 20 hollow mirrors (midline points cast none)
    assert svg.count("<circle") == 44
    assert svg.count('fill="none"') == 20
    assert svg.count("<line") == 1
    assert "<title>0</title>" in svg and "<title>23</title>" in svg


def test_overlay_skips_missing_points():
    from dface.overlay import render_overlay
    from dface.symmetry import MidlineAxis

    frame = frame_with(symmetric_coords(), **{"14": None, "21": None})
    svg = render_overlay(frame, MidlineAxis((100.0, 0.0), (0.0, 1.0), 0.0))
    assert svg.count("<circle") == 22 + 19
    assert "<title>14</title>" not in svg


def test_overlay_is_deterministic_text():
    from dface.overlay import render_overlay
    from dface.symmetry import MidlineAxis

    frame = frame_with(symmetric_coords())
    axis = MidlineAxis((100.0, 0.0), (0.0, 1.0), 0.0)
    assert render_overlay(frame, axis) == render_overlay(frame, axis)


def test_config_canny_sigma_reaches_preprocess(tmp_path, capsys):
    # an unusable sigma must surface as a config error before any work
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[canny]\nsigma = -1\n")
    src = tmp_path / "x.pgm"
    write_pgm(src, np.zeros((8, 8)))
    code, _, err = run(capsys, "--config", str(cfg), "preprocess", str(src))
    assert code == 2 and err.startswith("error[config]:")


@pytest.mark.parametrize(
    "sigma",
    ["100000", "1e300", "50.000001", "1e-300", "0"],
    ids=["huge", "overflows-radius", "above-cap", "taps-underflow", "zero"],
)
def test_config_bounds_canny_sigma(tmp_path, capsys, sigma):
    # 100000 used to try a 2.62 TiB pad and 1e300 an overflowing radius,
    # both as tracebacks; 1e-300 gave NaN taps and numpy warnings
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[canny]\nsigma = {sigma}\n")
    src = tmp_path / "x.pgm"
    write_pgm(src, np.zeros((4, 3)))
    code, out, err = run(capsys, "--config", str(cfg), "preprocess", str(src))
    assert (code, out) == (2, "") and err.startswith("error[config]: canny sigma must be")


def test_config_accepts_canny_sigma_at_the_cap(tmp_path, capsys):
    assert MAX_SIGMA == 50.0
    cfg = tmp_path / "cap.ini"
    cfg.write_text(f"[canny]\nsigma = {MAX_SIGMA}\n")
    # a half-bright image keeps a real edge at sigma 50; a small square
    # blurs flat, and only rounding noise was left to find
    arr = np.zeros((16, 100))
    arr[:, :50] = 255
    src = tmp_path / "x.pgm"
    write_pgm(src, arr)
    code, out, err = run(capsys, "--config", str(cfg), "preprocess", str(src))
    assert (code, err) == (0, "") and out.count(",") == 3


# One fresh interpreter runs every array-free command, reports which of the
# lazily imported modules it loaded, then runs `midline`, which needs numpy.
_COLD_START = """
import contextlib, io, json, sys
from dface.cli import main

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        return main(argv), out.getvalue()

plan = json.loads(sys.argv[1])
codes = [run(argv)[0] for argv in plan["array_free"]]
loaded = [name for name in ("numpy", "hashlib", "dataclasses", "configparser")
          if name in sys.modules]
midline = run(plan["midline"])
print(json.dumps([codes, loaded, midline, "numpy" in sys.modules]))
"""


def test_array_free_commands_load_neither_numpy_nor_hashlib(tmp_path):
    neutral = write_frame(tmp_path / "neutral.csv")
    smile = write_frame(tmp_path / "smile.csv", **HAPPY_MOVES)
    truncated = tmp_path / "truncated.pgm"
    truncated.write_bytes(b"P5\n4 4\n255\n" + bytes(5))
    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("id,region,oops\n", encoding="utf-8")
    coords = rigid_motion(symmetric_coords(), 0.3, (5.0, -2.0), 1.1)
    coords[14] = (coords[14][0] + 0.7, coords[14][1] - 0.4)
    tilted = tmp_path / "tilted.csv"
    save_frame(tilted, frame_with(coords))
    plan = {
        "array_free": [
            ["cayley", "4"],
            ["verify", "8"],
            ["verify", "0"],
            ["aus", str(neutral), str(smile)],
            ["transform", "e", str(truncated)],
            ["midline", str(bad_header)],
        ],
        "midline": ["midline", str(tilted)],
    }
    env = dict(os.environ, PYTHONPATH=str(Path(dface.__file__).parents[1]))
    env.pop("DFACE_CONFIG", None)
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, json.dumps(plan)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    codes, loaded, midline, numpy_after = json.loads(proc.stdout)
    assert codes == [0, 0, 2, 0, 3, 3]
    assert loaded == []
    # the bytes printed before numpy became a lazy import
    assert midline == [0, (
        "point,75.8268938,141.354022\n"
        "direction,-0.294155815,0.955757478\n"
        "residual,0.00110700887\n"
        "degenerate,0\n"
    )]
    assert numpy_after


def _fresh_interpreter(argv, env):
    proc = subprocess.run([sys.executable, "-m", "dface", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_a_reused_parser_prints_what_a_fresh_one_prints(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DFACE_CONFIG", raising=False)
    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("id,region,oops\n", encoding="utf-8")
    cases = [
        (["--help"], 0),
        (["cayley", "--help"], 0),
        (["verify"], 2),
        (["--config", str(tmp_path / "missing.ini"), "verify", "8"], 2),
        (["midline", str(bad_header)], 3),
        (["verify", "8"], 0),
    ]
    helps = []
    # The help width is read as help is printed, not when the parser is built.
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        env = dict(os.environ, PYTHONPATH=str(Path(dface.__file__).parents[1]))
        for argv, code in cases:
            in_process = run(capsys, *argv)
            assert in_process[0] == code, argv
            assert in_process == _fresh_interpreter(argv, env), (columns, argv)
        helps.append(run(capsys, "--help")[1])
    assert helps[0] != helps[1]


# sha256 of `dface --help` and `dface <command> --help` at COLUMNS=80, as the
# hand-built parser printed them before one table declared the commands.
_HELP_SHA256 = {
    "": "e174dcae6c5345b3bffb3e75327b941c5946c1cacf34770c536ab7c370d3e42e",
    "cayley": "e614dd0a688084d9dc38234494353367b3b39b325db507bb44edd77c0612d53b",
    "verify": "091fd8b8a67ffda95b5d45263657fad17249e4b5cdf2dd5f5176a3bbf37f70b6",
    "transform": "b47b64d398486bdcbffa787768541392dac7aebc06510ddd53356c54cfcf7b4c",
    "orbit": "319c8922fe13e2db7e1bf47527fe8e29b9861e8f914f02c6e8d8f470f7ac2d9e",
    "kernels": "01307b0425e032418f6eb1b5860f47a23d6dcb95a06c25e5003117a0882ef4fd",
    "preprocess": "6432ae130566ce4ed9539d791803403562108b5fe65a002097e410868478b076",
    "midline": "ebc7ae8f0f1d39c29aa5e1aed35788afa9228c56adfa4c94be1b8576919fd5ee",
    "asymmetry": "dba201127ca656dd02c66089a5df53e93f76944e79de346bc0c28e919eaca625",
    "reconstruct": "5e330f20eb1def7069072380c83a876aca7b03a94ab46aea84752fdd51661c47",
    "aus": "e2b46af6ef13667b6167f49635dd462f4fac3122c20f235aff11ac933aca9da2",
    "classify": "8019bf79e6fb57ed50a57e3dc0cbe6835e2c544614caab8faf037eda5a4b9f7b",
    "augment": "514c49e465044cfd37ddb196da2528c6ee779946f64552a8f3ee138e1624fce3",
    "report": "ecc2371bf3da4ec3caaaf7f6468d7d5eb30b9feee1806498b4bd8181e66f051f",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse lays out help differently in other Python versions")
def test_help_text_of_every_command_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    digests = {}
    for command in _HELP_SHA256:
        code, out, err = run(capsys, *([command] if command else []), "--help")
        assert (code, err) == (0, ""), command
        digests[command] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == _HELP_SHA256


# Counts the ArgumentParser objects built on import and over 20 commands.
_PARSERS_BUILT = """
import argparse, contextlib, io, json
progs = []
init = argparse.ArgumentParser.__init__

def counting_init(self, *args, **kwargs):
    progs.append(kwargs.get("prog"))
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting_init
from dface.cli import main
at_import = len(progs)
commands = [["cayley", "4"], ["verify", "8"], ["verify", "0"], ["--help"]] * 5
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in commands]
print(json.dumps([at_import, progs, codes]))
"""


def test_main_builds_one_parser_tree_per_process():
    env = dict(os.environ, PYTHONPATH=str(Path(dface.__file__).parents[1]))
    env.pop("DFACE_CONFIG", None)
    proc = subprocess.run([sys.executable, "-c", _PARSERS_BUILT], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    at_import, progs, codes = json.loads(proc.stdout)
    assert at_import == 0
    # the root parser and one subparser per command, built on the first call
    assert progs[0] == "dface" and len(progs) == 14
    assert sorted(progs[1:]) == sorted(f"dface {name}" for name in (
        "cayley", "verify", "transform", "orbit", "kernels", "preprocess", "midline",
        "asymmetry", "reconstruct", "aus", "classify", "augment", "report"))
    assert codes == [0, 0, 2, 0] * 5
