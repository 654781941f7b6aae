"""Smoke test of the benchmark harness on tiny inputs (10 frames, 64² images).

Checks that every metric BENCHMARK.json names is emitted as a finite number,
that outputs match the committed reference digests, and that two runs give
the same digests and the same exact counts.
"""

import json
import math
import subprocess
import sys

import pytest

import run
from bench_inputs import TINY, WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT = ("face.frames_parsed", "symmetry.movement_frames_scanned", "aus.fired",
         "raster.edge_frac", "augment.images_written")

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_emitted_and_runs_repeat_exactly(name):
    plain = run.run_workload(name, seed=7, seconds=0, trace=0, scale=TINY)
    traced = [run.run_workload(name, seed=7, seconds=0, trace=1, scale=TINY)
              for _ in range(2)]
    for result, listed in ((plain, SPEC["end_to_end"]), (traced[0], SPEC["per_layer"])):
        metrics = run._metrics(result, SPEC)
        assert list(metrics) == [m["name"] for m in listed]
        assert all(math.isfinite(m["value"]) for m in metrics.values())
        assert result.correct and result.reference_ok
        assert result.failed == 0
    assert plain.digests == traced[0].digests == traced[1].digests
    for key in EXACT:
        assert traced[0].values[key] == traced[1].values[key]
    # The non-UTF-8 frame is probed once per cli_mix run, outside the counts.
    assert len(plain.known_defects) == (name == "cli_mix")
    if name == "seq_report":
        n = TINY.frames
        assert traced[0].values["symmetry.movement_frames_scanned"] == n * (n + 1) // 2 - 1


def test_refuses_to_run_without_sources(tmp_path):
    for rel in ("BENCHMARK.json", *(p.relative_to(run.ROOT) for p in run.HERE.glob("*.py")),
                "perfbench/reference.json"):
        dest = tmp_path / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_bytes((run.ROOT / rel).read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_mix",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
