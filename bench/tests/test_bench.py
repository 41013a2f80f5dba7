"""Tests of the benchmark harness itself.

Run from the root of a source checkout::

    python3 -m pytest -q bench/tests

The count test runs every workload's traced run twice, about half a
minute in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
from run import unit_of  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_across_traced_runs(name):
    counts = []
    for _ in range(2):
        proc = run_bench("--workload", name, "--seed", str(DEFAULT_SEED), "--seconds", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        counts.append({k: result["metrics"][k]["value"] for k in spans.COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["serialize.bytes_written"] > 0
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in per_layer}


def test_self_time_subtracts_the_union_of_children():
    s = spans.Span
    tree = [
        s(1, 1, None, "outer", 0.0, 10.0),
        s(1, 2, 1, "a", 1.0, 4.0),
        s(1, 3, 1, "b", 3.0, 5.0),  # overlaps a: covered is [1, 5]
        s(1, 4, 1, "c", 9.0, 12.0),  # clipped to the parent's end
        s(1, 5, 2, "leaf", 1.5, 2.0),
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 0.5)
    assert selfs[5] == pytest.approx(0.5)


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in doc["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why()
    for m in doc["per_layer"]:
        if m["name"] != "fail_frac":
            assert m["unit"] == unit_of(m["name"]), m["name"]


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dominance", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
