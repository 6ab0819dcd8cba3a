"""Small-size self-test of the benchmark.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def small(name: str, trace: bool, **kwargs) -> dict:
    return run.run_workload(name, SEED, seconds=0.01, trace=trace, small=True, **kwargs)["result"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_with_its_unit(name, trace):
    result = small(name, trace)
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_host_speed_probes_are_left_out_and_rescale_timings():
    speed = run.HostSpeed()
    before = signal.getsignal(signal.SIGALRM)
    with speed.armed():
        start, t0 = time.perf_counter(), speed.clock()
        while time.perf_counter() - start < 0.3:
            pass
        net, end = speed.clock() - t0, time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(speed.took) >= 5
    assert abs(end - start - speed.spent - net) < 0.005  # the clock stood still in probes
    expected = net * run.PROBE_REF_S / statistics.median(speed.took)
    assert speed.rate((net, start, end)) == pytest.approx(expected)


def test_wrong_expected_hash_is_a_failure():
    right = run.run_workload("a1star_small", SEED, 0.01, False, small=True)
    digest = right["meta"]["reference_hash"]
    assert small("a1star_small", False, expected=digest)["failed"] == 0
    wrong = small("a1star_small", False, expected="0" * 64)
    assert not wrong["correct"] and wrong["failed"] >= 1


def test_traced_counts_repeat_and_match_untraced_outputs():
    first = small("a3star_m256", True)
    second = small("a3star_m256", True)
    counts = [k for k, u in run.PER_LAYER_UNITS.items() if u == "count"]
    assert all(first["metrics"][k] == second["metrics"][k] for k in counts)
    assert first["metrics"]["harness.factory_calls"]["value"] >= 1
    # The checker compares every traced output with the untraced one.
    assert first["failed"] == 0


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_m256", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
