"""Smoke and power tests of the benchmark, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q     # from the checkout root
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from jobs import WORK_UNIT

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc, lines = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for meta in declared:
        metric = result["metrics"][meta["name"]]
        assert metric["unit"] == meta["unit"]
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, meta["name"]

    host = json.loads(next(line for line in lines if line.startswith("host "))[5:])
    for key in ("nproc", "last_level_cache", "python", "numpy", "seed"):
        assert key in host
    assert host["seed"] == 3

    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    named = ["fail_ratio"]
    if not trace:
        named += ["setup_s", "wall_s", WORK_UNIT[workload], "call_us.p50", "call_us.p99",
                  "peak_rss_mb"]
    else:
        named += [m["name"] for m in declared]
    for name in named:
        assert name in printed, name
        assert printed[name], name  # a unit follows the value


@pytest.mark.parametrize("workload", ["mc_narrow", "oracle_exact"])
def test_checks_catch_fpc_forced_to_one(workload):
    proc, lines = run_bench(workload, 0, "--corrupt-fpc")
    result = json.loads(lines[-1])
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] > 0
    assert any(line.startswith("metric fail_ratio") and float(line.split()[2]) > 0
               for line in lines)


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc, lines = run_bench("mc_narrow", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
