"""Smoke tests for the benchmark harness: every workload at its smallest
legal size, in both trace modes, so the harness cannot rot.

    python -m pytest perfbench -q

These run the harness as a subprocess, so nothing here imports the
package's own test configuration.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Metrics that do not depend on timing; inputs are fixed, so they repeat exactly.
DETERMINISTIC = ("kkt_max_rel", "kkt_median_rel", "support_f1", "path_auc")
DETERMINISTIC_LAYER = ("solver.sweeps", "linalg.axb_calls", "linalg.eig_calls",
                       "model_selection.bic_calls")


def run_bench(workload, trace, cwd=ROOT, seed=1):
    argv = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def smoke_record(workload):
    return json.loads((BENCH_DIR / "results" / f"smoke-{workload}.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 3
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    # Every end-to-end metric is printed by name, with its unit, either way.
    for metric in SPEC["end_to_end"]:
        assert f"  {metric['name']} " in proc.stdout
    record = smoke_record(workload)
    assert abs(record["per_layer"]["trace.self_sum_frac"] - 1.0) <= 0.05
    assert record["end_to_end"]["failed_frac"] == 0.0


def test_deterministic_metrics_repeat_exactly_under_another_seed():
    workload = "bic-sim1-p100-n500"
    records = []
    for seed in (1, 2):
        assert run_bench(workload, 1, seed=seed).returncode == 0
        records.append(smoke_record(workload))
    first, second = records
    for name in DETERMINISTIC:
        assert first["end_to_end"][name] == second["end_to_end"][name], name
    for name in DETERMINISTIC_LAYER:
        assert first["per_layer"][name] == second["per_layer"][name], name


def test_fails_without_the_package(tmp_path):
    # A directory holding only BENCHMARK.json and the benchmark itself.
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
