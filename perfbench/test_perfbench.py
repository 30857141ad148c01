"""Smoke tests of the benchmark: every workload at tiny sizes, traced and not.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMON = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB", "op_failure_rate": "fraction"}
TRAIN = {"train_s": "s", "train_steps_per_s": "1/s", "eval_clips_per_s": "1/s", "acc_hardest": "fraction"}
# Every end-to-end metric that applies to a workload, printed by name with its unit.
PRINTED = {
    "desk-train": {**COMMON, **TRAIN},
    "desk-index": {**COMMON, "index_s": "s", "index_order_recovered": "fraction"},
    "audio-ingest-train": {**COMMON, **TRAIN, "ingest_clips_per_s": "1/s", "reingest_clips_per_s": "1/s"},
}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=600, check=False
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if not line.startswith("#")}
    for name, unit in PRINTED[workload].items():
        assert printed.get(name) == unit, name


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "desk-index", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_per_layer_list_matches_the_tracer():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracing.LAYER_METRICS


def test_self_time_excludes_child_spans():
    clock = iter([0.0, 1.0, 3.0, 6.0])  # outer starts, inner runs 1..3, outer ends
    tracer = tracing.Tracer(clock=lambda: next(clock))
    tracer.timed("outer", lambda: tracer.timed("inner", lambda: None))
    assert tracer.total["outer"] == 6.0 and tracer.own["outer"] == 4.0
    assert tracer.total["inner"] == tracer.own["inner"] == 2.0


def test_tail_percentile_keeps_ten_samples_above():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(20))) == (50, 9)
    assert run.tail_percentile(list(range(100))) == (90, 89)
