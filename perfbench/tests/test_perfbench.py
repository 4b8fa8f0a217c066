"""Tests of the benchmark's own code.

Small variants of the four workloads (the minimum trace length, a
smaller fleet) keep each regeneration short; two tests run the real
command line.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import artifacts
import pytest
import run
import spans

BENCH_DIR = Path(run.__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 7

SMALL = {
    "table2": dataclasses.replace(artifacts.WORKLOADS["table2"], scale=0.01),
    "fig15-traced": dataclasses.replace(artifacts.WORKLOADS["fig15-traced"], scale=0.01),
    "fleet": dataclasses.replace(
        artifacts.WORKLOADS["fleet"], scale=0.01,
        options={"fleet_cells": "6", "nodes": "6"},
    ),
    "mixed": dataclasses.replace(artifacts.WORKLOADS["mixed"], scale=0.01),
}


@pytest.fixture(scope="module", params=sorted(SMALL))
def traced_pair(request):
    """An untraced and a probed regeneration of one small workload."""
    workload = SMALL[request.param]
    plain = artifacts.regenerate(workload, SEED)
    with spans.LayerProbe() as probe:
        patched = probe.patched
        traced = artifacts.regenerate(workload, SEED)
    metrics = probe.metrics(traced.trace_events, traced.trace_bytes)
    return workload, plain, traced, probe, patched, metrics


def test_every_wrapped_attribute_is_restored(traced_pair):
    _, _, _, probe, patched, _ = traced_pair
    assert patched and probe.missing == []
    for owner, name, original in patched:
        assert vars(owner)[name] is original, f"{owner}.{name} left wrapped"
    assert probe.patched == []


def test_traced_and_untraced_outputs_are_byte_identical(traced_pair):
    _, plain, traced, _, _, _ = traced_pair
    assert traced.digests() == plain.digests()


def test_layer_spans_fit_in_the_run(traced_pair):
    _, _, traced, _, _, metrics = traced_pair
    for name, unit in spans.LAYER_UNITS.items():
        if unit == "s":
            assert 0.0 <= metrics[name] <= traced.wall_s, name
    assert metrics["experiments.self_s"] >= 0.0


def test_policy_subframes_match_the_workload_definition(traced_pair):
    workload, _, _, _, _, metrics = traced_pair
    counted = sum(metrics[f"sched.{p}.subframes"] for p in spans.POLICIES)
    assert counted == artifacts.scheduled_subframes(workload)


def test_perturbed_result_is_counted_in_error_rate(monkeypatch):
    import repro.experiments.table2 as table2

    workload = SMALL["table2"]
    expected = artifacts.regenerate(workload, SEED).digests()
    real = table2.run_scheduler
    calls = []

    def flip_every_other_regeneration(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(args[0])
        if (len(calls) - 1) // 5 % 2:  # table2 runs five schedulers
            result.records[0].missed = not result.records[0].missed
        return result

    monkeypatch.setattr(table2, "run_scheduler", flip_every_other_regeneration)
    monkeypatch.setattr(artifacts, "pinned", lambda w, s: expected)
    result = run.measure(workload, SEED, seconds=0, traced=True, setup_s=None)
    # Regenerations 2 and 4 (the traced one) were perturbed.
    assert (result["attempted"], result["failed"]) == (4, 2)
    assert result["correct"] is False
    assert result["metrics"]["error_rate"]["value"] == 0.5


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(artifacts.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


@pytest.mark.parametrize("trace, units", [(0, run.E2E_UNITS), (1, run.LAYER_UNITS)])
def test_one_command_prints_every_metric(trace, units):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "mixed",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    *_, provenance, last = proc.stdout.strip().splitlines()
    assert {"head", "tree_sha256", "nproc", "python", "numpy", "scipy"} <= set(
        json.loads(provenance)["provenance"]
    )
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
