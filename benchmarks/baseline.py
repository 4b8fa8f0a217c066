"""Benchmark baseline exporter + regression comparator.

Two subcommands glue pytest-benchmark to a committed perf baseline::

    # Measure the engine + planner benchmarks and write BENCH_<n>.json
    PYTHONPATH=src python benchmarks/baseline.py capture [--out BENCH_1.json]

    # CI: compare a fresh capture against the committed baseline
    PYTHONPATH=src python benchmarks/baseline.py compare BENCH_1.json fresh.json

A baseline file records, per benchmark, the pytest-benchmark **median**
in nanoseconds (the statistic least sensitive to CI-box noise), plus the
engine's ``Simulator.stats()`` counters from a canonical RT-OPEX run
(events run and instants shared by several events, so a change in how
much work the run schedules is visible even when medians pass) and the
git SHA the numbers were taken at.

``compare`` fails (exit 1) when any benchmark present in the baseline
regresses by more than ``--threshold`` (default 30%) or disappeared
from the fresh run; new benchmarks in the fresh run are reported but
never fail the gate.  Faster-than-baseline results print as
improvements — commit a fresh capture to ratchet the baseline forward.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

#: Benchmark files the baseline tracks: engine + planner + workload pipeline.
BENCH_FILES = (
    "benchmarks/test_bench_engine.py",
    "benchmarks/test_bench_planner.py",
    "benchmarks/test_bench_workload.py",
)
#: Default regression gate: fail on >30% median slowdown.
DEFAULT_THRESHOLD = 0.30
#: Canonical engine-stats workload (subframes per basestation).
STATS_SUBFRAMES = 500
STATS_SEED = 2016

REPO_ROOT = Path(__file__).resolve().parent.parent


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _engine_stats() -> Dict[str, int]:
    """Engine counters from a canonical traced RT-OPEX run."""
    from repro.sched import CRanConfig, build_workload
    from repro.sched.runner import run_scheduler

    cfg = CRanConfig(transport_latency_us=500.0)
    jobs = build_workload(cfg, STATS_SUBFRAMES, seed=STATS_SEED)
    result = run_scheduler(
        "rt-opex", cfg, jobs, seed=STATS_SEED, capture_trace=("deadline",)
    )
    stats = result.trace_run.meta.get("sim", {}) if result.trace_run else {}
    return {key: int(value) for key, value in sorted(stats.items())}


def run_benchmarks(extra_args: Optional[List[str]] = None) -> Dict[str, object]:
    """Run the tracked benchmark files; return pytest-benchmark's JSON."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        json_path = Path(handle.name)
    cmd = [
        sys.executable, "-m", "pytest", *BENCH_FILES,
        "--benchmark-only", f"--benchmark-json={json_path}",
        "-q", "--no-header", "-p", "no:cacheprovider",
    ] + (extra_args or [])
    try:
        proc = subprocess.run(cmd, cwd=REPO_ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark run failed (pytest exit {proc.returncode})")
        with open(json_path) as fh:
            return json.load(fh)
    finally:
        json_path.unlink(missing_ok=True)


def summarize(bench_json: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    """Per-benchmark medians (ns) keyed ``group/name`` from raw pytest JSON."""
    table: Dict[str, Dict[str, object]] = {}
    for entry in bench_json.get("benchmarks", []):
        name = str(entry.get("name", "?"))
        group = str(entry.get("group") or "ungrouped")
        stats = entry.get("stats", {})
        table[f"{group}/{name}"] = {
            "group": group,
            "median_ns": float(stats["median"]) * 1e9,
            "rounds": int(stats.get("rounds", 0)),
        }
    return table


def group_medians(table: Dict[str, Dict[str, object]]) -> Dict[str, float]:
    """Median-of-medians per benchmark group (ns)."""
    by_group: Dict[str, List[float]] = {}
    for entry in table.values():
        by_group.setdefault(str(entry["group"]), []).append(float(entry["median_ns"]))
    out: Dict[str, float] = {}
    for group, values in by_group.items():
        values.sort()
        mid = len(values) // 2
        if len(values) % 2:
            out[group] = values[mid]
        else:
            out[group] = 0.5 * (values[mid - 1] + values[mid])
    return out


def write_delta_table(
    path: str,
    base_table: Dict[str, Dict[str, object]],
    fresh_table: Dict[str, Dict[str, object]],
    threshold: float,
) -> None:
    """Write the per-benchmark and per-group delta table as markdown."""
    lines = [
        "# Benchmark delta",
        "",
        f"Gate: median regression > {threshold:.0%} fails.",
        "",
        "## Per benchmark",
        "",
        "| benchmark | baseline (ms) | fresh (ms) | ratio | verdict |",
        "|---|---:|---:|---:|---|",
    ]
    for key in sorted(set(base_table) | set(fresh_table)):
        base = base_table.get(key)
        entry = fresh_table.get(key)
        if base is None:
            fresh_ns = float(entry["median_ns"])
            lines.append(f"| {key} | — | {fresh_ns / 1e6:.3f} | — | new |")
            continue
        base_ns = float(base["median_ns"])
        if entry is None:
            lines.append(f"| {key} | {base_ns / 1e6:.3f} | — | — | MISSING |")
            continue
        fresh_ns = float(entry["median_ns"])
        ratio = fresh_ns / base_ns if base_ns else float("inf")
        if ratio > 1.0 + threshold:
            verdict = "REGRESSION"
        elif ratio < 1.0 - threshold:
            verdict = "improvement"
        else:
            verdict = "ok"
        lines.append(
            f"| {key} | {base_ns / 1e6:.3f} | {fresh_ns / 1e6:.3f} "
            f"| {ratio:.2f}x | {verdict} |"
        )
    lines += [
        "",
        "## Per group (median of medians)",
        "",
        "| group | baseline (ms) | fresh (ms) | ratio |",
        "|---|---:|---:|---:|",
    ]
    base_groups = group_medians(base_table)
    fresh_groups = group_medians(fresh_table)
    for group in sorted(set(base_groups) | set(fresh_groups)):
        base_ns = base_groups.get(group)
        fresh_ns = fresh_groups.get(group)
        base_ms = f"{base_ns / 1e6:.3f}" if base_ns is not None else "—"
        fresh_ms = f"{fresh_ns / 1e6:.3f}" if fresh_ns is not None else "—"
        ratio = (
            f"{fresh_ns / base_ns:.2f}x" if base_ns and fresh_ns is not None else "—"
        )
        lines.append(f"| {group} | {base_ms} | {fresh_ms} | {ratio} |")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"delta table written to {path}")


def next_baseline_path() -> Path:
    """First unused BENCH_<n>.json slot in the repo root."""
    n = 0
    while (REPO_ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return REPO_ROOT / f"BENCH_{n}.json"


def capture(out: Optional[str], pytest_args: Optional[List[str]] = None) -> Path:
    bench_json = run_benchmarks(pytest_args)
    baseline = {
        "schema": 1,
        "git_sha": _git_sha(),
        "machine": bench_json.get("machine_info", {}).get("node", "unknown"),
        "benchmarks": summarize(bench_json),
        "engine_stats": _engine_stats(),
    }
    path = Path(out) if out else next_baseline_path()
    with open(path, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"baseline written to {path} ({len(baseline['benchmarks'])} benchmarks)")
    return path


def compare(
    baseline_path: str,
    fresh_path: str,
    threshold: float,
    delta_out: Optional[str] = None,
) -> int:
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    with open(fresh_path) as handle:
        fresh = json.load(handle)
    base_table = baseline.get("benchmarks", {})
    fresh_table = fresh.get("benchmarks", {})
    if delta_out:
        write_delta_table(delta_out, base_table, fresh_table, threshold)

    failures: List[str] = []
    for key in sorted(base_table):
        base_ns = float(base_table[key]["median_ns"])
        entry = fresh_table.get(key)
        if entry is None:
            failures.append(f"{key}: present in baseline but missing from fresh run")
            continue
        fresh_ns = float(entry["median_ns"])
        ratio = fresh_ns / base_ns if base_ns else float("inf")
        verdict = "ok"
        if ratio > 1.0 + threshold:
            verdict = "REGRESSION"
            failures.append(
                f"{key}: {fresh_ns / 1e6:.3f} ms vs baseline "
                f"{base_ns / 1e6:.3f} ms ({ratio:.2f}x > {1.0 + threshold:.2f}x)"
            )
        elif ratio < 1.0 - threshold:
            verdict = "improvement"
        print(f"{verdict:12s} {key}: {base_ns / 1e6:.3f} ms -> {fresh_ns / 1e6:.3f} ms "
              f"({ratio:.2f}x)")
    for key in sorted(set(fresh_table) - set(base_table)):
        print(f"{'new':12s} {key}: {float(fresh_table[key]['median_ns']) / 1e6:.3f} ms "
              "(not in baseline)")

    base_groups = group_medians(base_table)
    fresh_groups = group_medians(fresh_table)
    for group in sorted(base_groups):
        base_ns = base_groups[group]
        fresh_ns = fresh_groups.get(group)
        if fresh_ns is None or not base_ns:
            continue
        print(f"{'group':12s} {group}: {base_ns / 1e6:.3f} ms -> "
              f"{fresh_ns / 1e6:.3f} ms ({fresh_ns / base_ns:.2f}x median-of-medians)")

    if failures:
        print(f"\n{len(failures)} regression(s) beyond the "
              f"{threshold:.0%} gate:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nall {len(base_table)} baseline benchmarks within the "
          f"{threshold:.0%} gate")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="baseline", description="benchmark baseline exporter/comparator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cap = sub.add_parser("capture", help="run benchmarks, write BENCH_<n>.json")
    cap.add_argument("--out", default=None, metavar="PATH",
                     help="output path (default: next free BENCH_<n>.json)")

    cmp_parser = sub.add_parser("compare", help="gate a fresh run against a baseline")
    cmp_parser.add_argument("baseline", help="committed BENCH_<n>.json")
    cmp_parser.add_argument("fresh", help="freshly captured json")
    cmp_parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                            help="allowed median slowdown fraction (default 0.30)")
    cmp_parser.add_argument("--delta-out", default=None, metavar="PATH",
                            help="write a markdown delta table (per benchmark + group)")

    args = parser.parse_args(argv)
    if args.command == "capture":
        capture(args.out)
        return 0
    return compare(args.baseline, args.fresh, args.threshold, args.delta_out)


if __name__ == "__main__":
    sys.exit(main())
