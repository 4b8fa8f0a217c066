"""Artifact-level benchmark of the RT-OPEX reproduction.

Run from the root of a checkout (Python 3.9+ with numpy and scipy;
nothing to build or install)::

    python3 perfbench/run.py --workload table2 --seed 2016 --seconds 20 --trace 0

``--trace 0`` regenerates the workload's artifact back to back for
``--seconds`` seconds (at least three times) and reports the end-to-end
metrics.  ``--trace 1`` does the same, then regenerates once more under
:class:`spans.LayerProbe` and reports the per-layer metrics instead.
Every regeneration's output digest (and trace-file digest) is checked:
against ``pins.json`` at the default seed, otherwise against the
invocation's first regeneration.  A regeneration that raises or
mismatches counts as failed.

The line before the last line of standard output records provenance;
the last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}``.
README.md describes the workloads, the metrics and the span vocabulary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import artifacts
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh processes timed per invocation for ``setup_s`` (median reported).
SETUP_SAMPLES = 5
#: Regenerations per invocation even when one outlasts ``--seconds``.
MIN_REPEATS = 3

#: End-to-end metrics (BENCHMARK.json ``end_to_end``) and their units.
E2E_UNITS = {"run_s": "s", "subframes_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
#: Per-layer metrics (BENCHMARK.json ``per_layer``): the probe's spans
#: plus two the benchmark derives from its own runs.
LAYER_UNITS = {**spans.LAYER_UNITS, "bench.trace_overhead_s": "s", "error_rate": "fraction"}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Artifact-level benchmark of the RT-OPEX reproduction.",
        allow_abbrev=False,
    )
    parser.add_argument("--workload", required=True, choices=sorted(artifacts.WORKLOADS))
    parser.add_argument("--seed", type=int, default=artifacts.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one set-up sample (imports, registry, warm-up), then exit.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: {src / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # The environment-enabled virtual-time sanitizer adds per-event
    # checks; they must not leak into what is timed.
    os.environ.pop("RTOPEX_SANITIZE", None)
    if args.setup_probe:
        artifacts.warm_up()
        return 0

    workload = artifacts.WORKLOADS[args.workload]
    setup_s = None if args.trace else measure_setup(workload)
    artifacts.warm_up()
    result = measure(workload, args.seed, args.seconds, bool(args.trace), setup_s)
    if result is None:
        return 1
    print(json.dumps({"provenance": provenance()}))
    print(json.dumps(result))
    return 0


def measure_setup(workload: artifacts.Workload) -> float:
    """Median wall time of fresh processes that import ``repro``, build
    the experiment registry, warm up, and exit."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload.name, "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def measure(
    workload: artifacts.Workload,
    seed: int,
    seconds: float,
    traced: bool,
    setup_s: Optional[float],
) -> Optional[Dict[str, object]]:
    """Run one invocation's regenerations; ``None`` if none succeeded."""
    expected = artifacts.pinned(workload, seed)
    walls: List[float] = []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while attempted < MIN_REPEATS or perf_counter() < deadline:
        attempted += 1
        regen = _checked(workload, seed, expected)
        if regen is None:
            failed += 1
            continue
        expected = expected or regen.digests()
        walls.append(regen.wall_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers: Dict[str, float] = {}
    traced_wall_s = None
    if traced:
        attempted += 1
        with spans.LayerProbe() as probe:
            regen = _checked(workload, seed, expected)
        for name in probe.missing:
            print(f"note: {name} not found; its metrics stay 0", file=sys.stderr)
        if regen is None:
            failed += 1
            layers = probe.metrics()
        else:
            traced_wall_s = regen.wall_s
            layers = probe.metrics(regen.trace_events, regen.trace_bytes)
            counted = sum(layers[f"sched.{p}.subframes"] for p in spans.POLICIES)
            defined = artifacts.scheduled_subframes(workload)
            if counted != defined:
                print(f"error: traced run scheduled {counted} subframes, "
                      f"the definition {defined}", file=sys.stderr)
                failed += 1

    if not walls:
        print("error: no regeneration succeeded", file=sys.stderr)
        return None
    if workload.traced and _invalid_trace(workload):
        failed = attempted  # every regeneration wrote this same file

    run_s = statistics.median(walls)
    if traced:
        layers["bench.trace_overhead_s"] = (
            traced_wall_s - run_s if traced_wall_s is not None else 0.0
        )
        layers["error_rate"] = failed / attempted
        values, units = layers, LAYER_UNITS
    else:
        values = {
            "run_s": run_s,
            "subframes_per_s": artifacts.scheduled_subframes(workload) / run_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = E2E_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def _checked(
    workload: artifacts.Workload, seed: int, expected: Optional[Dict[str, Optional[str]]]
) -> Optional[artifacts.Regeneration]:
    """One regeneration, or ``None`` if it raised or its digests differ."""
    try:
        regen = artifacts.regenerate(workload, seed)
    except Exception:
        traceback.print_exc()
        return None
    if expected is not None and regen.digests() != expected:
        print(f"error: digests {regen.digests()} differ from {expected}", file=sys.stderr)
        return None
    return regen


def _invalid_trace(workload: artifacts.Workload) -> bool:
    """Validate the trace file outside the timed region (and after the
    peak-RSS reading, since parsing it holds the whole document)."""
    try:
        problems = artifacts.validate_trace(workload)
    except ValueError as exc:  # not JSON at all
        problems = [str(exc)]
    for problem in problems[:10]:
        print(f"error: trace: {problem}", file=sys.stderr)
    return bool(problems)


def provenance() -> Dict[str, object]:
    """What was measured, on what: HEAD plus a hash of uncommitted
    changes when the checkout is a git repository, and always a content
    hash of the measured sources."""
    import numpy
    import scipy

    head = uncommitted = None
    if (ROOT / ".git").exists():
        try:
            head = _git("rev-parse", "HEAD").decode().strip()
            uncommitted = hashlib.sha256(
                _git("diff", "HEAD", "--binary") + _git("status", "--porcelain")
            ).hexdigest()
        except (OSError, subprocess.CalledProcessError):
            pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "head": head,
        "uncommitted_sha256": uncommitted,
        "tree_sha256": _tree_digest(),
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _git(*args: str) -> bytes:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True
    ).stdout


def _tree_digest() -> str:
    """sha256 over the measured sources: ``src/`` and this benchmark."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
