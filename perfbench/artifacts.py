"""The benchmark's four artifact workloads and one regeneration of each.

A regeneration is what ``python -m repro <id> --no-cache`` does for one
artifact: :class:`repro.runtime.ExperimentRunner` with one job, no
result cache, and the workload seed passed in as an argument.  The
``fig15-traced`` workload also streams every event to a Chrome trace
file, as ``--trace PATH`` does.

Virtual-time outcomes are correctness pins, never metrics: a
regeneration is summarised by the sha256 of its output (text plus the
sorted-key JSON of ``data``) and, when traced, of its trace file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Mapping, Optional

ROOT = Path(__file__).resolve().parent.parent
#: Trace files and warm-up scratch output (listed in .gitignore).
OUT_DIR = ROOT / ".perfbench_out"
PINS_PATH = Path(__file__).resolve().parent / "pins.json"
#: The only seed whose digests are pinned (the program's default seed).
DEFAULT_SEED = 2016


@dataclass(frozen=True)
class Workload:
    """One artifact regeneration, sized by ``scale``."""

    name: str
    experiment_id: str
    scale: float
    options: Mapping[str, str] = field(default_factory=dict)
    #: Stream every event kind to a Chrome trace file during the run.
    traced: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("table2", "table2", 0.2),
        Workload("fig15-traced", "fig15", 0.02, traced=True),
        Workload("fleet", "ext-fleet", 0.1, {"fleet_cells": "12", "nodes": "6,8"}),
        Workload("mixed", "ext_mixed", 0.2),
    )
}


def scheduled_subframes(workload: Workload) -> int:
    """Subframes scheduled by all scheduler runs of one regeneration.

    Derived from the artifact's definition, not from instrumenting the
    run; the traced run cross-checks it against the per-policy counts.
    """
    from repro.experiments import ext_fleet
    from repro.experiments.base import scaled_subframes
    from repro.experiments.fig15_deadline import RTT_SWEEP_US
    from repro.sched import CRanConfig

    per_cell = scaled_subframes(workload.scale)
    cells = CRanConfig().num_basestations
    opts = workload.options
    if workload.experiment_id == "table2":
        return 5 * cells * per_cell  # pran, cloudiq, partitioned, global, rt-opex
    if workload.experiment_id == "fig15":
        return len(RTT_SWEEP_US) * 4 * cells * per_cell  # partitioned, global x2, rt-opex
    if workload.experiment_id == "ext_mixed":
        return 6 * cells * (per_cell // 2)  # all six policies over a half-length trace
    if workload.experiment_id == "ext-fleet":
        grid = (
            len(ext_fleet.parse_nodes(opts.get("nodes", ext_fleet.DEFAULT_NODES)))
            * len(ext_fleet.parse_loads(opts.get("loads", ext_fleet.DEFAULT_LOADS)))
            * len(ext_fleet.parse_schedulers(
                opts.get("schedulers", ext_fleet.DEFAULT_SCHEDULERS)))
            * len(ext_fleet.parse_placer(opts.get("placer", ext_fleet.DEFAULT_PLACER)))
        )
        fleet_cells = ext_fleet.parse_fleet_cells(
            opts.get("fleet_cells", ext_fleet.DEFAULT_CELLS)
        )
        # Every cell lands on some node, for a tenth-length window
        # floored at 240 subframes (the fleet driver's sizing rule).
        return grid * fleet_cells * max(240, per_cell // 10)
    raise ValueError(f"no subframe count for experiment {workload.experiment_id!r}")


@dataclass(frozen=True)
class Regeneration:
    """Host wall time and correctness digests of one regeneration."""

    wall_s: float
    output_digest: str
    trace_digest: Optional[str] = None
    trace_events: int = 0
    trace_bytes: int = 0

    def digests(self) -> Dict[str, Optional[str]]:
        return {"output": self.output_digest, "trace": self.trace_digest}


def output_digest(output) -> str:
    payload = output.text + "\n" + json.dumps(output.data, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def trace_path(workload: Workload) -> Path:
    return OUT_DIR / f"{workload.name}.trace.json"


def regenerate(workload: Workload, seed: int) -> Regeneration:
    """Regenerate the artifact once, timed as a CLI user waits on it."""
    from repro.obs import Tracer, open_sink, tracing
    from repro.runtime import ExperimentRunner

    runner = ExperimentRunner(jobs=1, cache=None)

    def run():
        return runner.run(
            [workload.experiment_id], scale=workload.scale, seed=seed,
            options=dict(workload.options),
        )

    tracer = None
    if workload.traced:
        OUT_DIR.mkdir(exist_ok=True)
        path = trace_path(workload)
        # Write a new file, as a user naming a fresh --trace path does:
        # truncating the previous run's file makes ext4 flush the
        # rewrite to disk on close, which times the disk, not the program.
        path.unlink(missing_ok=True)
        start = perf_counter()
        sink = open_sink(path, "chrome")
        try:
            tracer = Tracer(sink=sink)
            with tracing(tracer):
                results, _ = run()
        finally:
            sink.close()
        wall_s = perf_counter() - start
    else:
        start = perf_counter()
        results, _ = run()
        wall_s = perf_counter() - start

    (result,) = results
    if result.error is not None:
        raise RuntimeError(f"{workload.experiment_id} failed:\n{result.error}")
    if tracer is None:
        return Regeneration(wall_s, output_digest(result.output))
    return Regeneration(
        wall_s,
        output_digest(result.output),
        trace_digest=file_digest(path),
        trace_events=int(tracer.summary()["events"]),
        trace_bytes=path.stat().st_size,
    )


def validate_trace(workload: Workload) -> List[str]:
    """Chrome-schema violations in the workload's last trace file."""
    from repro.obs import validate_chrome_trace

    with open(trace_path(workload)) as handle:
        return validate_chrome_trace(json.load(handle))


def pinned(workload: Workload, seed: int) -> Optional[Dict[str, Optional[str]]]:
    """The pinned digests, or ``None`` where only self-consistency applies.

    Pins hold for the default seed at the workload's own size.  Any
    other seed is judged by identical digests across the invocation's
    repeats and its traced run.
    """
    if seed != DEFAULT_SEED:
        return None
    with open(PINS_PATH) as handle:
        entry = json.load(handle).get(workload.name)
    if entry is None or entry["scale"] != workload.scale:
        return None
    return {"output": entry["output"], "trace": entry["trace"]}


def warm_up() -> None:
    """Fill the program's lazy tables and lazy imports.

    Covers what the first regeneration of any workload would otherwise
    pay: the experiment registry, the lru-cached TBS/segmentation and
    Eq. (1) duration tables, the interned grants, every scheduler's code
    path, the mixed-class builder, the MILP solver import and the Chrome
    trace sink.
    """
    import numpy as np

    import repro.experiments  # noqa: F401  (registry side effects)
    from repro.obs import Tracer, open_sink, tracing
    from repro.placement import optimal_place_by_weights
    from repro.sched import CRanConfig, build_workload, run_scheduler
    from repro.workload.classes import DEFAULT_MIXED_SPEC, parse_class_spec
    from repro.workload.mixed import build_mixed_workload

    subframes = 120
    cfg = CRanConfig(transport_latency_us=500.0)
    pooled = dataclasses.replace(cfg, num_cores=8)
    # A load ramp from idle to full reaches every MCS the mapper emits.
    loads = np.tile(np.linspace(0.0, 1.0, subframes), (cfg.num_basestations, 1))
    jobs = build_workload(cfg, subframes, seed=DEFAULT_SEED, loads=loads)
    for name in ("partitioned", "global", "rt-opex", "pran", "cloudiq", "das"):
        run_scheduler(name, pooled if name in ("global", "das") else cfg, jobs)
    build_mixed_workload(
        cfg, subframes, mix=parse_class_spec(DEFAULT_MIXED_SPEC), seed=DEFAULT_SEED
    )
    optimal_place_by_weights({0: 2.5, 1: 1.5, 2: 1.5, 3: 1.0}, 4)
    OUT_DIR.mkdir(exist_ok=True)
    sink = open_sink(OUT_DIR / "warm-up.trace.json", "chrome")
    try:
        with tracing(Tracer(sink=sink)):
            run_scheduler("rt-opex", cfg, jobs)
    finally:
        sink.close()
