"""Extension: mixed-service traffic classes under all six schedulers.

The paper's workload is one service class against one 2 ms budget.
This experiment opens the ROADMAP's mixed-service axis: URLLC / eMBB /
mMTC share the cell (per the ``--classes`` spec), each class carrying
its own packet delay budget and burstiness profile, and every scheduler
— the paper's five plus the delay-aware ``das`` baseline — runs over
the identical mixed workload.

Reported per scheduler: the overall miss rate, a per-class miss-rate
rollup, per-class response-time summaries, and per-class *lateness*
CDFs (``finish - deadline``; the mass left of zero is the class's
deadline-hit probability), downsampled to fixed quantile points so the
output stays JSON-native and cache-friendly.

Decomposed through :class:`~repro.experiments.base.SweepSpec` — one
unit per scheduler — so ``--jobs`` fans the six runs out; the classes
spec rides in each unit's params and is therefore part of the result
cache key.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from repro.analysis.report import Table
from repro.analysis.stats import summarize
from repro.experiments.base import (
    ExperimentOutput,
    SweepSpec,
    UnitResult,
    WorkUnit,
    attach_sweep,
    register,
    scaled_subframes,
)
from repro.sched import CRanConfig, run_scheduler
from repro.workload.classes import DEFAULT_MIXED_SPEC, parse_class_spec
from repro.workload.mixed import build_mixed_workload

_SCHEDULERS = ("pran", "cloudiq", "partitioned", "global", "rt-opex", "das")
#: Shared-queue schedulers honour ``num_cores``; 8 matches the paper's
#: global-scheduler operating point.
_SHARED_QUEUE_CORES = 8
_RTT_US = 500.0
#: Quantile grid the per-class lateness CDFs are downsampled to.
_CDF_POINTS = 41


def _configs() -> Dict[str, CRanConfig]:
    base = CRanConfig(transport_latency_us=_RTT_US)
    pooled = CRanConfig(transport_latency_us=_RTT_US, num_cores=_SHARED_QUEUE_CORES)
    return {name: (pooled if name in ("global", "das") else base) for name in _SCHEDULERS}


def _lateness_cdf(lateness: np.ndarray) -> Dict[str, List[float]]:
    """Quantile-sampled CDF of ``finish - deadline`` (negative = early)."""
    if lateness.size == 0:
        return {"xs": [], "ps": []}
    ps = np.linspace(0.0, 1.0, _CDF_POINTS)
    xs = np.quantile(lateness, ps)
    return {"xs": [float(x) for x in xs], "ps": [float(p) for p in ps]}


def _run_one(name: str, num_subframes: int, seed: int, classes: str) -> Dict[str, object]:
    mix = parse_class_spec(classes)
    cfg = _configs()[name]
    jobs = build_mixed_workload(cfg, num_subframes, mix=mix, seed=seed)
    result = run_scheduler(name, cfg, jobs, seed=seed)

    by_class: Dict[str, Dict[str, object]] = {}
    for service, records in result.records_by_class().items():
        misses = sum(1 for r in records if r.missed or r.dropped)
        resp = np.asarray([
            r.response_time_us for r in records
            if not r.dropped and not math.isnan(r.finish_us)
        ])
        lateness = np.asarray([
            r.finish_us - r.deadline_us for r in records
            if not math.isnan(r.finish_us)
        ])
        by_class[service] = {
            "subframes": len(records),
            "miss_rate": misses / len(records),
            "budget_us": mix.by_name(service).delay_budget_us,
            "response": summarize(resp),
            "lateness_cdf": _lateness_cdf(lateness),
        }
    return {
        "scheduler_name": result.scheduler_name,
        "classes": mix.spec(),
        "miss_rate": result.miss_rate(),
        "by_class": by_class,
    }


def _render(
    rows: Dict[str, Dict[str, object]], num_subframes: int, classes: str
) -> ExperimentOutput:
    mix = parse_class_spec(classes)
    class_names = list(mix.names)
    table = Table(
        ["scheduler", "overall miss"] + [f"{c} miss" for c in class_names],
        title=(
            f"Mixed-service classes ({mix.spec()}): "
            f"{num_subframes} subframes/BS, RTT/2={_RTT_US:.0f}us"
        ),
    )
    data: Dict[str, object] = {"classes": mix.spec(), "schedulers": {}}
    for name in _SCHEDULERS:
        row = rows[name]
        by_class = row["by_class"]
        table.add_row(
            [str(row["scheduler_name"]), row["miss_rate"]]
            + [
                by_class[c]["miss_rate"] if c in by_class else math.nan
                for c in class_names
            ]
        )
        data["schedulers"][name] = {
            "scheduler_name": row["scheduler_name"],
            "miss_rate": row["miss_rate"],
            "by_class": by_class,
        }
    note = (
        "per-class budgets: "
        + ", ".join(f"{c.name}={c.delay_budget_us:g}us" for c in mix.classes)
    )
    return ExperimentOutput(
        experiment_id="ext_mixed",
        title="Mixed-service traffic classes",
        text=table.render() + "\n" + note,
        data=data,
    )


@register("ext_mixed", "Mixed-service traffic classes (extension)", options=("classes",))
def run(scale: float, seed: int, classes: str = DEFAULT_MIXED_SPEC) -> ExperimentOutput:
    num_subframes = scaled_subframes(scale) // 2
    rows = {
        name: _run_one(name, num_subframes, seed, classes) for name in _SCHEDULERS
    }
    return _render(rows, num_subframes, classes)


# -- sweep decomposition: one unit per scheduler ------------------------------

def _units(scale: float, seed: int, options: Dict[str, str]) -> List[WorkUnit]:
    classes = options.get("classes", DEFAULT_MIXED_SPEC)
    parse_class_spec(classes)  # fail fast, before any unit is submitted
    num_subframes = scaled_subframes(scale) // 2
    return [
        WorkUnit(
            experiment_id="ext_mixed",
            key=f"scheduler={name}",
            params={
                "scheduler": name,
                "num_subframes": num_subframes,
                "classes": classes,
            },
            seed=seed,
        )
        for name in _SCHEDULERS
    ]


def _run_unit(unit: WorkUnit) -> UnitResult:
    num_subframes = int(unit.params["num_subframes"])
    row = _run_one(
        str(unit.params["scheduler"]),
        num_subframes,
        unit.seed,
        str(unit.params["classes"]),
    )
    return {"data": row, "events": num_subframes}


def _combine(results: List[UnitResult], scale: float, seed: int) -> ExperimentOutput:
    rows = {
        name: dict(r["data"]) for name, r in zip(_SCHEDULERS, results)
    }
    classes = str(rows[_SCHEDULERS[0]]["classes"])
    return _render(rows, scaled_subframes(scale) // 2, classes)


attach_sweep(
    "ext_mixed",
    SweepSpec(units=_units, run_unit=_run_unit, combine=_combine),
)
