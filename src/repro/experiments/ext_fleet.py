"""Extension: fleet-scale placement sweeps with an optimal baseline.

The paper's separation principle splits Cloud-RAN resource management
into an *offline* placement of cells onto pooled compute nodes and an
*online* scheduler inside each node.  The single-node experiments cover
the online half; this sweep drives the offline half at fleet scale and
closes the loop: place a fleet of N cells onto ``cores_per_node``-core
nodes, then actually *run* a scheduler instance per node over the
placed cells and roll the per-node outcomes up to fleet level.

One grid point is ``(cores_per_node, load, scheduler, placer)``:

* ``cores_per_node`` — the node size axis (``--nodes 8,12``);
* ``load`` — a multiplier on the per-cell mean loads (the fleet-wide
  traffic level rho);
* ``scheduler`` — the per-node policy.  Shared-queue policies
  (``global``/``das``/``pran``) get all ``cores_per_node`` cores as one
  pool and pack against *fractional* demand-quantile weights;
  partitioned-family policies (``partitioned``/``rt-opex``/``cloudiq``)
  reserve whole cores per cell, so they pack against the *integral*
  ceiling of the same weights (floored at two cores per cell, the
  minimum the partitioned activation pattern needs to overlap
  consecutive subframes) and each node runs with
  ``cores_per_node // cells`` dedicated cores per cell — the
  fleet-level cost of integral reservations made visible;
* ``placer`` — greedy first-fit-decreasing vs the exact MILP
  (:mod:`repro.placement.optimal`), with the greedy-vs-optimal node
  gap reported per ``(cores_per_node, load, scheduler)`` triple.

Every grid point is one :class:`~repro.experiments.base.WorkUnit`
(``--jobs`` fans the grid out; all fleet parameters ride in
``WorkUnit.params`` and therefore in the result-cache key), and the
serial driver runs the identical units in order, so serial and
parallel runs are byte-identical.

The answer the sweep produces: *how many nodes do N cells need at
load rho under each scheduler and each placer* — the ROADMAP's
fleet-scale target — plus the deadline-miss rate actually realized on
the provisioned fleet.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.analysis.fleet import fleet_summary, node_summary
from repro.analysis.report import Table
from repro.constants import SUBFRAME_US
from repro.experiments.base import (
    ExperimentOutput,
    SweepSpec,
    UnitResult,
    WorkUnit,
    attach_sweep,
    register,
    scaled_subframes,
)
from repro.placement import (
    demand_weights,
    optimal_place_by_weights,
    place_by_weights,
    placement_gap,
)
from repro.placement.pool import NodePlacement
from repro.sched import CRanConfig, SubframeJob, build_workload, run_scheduler
from repro.workload.traces import (
    BasestationTraceConfig,
    CellularTraceGenerator,
    default_basestation_configs,
)

EXPERIMENT_ID = "ext-fleet"

#: Option defaults: a 2x2x2x2 grid (node size x load x scheduler x
#: placer) over a mid-sized fleet; ``--fleet-cells 100`` and up is the
#: ROADMAP-scale run.
DEFAULT_CELLS = "48"
DEFAULT_NODES = "8,12"
DEFAULT_LOADS = "0.8,1.0"
DEFAULT_SCHEDULERS = "rt-opex,global"
DEFAULT_PLACER = "both"

#: Provisioning quantile for placement weights (matches ext-pooling).
PLACEMENT_QUANTILE = 0.999
#: Fixed RTT/2 for the fleet runs (the paper's mid-range point).
_RTT_US = 500.0
#: Core floor per partitioned-family cell: the ``index % cores_per_bs``
#: activation pattern needs >= 2 cores to overlap consecutive subframes
#: of one cell, so single-core cells are never provisioned.
MIN_PARTITIONED_CORES = 2

#: Shared-queue schedulers pool all node cores behind one queue and can
#: pack cells fractionally; the partitioned family reserves whole cores
#: per cell.
SHARED_QUEUE_SCHEDULERS = ("das", "global", "pran")
PARTITIONED_SCHEDULERS = ("cloudiq", "partitioned", "rt-opex")
_KNOWN_SCHEDULERS = SHARED_QUEUE_SCHEDULERS + PARTITIONED_SCHEDULERS

_PLACERS = ("greedy", "opt")


# -- option parsing (shared by the CLI validation and the driver) -------------

def parse_fleet_cells(spec: str) -> int:
    try:
        cells = int(spec)
    except ValueError:
        raise ValueError(f"--fleet-cells must be an integer, got {spec!r}")
    if cells < 1:
        raise ValueError(f"--fleet-cells must be >= 1, got {cells}")
    return cells


def parse_nodes(spec: str) -> List[int]:
    """``"8,12"`` -> ``[8, 12]`` cores per node (the node-size axis)."""
    values: List[int] = []
    for part in spec.split(","):
        try:
            cores = int(part.strip())
        except ValueError:
            raise ValueError(f"--nodes entries must be integers, got {part.strip()!r}")
        if cores < 1:
            raise ValueError(f"--nodes entries must be >= 1, got {cores}")
        if cores in values:
            raise ValueError(f"--nodes lists cores-per-node {cores} twice")
        values.append(cores)
    if not values:
        raise ValueError("--nodes must name at least one cores-per-node value")
    return values


def parse_loads(spec: str) -> List[float]:
    values: List[float] = []
    for part in spec.split(","):
        try:
            load = float(part.strip())
        except ValueError:
            raise ValueError(f"load entries must be numbers, got {part.strip()!r}")
        if not 0.0 < load <= 2.0:
            raise ValueError(f"load multipliers must be in (0, 2], got {load}")
        if load in values:
            raise ValueError(f"load axis lists {load} twice")
        values.append(load)
    if not values:
        raise ValueError("load axis must name at least one multiplier")
    return values


def parse_schedulers(spec: str) -> List[str]:
    values: List[str] = []
    for part in spec.split(","):
        name = part.strip()
        if name not in _KNOWN_SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {name!r}; known: {', '.join(_KNOWN_SCHEDULERS)}"
            )
        if name in values:
            raise ValueError(f"scheduler axis lists {name!r} twice")
        values.append(name)
    if not values:
        raise ValueError("scheduler axis must name at least one scheduler")
    return values


def parse_placer(spec: str) -> List[str]:
    if spec == "both":
        return list(_PLACERS)
    if spec in _PLACERS:
        return [spec]
    raise ValueError(f"--placer must be one of greedy, opt, both; got {spec!r}")


def _fleet_subframes(scale: float) -> int:
    """Subframes per cell: a tenth of the single-node trace length.

    Fleet grid points multiply the workload by the cell count *and* the
    grid size, so each point runs a shorter window; the floor keeps the
    0.999 placement quantile meaningful at small scales.
    """
    return max(240, scaled_subframes(scale) // 10)


# -- fleet workload -----------------------------------------------------------

def _fleet_configs(num_cells: int, load: float) -> List[BasestationTraceConfig]:
    """Cycle the 4-cell evaluation mix across the fleet, scaled by rho."""
    base = default_basestation_configs()
    return [
        dataclasses.replace(
            base[i % len(base)],
            mean=min(0.98, base[i % len(base)].mean * load),
        )
        for i in range(num_cells)
    ]


def _fleet_jobs(
    num_cells: int, load: float, num_subframes: int, seed: int
) -> List[SubframeJob]:
    configs = _fleet_configs(num_cells, load)
    loads = CellularTraceGenerator(configs, seed=seed).generate(num_subframes)
    cfg = CRanConfig(num_basestations=num_cells, transport_latency_us=_RTT_US)
    return build_workload(cfg, num_subframes, seed=seed, loads=loads)


def _placement_weights(
    jobs: Sequence[SubframeJob], scheduler: str
) -> Tuple[Dict[int, float], bool]:
    """Per-cell packing weights and whether they were made integral.

    Shared-queue nodes multiplex cells over one pool, so the fractional
    demand quantile is the right additive weight.  Partitioned-family
    nodes dedicate whole cores per cell, so each cell's footprint is
    the integral ceiling of its quantile, floored at
    :data:`MIN_PARTITIONED_CORES`: the partitioned activation pattern
    (``slot = index % cores_per_bs``) needs at least two cores per cell
    to overlap consecutive subframes, so a node hosting k cells must
    satisfy ``k <= cores_per_node // 2`` — which the two-core floor
    guarantees through the capacity constraint alone.
    """
    weights = demand_weights(jobs, PLACEMENT_QUANTILE)
    if scheduler in SHARED_QUEUE_SCHEDULERS:
        return weights, False
    return {
        bs: float(max(MIN_PARTITIONED_CORES, math.ceil(w)))
        for bs, w in sorted(weights.items())
    }, True


def _place(
    weights: Mapping[int, float], cores_per_node: int, placer: str
) -> Tuple[NodePlacement, Dict[str, object]]:
    """Run one placer; the solver dict is empty for the greedy path."""
    if placer == "greedy":
        return place_by_weights(weights, cores_per_node), {}
    optimal = optimal_place_by_weights(weights, cores_per_node)
    solver = {
        "optimal": optimal.optimal,
        "lower_bound": optimal.lower_bound,
        "solver_gap": optimal.solver_gap,
        "bnb_nodes": optimal.bnb_nodes,
    }
    return optimal.placement, solver


def _node_config(scheduler: str, num_cells: int, cores_per_node: int) -> CRanConfig:
    if scheduler in SHARED_QUEUE_SCHEDULERS:
        return CRanConfig(
            num_basestations=num_cells,
            num_cores=cores_per_node,
            transport_latency_us=_RTT_US,
        )
    return CRanConfig(
        num_basestations=num_cells,
        cores_per_bs=max(1, cores_per_node // num_cells),
        transport_latency_us=_RTT_US,
    )


def _localize(jobs: Sequence[SubframeJob], cells: Sequence[int]) -> List[SubframeJob]:
    """Renumber a node's cells to 0..k-1 so per-node core maps are dense.

    The rebuilt jobs reuse the globally drawn work/noise unchanged —
    placement must never perturb the workload (paired methodology).
    """
    local_of = {bs: i for i, bs in enumerate(sorted(cells))}
    picked = [job for job in jobs if job.subframe.bs_id in local_of]
    return [
        dataclasses.replace(
            job,
            subframe=dataclasses.replace(
                job.subframe, bs_id=local_of[job.subframe.bs_id]
            ),
        )
        for job in picked
    ]


def _run_grid_point(
    num_cells: int,
    cores_per_node: int,
    load: float,
    scheduler: str,
    placer: str,
    num_subframes: int,
    seed: int,
) -> Dict[str, object]:
    jobs = _fleet_jobs(num_cells, load, num_subframes, seed)
    weights, integral = _placement_weights(jobs, scheduler)
    placement, solver = _place(weights, cores_per_node, placer)

    horizon_us = num_subframes * SUBFRAME_US
    nodes: List[Dict[str, object]] = []
    for node in range(placement.node_count):
        cells = placement.basestations_on(node)
        local_jobs = _localize(jobs, cells)
        config = _node_config(scheduler, len(cells), cores_per_node)
        result = run_scheduler(scheduler, config, local_jobs, seed=seed)
        nodes.append(node_summary(result, cells, horizon_us))

    rollup = fleet_summary(nodes, cores_per_node)
    return {
        "cells": num_cells,
        "cores_per_node": cores_per_node,
        "load": load,
        "scheduler": scheduler,
        "placer": placer,
        "num_subframes": num_subframes,
        "weights_integral": integral,
        "weight_sum": sum(weights[bs] for bs in sorted(weights)),
        "solver": solver,
        "nodes": nodes,
        **rollup,
    }


# -- driver + sweep decomposition --------------------------------------------

def _units(scale: float, seed: int, options: Dict[str, str]) -> List[WorkUnit]:
    num_cells = parse_fleet_cells(options.get("fleet_cells", DEFAULT_CELLS))
    node_sizes = parse_nodes(options.get("nodes", DEFAULT_NODES))
    loads = parse_loads(options.get("loads", DEFAULT_LOADS))
    schedulers = parse_schedulers(options.get("schedulers", DEFAULT_SCHEDULERS))
    placers = parse_placer(options.get("placer", DEFAULT_PLACER))
    num_subframes = _fleet_subframes(scale)
    units: List[WorkUnit] = []
    for cores_per_node in node_sizes:
        for load in loads:
            for scheduler in schedulers:
                for placer in placers:
                    units.append(
                        WorkUnit(
                            experiment_id=EXPERIMENT_ID,
                            key=(
                                f"cores={cores_per_node}:load={load:g}"
                                f":sched={scheduler}:placer={placer}"
                            ),
                            params={
                                "fleet_cells": num_cells,
                                "cores_per_node": cores_per_node,
                                "load": load,
                                "scheduler": scheduler,
                                "placer": placer,
                                "num_subframes": num_subframes,
                            },
                            seed=seed,
                        )
                    )
    return units


def _run_unit(unit: WorkUnit) -> UnitResult:
    params = unit.params
    num_cells = int(params["fleet_cells"])
    num_subframes = int(params["num_subframes"])
    data = _run_grid_point(
        num_cells=num_cells,
        cores_per_node=int(params["cores_per_node"]),
        load=float(params["load"]),
        scheduler=str(params["scheduler"]),
        placer=str(params["placer"]),
        num_subframes=num_subframes,
        seed=unit.seed,
    )
    return {"data": data, "events": num_cells * num_subframes}


def _triple_key(point: Mapping[str, object]) -> str:
    return (
        f"cores={int(point['cores_per_node'])}"
        f",load={float(point['load']):g}"
        f",sched={point['scheduler']}"
    )


def _combine(results: List[UnitResult], scale: float, seed: int) -> ExperimentOutput:
    del scale, seed  # everything needed rides in the unit results
    grid = [dict(r["data"]) for r in results]
    if not grid:
        raise ValueError("ext-fleet produced no grid points")

    # Pair greedy/opt node counts per (cores, load, scheduler) triple.
    nodes_by_placer: Dict[str, Dict[str, int]] = {}
    for point in grid:
        nodes_by_placer.setdefault(_triple_key(point), {})[
            str(point["placer"])
        ] = int(point["node_count"])
    gaps: Dict[str, float] = {}
    for key in sorted(nodes_by_placer):
        counts = nodes_by_placer[key]
        if "greedy" in counts and "opt" in counts:
            gaps[key] = placement_gap(counts["greedy"], counts["opt"])

    num_cells = int(grid[0]["cells"])
    num_subframes = int(grid[0]["num_subframes"])
    table = Table(
        [
            "cores/node", "load", "scheduler", "placer",
            "nodes", "cores", "miss rate", "util", "gap vs opt",
        ],
        title=(
            f"Fleet placement sweep ({num_cells} cells, "
            f"{num_subframes} subframes/cell, RTT/2={_RTT_US:.0f}us, "
            f"q={PLACEMENT_QUANTILE})"
        ),
    )
    for point in grid:
        gap = gaps.get(_triple_key(point), math.nan)
        table.add_row(
            [
                int(point["cores_per_node"]),
                float(point["load"]),
                str(point["scheduler"]),
                str(point["placer"]),
                int(point["node_count"]),
                int(point["cores_total"]),
                float(point["miss_rate"]),
                float(point["util_mean"]),
                gap if str(point["placer"]) == "greedy" else math.nan,
            ]
        )

    note_lines = []
    if gaps:
        worst = max(sorted(gaps), key=lambda k: gaps[k])
        note_lines.append(
            f"greedy-vs-optimal node gap: max {gaps[worst]:.1%} at [{worst}]"
        )
    note_lines.append(
        "partitioned-family points pack integral per-cell core "
        "reservations; shared-queue points pack fractional demand quantiles"
    )
    data: Dict[str, object] = {
        "cells": num_cells,
        "num_subframes": num_subframes,
        "quantile": PLACEMENT_QUANTILE,
        "grid": grid,
        "gaps": gaps,
    }
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title="Fleet placement sweep",
        text=table.render() + "\n" + "\n".join(note_lines),
        data=data,
    )


@register(
    EXPERIMENT_ID,
    "Fleet-scale placement sweep, greedy vs optimal (extension)",
    options=("fleet_cells", "nodes", "loads", "schedulers", "placer"),
)
def run(
    scale: float,
    seed: int,
    fleet_cells: str = DEFAULT_CELLS,
    nodes: str = DEFAULT_NODES,
    loads: str = DEFAULT_LOADS,
    schedulers: str = DEFAULT_SCHEDULERS,
    placer: str = DEFAULT_PLACER,
) -> ExperimentOutput:
    options = {
        "fleet_cells": fleet_cells,
        "nodes": nodes,
        "loads": loads,
        "schedulers": schedulers,
        "placer": placer,
    }
    units = _units(scale, seed, options)
    results = [_run_unit(unit) for unit in units]
    return _combine(results, scale, seed)


attach_sweep(
    EXPERIMENT_ID,
    SweepSpec(units=_units, run_unit=_run_unit, combine=_combine),
)
