"""Per-layer host-time spans for the benchmark's traced run.

:class:`LayerProbe` wraps the public entry points of each ``repro``
layer, times every call made while it is active, and restores every
wrapped attribute on exit.  Experiment modules bind ``build_workload``
and ``run_scheduler`` when they are imported, so those names are
patched in each experiment module's namespace, where the drivers look
them up.  An entry point missing from the measured tree (renamed or
deleted by a later change) is skipped and listed in
:attr:`LayerProbe.missing`; its metrics stay 0.

Span vocabulary.  Host-time spans inside the program should reuse these
names, so that layer benchmarks are aggregates of the same spans:

* ``workload`` -- load-trace generation, ``build_workload`` and the
  mixed-class builder, with ``build_workload_arrays`` (columns) and
  ``materialize_jobs`` inside;
* ``sched.<policy>`` -- one ``run_scheduler`` call;
* ``sched.migration`` -- ``plan_migration`` (Algorithm 1);
* ``sim`` -- ``Simulator.run``, callbacks included;
* ``placement`` -- demand weights, the FFD and the MILP placers;
* ``analysis`` -- result summaries, fleet rollups, table rendering;
* ``obs`` -- trace sink calls;
* ``runtime`` -- ``ExperimentRunner.run`` around the experiment driver.

Times are inclusive, and a call nested in a span of its own layer is
not counted again.  ``experiments.self_s`` is driver time that no
outermost layer span covers.
"""

from __future__ import annotations

import dataclasses
import functools
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

POLICIES = ("partitioned", "global", "rt-opex", "pran", "cloudiq", "das")

#: Every metric the probe reports, with its unit.
LAYER_UNITS: Dict[str, str] = {
    "workload.build_s": "s",
    "workload.columns_s": "s",
    "workload.materialize_s": "s",
    "workload.calls": "count",
    "workload.jobs": "count",
    **{
        f"sched.{policy}.{name}": unit
        for policy in POLICIES
        for name, unit in (
            ("s", "s"),
            ("runs", "count"),
            ("subframes", "count"),
            ("us_per_subframe", "us"),
            ("missed", "count"),
        )
    },
    "sched.migration.calls": "count",
    "sched.migration.s": "s",
    "sim.events": "count",
    "sim.batch_pops": "count",
    "sim.run_s": "s",
    "sim.ns_per_event": "ns",
    "placement.weights_s": "s",
    "placement.ffd_s": "s",
    "placement.milp_s": "s",
    "placement.milp_bnb_nodes": "count",
    "placement.nodes": "count",
    "analysis.s": "s",
    "obs.sink_s": "s",
    "obs.events": "count",
    "obs.bytes": "bytes",
    "obs.us_per_event": "us",
    "runtime.self_s": "s",
    "experiments.self_s": "s",
}

#: ``record(args, result, elapsed_s, state)``; ``state`` is what the
#: span's ``before(args)`` hook returned, or ``None``.
Record = Callable[[tuple, Any, float, Any], None]


class LayerProbe:
    """Context manager timing the layers of every call made inside it."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = dict.fromkeys(LAYER_UNITS, 0)
        #: ``owner.attribute`` of entry points absent from the measured tree.
        self.missing: List[str] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._open: Set[str] = set()  # layers with a span in progress
        self._top_s = 0.0  # time inside outermost layer spans
        self._bookkeeping_s = 0.0  # records made outside every span
        self._runner_s = 0.0
        self._driver_s = 0.0
        self._uncovered_s = 0.0

    def __enter__(self) -> "LayerProbe":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    @property
    def patched(self) -> List[Tuple[object, str, object]]:
        """``(owner, attribute, original)`` of every wrapped entry point."""
        return list(self._patched)

    def metrics(self, trace_events: int = 0, trace_bytes: int = 0) -> Dict[str, float]:
        """Every per-layer metric by name; the trace counts come from the run."""
        out = dict(self.totals)
        for policy in POLICIES:
            out[f"sched.{policy}.us_per_subframe"] = _ratio(
                out[f"sched.{policy}.s"] * 1e6, out[f"sched.{policy}.subframes"]
            )
        out["sim.ns_per_event"] = _ratio(out["sim.run_s"] * 1e9, out["sim.events"])
        out["obs.events"] = trace_events
        out["obs.bytes"] = trace_bytes
        out["obs.us_per_event"] = _ratio(out["obs.sink_s"] * 1e6, trace_events)
        out["runtime.self_s"] = self._runner_s - self._driver_s
        out["experiments.self_s"] = self._uncovered_s
        return out

    # -- installation ---------------------------------------------------------

    def _install(self) -> None:
        import repro.experiments.ext_fleet as fleet
        import repro.experiments.ext_mixed as mixed
        import repro.experiments.fig15_deadline as fig15
        import repro.experiments.table2 as table2
        import repro.runtime.engine as engine
        import repro.sched.migration as migration
        import repro.sched.runner as runner
        import repro.workload.soa as soa
        from repro.analysis.report import Table
        from repro.obs.export import ChromeTraceSink
        from repro.sched.base import SchedulerResult
        from repro.sim.engine import Simulator
        from repro.workload.traces import CellularTraceGenerator

        drivers = (table2, fig15, fleet, mixed)
        # ``runner`` is where build_mixed_workload looks build_workload up.
        for module in (table2, fig15, fleet, runner):
            self._span(module, "build_workload", "workload", self._record_build)
        self._span(mixed, "build_mixed_workload", "workload", self._record_build)
        self._span(CellularTraceGenerator, "generate", "workload", self._timer("workload.build_s"))
        self._span(soa, "build_workload_arrays", "workload.columns",
                   self._timer("workload.columns_s"))
        self._span(soa, "materialize_jobs", "workload.materialize",
                   self._timer("workload.materialize_s"))
        for module in drivers:
            self._span(module, "run_scheduler", "sched", self._record_sched)
        # RtOpexScheduler imports plan_migration from its module per run.
        self._span(migration, "plan_migration", "sched.migration", self._record_migration)
        self._span(Simulator, "run", "sim", self._record_sim, before=_sim_counters)
        self._span(fleet, "demand_weights", "placement", self._timer("placement.weights_s"))
        self._span(fleet, "place_by_weights", "placement", self._placer("placement.ffd_s"))
        self._span(fleet, "optimal_place_by_weights", "placement",
                   self._placer("placement.milp_s"))
        for owner, name in (
            (SchedulerResult, "summary"),
            (SchedulerResult, "miss_rate"),
            (SchedulerResult, "records_by_class"),
            (Table, "render"),
            (fleet, "node_summary"),
            (fleet, "fleet_summary"),
            (mixed, "summarize"),
        ):
            self._span(owner, name, "analysis", self._timer("analysis.s"))
        for name in ("begin_run", "event", "close"):
            self._span(ChromeTraceSink, name, "obs", self._timer("obs.sink_s"))
        self._patch(engine.ExperimentRunner, "run", self._time_runner)
        self._patch(engine, "get_experiment", self._time_drivers)

    def _patch(self, owner: object, name: str, wrap: Callable[[Any], Any]) -> None:
        original = vars(owner).get(name)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
            return
        self._patched.append((owner, name, original))
        setattr(owner, name, wrap(original))

    def _restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- spans ----------------------------------------------------------------

    def _span(
        self,
        owner: object,
        name: str,
        layer: str,
        record: Record,
        before: Optional[Callable[[tuple], Any]] = None,
    ) -> None:
        probe = self

        def wrap(fn):
            @functools.wraps(fn)
            def span(*args, **kwargs):
                if layer in probe._open:
                    return fn(*args, **kwargs)
                outermost = not probe._open
                state = before(args) if before is not None else None
                probe._open.add(layer)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    probe._open.discard(layer)
                mark = perf_counter()
                record(args, result, elapsed, state)
                if outermost:
                    probe._top_s += elapsed
                    probe._bookkeeping_s += perf_counter() - mark
                return result

            return span

        self._patch(owner, name, wrap)

    def _time_runner(self, fn):
        probe = self

        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                probe._runner_s += perf_counter() - start

        return run

    def _time_drivers(self, get_experiment):
        """Hand the runner experiments whose driver function is timed."""
        probe = self

        def timed(fn):
            @functools.wraps(fn)
            def driver(*args, **kwargs):
                top, kept = probe._top_s, probe._bookkeeping_s
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    probe._driver_s += elapsed
                    probe._uncovered_s += (
                        elapsed - (probe._top_s - top) - (probe._bookkeeping_s - kept)
                    )

            return driver

        @functools.wraps(get_experiment)
        def timed_get_experiment(experiment_id):
            experiment = get_experiment(experiment_id)
            return dataclasses.replace(experiment, fn=timed(experiment.fn))

        return timed_get_experiment

    # -- records --------------------------------------------------------------

    def _timer(self, metric: str) -> Record:
        def record(args, result, elapsed, state):
            self.totals[metric] += elapsed

        return record

    def _record_build(self, args, jobs, elapsed, state) -> None:
        self.totals["workload.build_s"] += elapsed
        self.totals["workload.calls"] += 1
        self.totals["workload.jobs"] += len(jobs)

    def _record_sched(self, args, result, elapsed, state) -> None:
        policy = "rt-opex" if args[0] == "rtopex" else args[0]
        self.totals[f"sched.{policy}.s"] += elapsed
        self.totals[f"sched.{policy}.runs"] += 1
        self.totals[f"sched.{policy}.subframes"] += len(result.records)
        self.totals[f"sched.{policy}.missed"] += result.miss_count()

    def _record_migration(self, args, decision, elapsed, state) -> None:
        self.totals["sched.migration.s"] += elapsed
        self.totals["sched.migration.calls"] += 1

    def _record_sim(self, args, result, elapsed, before) -> None:
        executed, batch_pops = _sim_counters(args)
        self.totals["sim.run_s"] += elapsed
        self.totals["sim.events"] += executed - before[0]
        self.totals["sim.batch_pops"] += batch_pops - before[1]

    def _placer(self, metric: str) -> Record:
        def record(args, placement, elapsed, state):
            self.totals[metric] += elapsed
            self.totals["placement.nodes"] += placement.node_count
            self.totals["placement.milp_bnb_nodes"] += getattr(placement, "bnb_nodes", 0)

        return record


def _sim_counters(args: tuple) -> Tuple[int, int]:
    stats = args[0].stats()
    return stats["executed"], stats["batch_pops"]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
