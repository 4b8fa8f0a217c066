"""Process-pool experiment runner with unit-level result caching.

The runner executes registered experiments three ways, always producing
the same ``ExperimentOutput``:

* **serial** (``jobs=1``): each driver runs inline, exactly as
  ``run_experiment`` would — the reference path;
* **parallel** (``jobs>1``): experiments that declare a
  :class:`~repro.experiments.base.SweepSpec` are decomposed into their
  independent work units (RTT/2 points, schedulers, core counts) and
  fanned out over a process pool together with the undecomposable
  experiments.  Unit results travel back by pickle, so parallel output
  is byte-identical to the serial run;
* **cached**: with a :class:`~repro.runtime.cache.ResultCache` attached,
  finished units and whole experiment outputs are stored on disk and
  warm reruns are served without executing any driver.

Worker processes are forked (POSIX only), so experiments registered at
runtime — including test-local ones — are visible to the pool.
"""

from __future__ import annotations

import math
import multiprocessing
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.base import (
    Experiment,
    ExperimentOutput,
    UnitResult,
    WorkUnit,
    get_experiment,
)
from repro.runtime.cache import ResultCache
from repro.runtime.telemetry import RunReport, UnitStat

#: Unit key recorded for a whole (undecomposed) experiment run.
WHOLE_UNIT_KEY = "__whole__"


@dataclass
class ExperimentResult:
    """One experiment's outcome within a runner invocation."""

    experiment_id: str
    output: Optional[ExperimentOutput] = None
    error: Optional[str] = None
    wall_s: float = 0.0
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


ResultCallback = Callable[[ExperimentResult], None]


def _output_payload(output: ExperimentOutput) -> Dict[str, object]:
    return {"title": output.title, "text": output.text, "data": output.data}


def _output_of_payload(experiment_id: str, payload: Dict[str, object]) -> ExperimentOutput:
    return ExperimentOutput(
        experiment_id=experiment_id,
        title=str(payload["title"]),
        text=str(payload["text"]),
        data=dict(payload["data"]),
    )


# -- pool workers (module-level so they survive pickling) --------------------
#
# Workers are forked, so they inherit the parent's ambient tracer (see
# repro.obs).  Each worker function clears it before running (fork may
# have copied runs the parent already collected), detaches any streaming
# sink (the parent owns the file handle; workers must buffer), and
# drains the runs it produced into a picklable payload returned
# alongside the result; the parent re-emits payloads through its own
# filter/sink in deterministic experiment x unit order so the streamed
# trace is byte-identical to a serial run's.

def _clear_ambient_trace() -> None:
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    if tracer is not None:
        tracer.clear()
        tracer.sink = None


def _drain_ambient_trace() -> Optional[Dict[str, object]]:
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    if tracer is None:
        return None
    return tracer.drain_payload()


def _worker_whole(
    experiment_id: str,
    scale: float,
    seed: int,
    options: Optional[Dict[str, str]] = None,
) -> Tuple[ExperimentOutput, float, Optional[Dict[str, object]]]:
    from repro.experiments import run_experiment  # registration side effects

    _clear_ambient_trace()
    start = perf_counter()
    output = run_experiment(experiment_id, scale=scale, seed=seed, options=options)
    return output, perf_counter() - start, _drain_ambient_trace()


def _worker_unit(
    experiment_id: str, key: str, params: Dict[str, object], seed: int
) -> Tuple[UnitResult, float, Optional[Dict[str, object]]]:
    import repro.experiments  # noqa: F401  (registration side effects)

    exp = get_experiment(experiment_id)
    if exp.sweep is None:
        raise RuntimeError(f"experiment {experiment_id!r} has no sweep decomposition")
    unit = WorkUnit(experiment_id=experiment_id, key=key, params=params, seed=seed)
    _clear_ambient_trace()
    start = perf_counter()
    result = exp.sweep.run_unit(unit)
    return result, perf_counter() - start, _drain_ambient_trace()


class _TraceSpill:
    """Stream worker trace payloads to the parent tracer, in order.

    Slots are registered in serial-equivalent order (experiments x
    units) at submission time; payloads complete in pool-completion
    order.  A payload is ingested — and its memory released — as soon
    as every slot before it has completed, so the parent holds at most
    the out-of-order window instead of every payload until the end.
    Ingestion re-emits through the parent tracer's own filter and
    streaming sink, which is what keeps ``--jobs N`` trace files
    byte-identical to serial ones.
    """

    def __init__(self) -> None:
        self._payloads: List[Optional[Dict[str, object]]] = []
        self._done: List[bool] = []
        self._indices: Dict[Tuple[str, Optional[int]], int] = {}
        self._next = 0

    def register(self, experiment_id: str, index: Optional[int]) -> None:
        """Claim the next serial-order slot for (experiment, unit)."""
        self._indices[(experiment_id, index)] = len(self._payloads)
        self._payloads.append(None)
        self._done.append(False)

    def complete(
        self,
        experiment_id: str,
        index: Optional[int],
        payload: Optional[Dict[str, object]],
    ) -> None:
        """Deliver a slot's payload (``None`` for cached/failed units)."""
        slot = self._indices[(experiment_id, index)]
        self._payloads[slot] = payload
        self._done[slot] = True
        self._drain()

    def _drain(self) -> None:
        from repro.obs.trace import get_tracer

        tracer = get_tracer()
        while self._next < len(self._payloads) and self._done[self._next]:
            payload = self._payloads[self._next]
            self._payloads[self._next] = None
            self._next += 1
            if payload is not None and tracer is not None:
                tracer.ingest_payload(payload)


class ExperimentRunner:
    """Fan experiments (and their sweep units) out over a process pool.

    Parameters
    ----------
    jobs:
        Worker-process count; ``1`` runs everything inline.
    cache:
        Optional on-disk result cache shared by units and whole runs.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache
        # Options of the in-flight run() call; set per invocation.
        self._options: Dict[str, str] = {}

    def _opts_for(self, exp: Experiment) -> Dict[str, str]:
        """The subset of the run's options this experiment declares."""
        return {k: v for k, v in self._options.items() if k in exp.options}

    # -- cache plumbing ------------------------------------------------------

    def _cached_whole(
        self, exp: Experiment, scale: float, seed: int, options: Dict[str, str]
    ) -> Optional[ExperimentOutput]:
        if self.cache is None:
            return None
        key = self.cache.key(
            exp.experiment_id, WHOLE_UNIT_KEY, scale, seed, options=options
        )
        payload = self.cache.get(key)
        if payload is None:
            return None
        return _output_of_payload(exp.experiment_id, payload)

    def _store_whole(
        self,
        exp: Experiment,
        scale: float,
        seed: int,
        output: ExperimentOutput,
        options: Dict[str, str],
    ) -> None:
        if self.cache is None:
            return
        key = self.cache.key(
            exp.experiment_id, WHOLE_UNIT_KEY, scale, seed, options=options
        )
        self.cache.put(key, _output_payload(output))

    def _unit_key(self, exp: Experiment, unit: WorkUnit, scale: float) -> str:
        """Unit identity: its params plus every option the experiment
        declares, so an option is in the key even when ``units()``
        leaves it out of ``params``."""
        assert self.cache is not None
        return self.cache.key(
            unit.experiment_id, unit.key, scale, unit.seed, unit.params,
            options=self._opts_for(exp),
        )

    # -- public API ----------------------------------------------------------

    def run(
        self,
        ids: Sequence[str],
        scale: float = 1.0,
        seed: int = 2016,
        on_result: Optional[ResultCallback] = None,
        options: Optional[Dict[str, str]] = None,
    ) -> Tuple[List[ExperimentResult], RunReport]:
        """Run experiments, containing driver failures.

        Unknown ids raise ``KeyError`` up front; a driver (or sweep
        unit) that raises marks only its experiment failed — the rest
        of the batch completes and the failure lands in
        ``report.failures``.  ``on_result`` fires once per experiment
        as it finishes (completion order under ``jobs>1``); the
        returned list is always in ``ids`` order.  ``options`` are
        forwarded to each experiment that declares them (undeclared
        options are dropped per-experiment, so a batch mixing
        option-aware and plain experiments works).
        """
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError(f"scale must be a finite positive number, got {scale}")
        experiments = [get_experiment(experiment_id) for experiment_id in ids]
        self._options = dict(options or {})
        report = RunReport(
            jobs=self.jobs, scale=scale, seed=seed,
            options=dict(self._options),
            cache_enabled=self.cache is not None,
        )
        hits0, misses0 = (
            (self.cache.hits, self.cache.misses) if self.cache else (0, 0)
        )
        start = perf_counter()
        if self.jobs == 1:
            results = self._run_serial(experiments, scale, seed, report, on_result)
        else:
            results = self._run_parallel(experiments, scale, seed, report, on_result)
        report.wall_s = perf_counter() - start
        if self.cache is not None:
            report.cache_hits = self.cache.hits - hits0
            report.cache_misses = self.cache.misses - misses0
        for result in results:
            if result.error is not None:
                report.failures[result.experiment_id] = result.error
        return results, report

    # -- serial path ---------------------------------------------------------

    def _run_serial(
        self,
        experiments: Sequence[Experiment],
        scale: float,
        seed: int,
        report: RunReport,
        on_result: Optional[ResultCallback],
    ) -> List[ExperimentResult]:
        results = []
        for exp in experiments:
            start = perf_counter()
            opts = self._opts_for(exp)
            cached = self._cached_whole(exp, scale, seed, opts)
            if cached is not None:
                result = ExperimentResult(
                    exp.experiment_id, output=cached,
                    wall_s=perf_counter() - start, cached=True,
                )
            else:
                try:
                    output = exp.fn(scale, seed, **opts)
                except Exception:
                    result = ExperimentResult(
                        exp.experiment_id,
                        error=traceback.format_exc(limit=8),
                        wall_s=perf_counter() - start,
                    )
                else:
                    result = ExperimentResult(
                        exp.experiment_id, output=output,
                        wall_s=perf_counter() - start,
                    )
                    self._store_whole(exp, scale, seed, output, opts)
            report.units.append(
                UnitStat(
                    experiment_id=exp.experiment_id,
                    unit_key=WHOLE_UNIT_KEY,
                    wall_s=result.wall_s,
                    cached=result.cached,
                    error=result.error,
                )
            )
            results.append(result)
            if on_result is not None:
                on_result(result)
        return results

    # -- parallel path -------------------------------------------------------

    def _run_parallel(
        self,
        experiments: Sequence[Experiment],
        scale: float,
        seed: int,
        report: RunReport,
        on_result: Optional[ResultCallback],
    ) -> List[ExperimentResult]:
        results: Dict[str, ExperimentResult] = {}
        # Per decomposed experiment: its units, gathered unit results
        # (by position), and how many are still outstanding.
        unit_lists: Dict[str, List[WorkUnit]] = {}
        unit_results: Dict[str, List[Optional[UnitResult]]] = {}
        pending_units: Dict[str, int] = {}
        submitted_units: Dict[str, int] = {}
        exp_wall: Dict[str, float] = {}
        # In-order streaming of worker trace payloads to the tracer;
        # slots are registered at submission time (serial order).
        spill = _TraceSpill()

        def finish(result: ExperimentResult) -> None:
            results[result.experiment_id] = result
            if on_result is not None:
                on_result(result)

        def combine_ready(exp: Experiment) -> None:
            experiment_id = exp.experiment_id
            gathered = unit_results[experiment_id]
            try:
                output = exp.sweep.combine(list(gathered), scale, seed)
            except Exception:
                finish(
                    ExperimentResult(
                        experiment_id,
                        error=traceback.format_exc(limit=8),
                        wall_s=exp_wall.get(experiment_id, 0.0),
                    )
                )
                return
            self._store_whole(exp, scale, seed, output, self._opts_for(exp))
            finish(
                ExperimentResult(
                    experiment_id, output=output,
                    wall_s=exp_wall.get(experiment_id, 0.0),
                    cached=submitted_units.get(experiment_id, 0) == 0,
                )
            )

        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=self.jobs, mp_context=ctx) as pool:
            future_meta = {}  # future -> (experiment, unit index or None)
            for exp in experiments:
                opts = self._opts_for(exp)
                cached = self._cached_whole(exp, scale, seed, opts)
                if cached is not None:
                    report.units.append(
                        UnitStat(exp.experiment_id, WHOLE_UNIT_KEY, 0.0, cached=True)
                    )
                    finish(
                        ExperimentResult(exp.experiment_id, output=cached, cached=True)
                    )
                    continue
                if exp.sweep is not None:
                    if exp.options:
                        units = exp.sweep.units(scale, seed, opts)
                    else:
                        units = exp.sweep.units(scale, seed)
                    unit_lists[exp.experiment_id] = units
                    unit_results[exp.experiment_id] = [None] * len(units)
                    pending_units[exp.experiment_id] = 0
                    submitted_units[exp.experiment_id] = 0
                    exp_wall[exp.experiment_id] = 0.0
                    for i, unit in enumerate(units):
                        payload = (
                            self.cache.get(self._unit_key(exp, unit, scale))
                            if self.cache is not None
                            else None
                        )
                        if payload is not None:
                            unit_results[exp.experiment_id][i] = payload
                            report.units.append(
                                UnitStat(
                                    exp.experiment_id, unit.key, 0.0,
                                    events=payload.get("events"), cached=True,
                                )
                            )
                            continue
                        pending_units[exp.experiment_id] += 1
                        submitted_units[exp.experiment_id] += 1
                        future = pool.submit(
                            _worker_unit,
                            exp.experiment_id, unit.key, dict(unit.params), unit.seed,
                        )
                        future_meta[future] = (exp, i)
                        spill.register(exp.experiment_id, i)
                    if pending_units[exp.experiment_id] == 0:
                        combine_ready(exp)
                else:
                    future = pool.submit(
                        _worker_whole, exp.experiment_id, scale, seed, opts
                    )
                    future_meta[future] = (exp, None)
                    spill.register(exp.experiment_id, None)

            outstanding = set(future_meta)
            while outstanding:
                done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                for future in done:
                    exp, index = future_meta.pop(future)
                    experiment_id = exp.experiment_id
                    try:
                        value, wall_s, trace_payload = future.result()
                    except Exception:
                        error = traceback.format_exc(limit=8)
                        spill.complete(experiment_id, index, None)
                        unit_key = (
                            WHOLE_UNIT_KEY if index is None
                            else unit_lists[experiment_id][index].key
                        )
                        report.units.append(
                            UnitStat(experiment_id, unit_key, 0.0, error=error)
                        )
                        if experiment_id not in results:
                            finish(ExperimentResult(experiment_id, error=error))
                        continue
                    spill.complete(experiment_id, index, trace_payload)
                    if index is None:
                        report.units.append(
                            UnitStat(experiment_id, WHOLE_UNIT_KEY, wall_s)
                        )
                        self._store_whole(exp, scale, seed, value, self._opts_for(exp))
                        finish(
                            ExperimentResult(experiment_id, output=value, wall_s=wall_s)
                        )
                        continue
                    unit = unit_lists[experiment_id][index]
                    unit_results[experiment_id][index] = value
                    exp_wall[experiment_id] += wall_s
                    report.units.append(
                        UnitStat(
                            experiment_id, unit.key, wall_s,
                            events=value.get("events"),
                        )
                    )
                    if self.cache is not None:
                        self.cache.put(self._unit_key(exp, unit, scale), value)
                    pending_units[experiment_id] -= 1
                    if pending_units[experiment_id] == 0 and experiment_id not in results:
                        combine_ready(exp)

        ordered = []
        for exp in experiments:
            result = results.get(exp.experiment_id)
            if result is None:  # every unit failed before combining
                result = ExperimentResult(
                    exp.experiment_id, error="no unit results produced"
                )
            ordered.append(result)
        return ordered


def outputs_match(a: ExperimentOutput, b: ExperimentOutput) -> bool:
    """Structural equality of two outputs, treating NaN == NaN.

    Used by the determinism tests and the benchmark assertions to check
    parallel/serial equivalence.
    """
    return (
        a.experiment_id == b.experiment_id
        and a.title == b.title
        and a.text == b.text
        and _values_match(a.data, b.data)
    )


def _values_match(a: object, b: object) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _values_match(a[k], b[k]) for k in a
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(_values_match(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        return a == b
    return type(a) is type(b) and a == b
