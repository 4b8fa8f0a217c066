"""Trace collection: per-run event buffers, streaming, and the tracer.

A :class:`RunTrace` is one scheduler invocation's timeline — typed emit
helpers build :class:`~repro.obs.events.TraceEvent` objects and funnel
them through :meth:`RunTrace.emit`, where the per-kind filter and the
streaming sink are applied.  Two collection modes:

* **buffered** (the default): events append to ``run.events``, the mode
  the in-memory aggregators (:mod:`repro.analysis.tracestats`) and the
  cross-process payloads use;
* **streaming**: with a sink attached (see :mod:`repro.obs.export`)
  every event is written to disk at emit time and *nothing* is
  buffered — exporter memory stays O(1) in the event count, which is
  what makes paper-scale ``all --scale 1.0`` runs traceable.

A :class:`Tracer` owns the run list for a whole CLI/runner invocation
and round-trips through a JSON-native payload so forked worker
processes can ship their runs back to the parent (see
:meth:`Tracer.drain_payload` / :meth:`Tracer.ingest_payload`).  Workers
always buffer (the parent owns the file handle); the parent re-emits
ingested payloads through the same filter/sink path, so a parallel run
streams exactly the bytes a serial run would.

The ambient-tracer context (:func:`set_tracer` / :func:`get_tracer` /
:func:`tracing`) is how tracing reaches the schedulers without touching
every experiment driver's signature: ``run_scheduler`` begins a run on
the ambient tracer when one is installed and passes the resulting
``RunTrace`` down.  With no tracer installed every hot path sees
``None`` and emits nothing — the zero-overhead-when-disabled contract.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.obs.events import (
    ARRIVAL,
    DEADLINE,
    GAP,
    MIGRATION_EXECUTED,
    MIGRATION_PLANNED,
    MIGRATION_RETURNED,
    SUBTASK,
    TASK,
    TraceEvent,
)


@runtime_checkable
class TraceSink(Protocol):
    """Structural interface every streaming sink implements.

    The exporters (:mod:`repro.obs.export`) and the sanitizing wrapper
    (:class:`repro.check.SanitizingSink`) all satisfy it: a run header
    hook, a per-event hook, and a close.  ``RunTrace``/:class:`Tracer`
    accept any object with this shape.
    """

    def begin_run(self, run: "RunTrace") -> None: ...

    def event(self, run: "RunTrace", event: TraceEvent) -> None: ...

    def close(self) -> None: ...


class TraceStats:
    """Per-kind counters maintained at emit time.

    Streaming mode buffers nothing, so the end-of-run summary
    (``--json`` telemetry) cannot be recomputed from ``run.events``;
    these counters are updated on every accepted emission instead and
    are exact in both modes.
    """

    __slots__ = ("kinds", "deadline_misses")

    def __init__(self) -> None:
        self.kinds: Dict[str, int] = {}
        self.deadline_misses = 0

    def record(self, event: TraceEvent) -> None:
        self.kinds[event.kind] = self.kinds.get(event.kind, 0) + 1
        if event.kind == DEADLINE and event.args.get("missed"):
            self.deadline_misses += 1

    def total(self) -> int:
        return sum(self.kinds.values())


class RunTrace:
    """Event buffer (or stream head) for one scheduler run.

    The typed helpers mirror the event vocabulary one-to-one: each one
    is named after its kind and fixes that kind's ``args`` keys
    (:data:`~repro.obs.events.EVENT_ARG_FIELDS`) in its signature, so an
    emit site cannot invent a kind or a key.  Schedulers call them only
    behind an ``is not None`` guard, so a
    disabled trace costs one pointer comparison per site.  Every helper
    funnels through :meth:`emit`, the single point where the kind
    filter, the stats counters, and the streaming sink apply.
    """

    __slots__ = (
        "label", "scheduler", "meta", "begin_meta", "events", "kinds", "sink",
        "stats",
    )

    def __init__(
        self,
        label: str,
        scheduler: str = "",
        meta: Optional[Mapping[str, object]] = None,
        kinds: Optional[FrozenSet[str]] = None,
        sink: Optional[TraceSink] = None,
        stats: Optional[TraceStats] = None,
    ):
        self.label = label
        self.scheduler = scheduler or label
        self.meta: Dict[str, object] = dict(meta or {})
        # Snapshot of the metadata known when the run began.  Streaming
        # sinks write their run header immediately, before the scheduler
        # has a chance to add end-of-run metadata (e.g. the simulator
        # stats), so serialized headers always carry this snapshot — the
        # only way a live stream and a buffered replay can agree
        # byte-for-byte.
        self.begin_meta: Dict[str, object] = dict(self.meta)
        self.events: List[TraceEvent] = []
        self.kinds = kinds
        self.sink = sink
        self.stats = stats

    def __len__(self) -> int:
        return len(self.events)

    def emit(self, event: TraceEvent) -> None:
        """Accept one event: filter, count, then stream or buffer it."""
        if self.kinds is not None and event.kind not in self.kinds:
            return
        if self.stats is not None:
            self.stats.record(event)
        if self.sink is not None:
            self.sink.event(self, event)
        else:
            self.events.append(event)

    # -- typed emitters ------------------------------------------------------

    def arrival(self, ts_us: float, core: int, bs_id: int, sf_index: int) -> None:
        self.emit(TraceEvent(ARRIVAL, ts_us, core, bs_id=bs_id, sf_index=sf_index))

    def task(
        self,
        core: int,
        name: str,
        start_us: float,
        end_us: float,
        bs_id: int = -1,
        sf_index: int = -1,
        cache_penalty_us: Optional[float] = None,
    ) -> None:
        """One pipeline-stage span; silently skipped when empty."""
        if end_us <= start_us:
            return
        args: Dict[str, object] = {}
        if cache_penalty_us is not None:
            args["cache_penalty_us"] = cache_penalty_us
        self.emit(
            TraceEvent(
                TASK, start_us, core, name=name, dur_us=end_us - start_us,
                bs_id=bs_id, sf_index=sf_index, args=args,
            )
        )

    def subtask(
        self,
        core: int,
        name: str,
        start_us: float,
        end_us: float,
        bs_id: int = -1,
        sf_index: int = -1,
        preempted: Optional[bool] = None,
    ) -> None:
        if end_us <= start_us:
            return
        args: Dict[str, object] = {}
        if preempted is not None:
            args["preempted"] = preempted
        self.emit(
            TraceEvent(
                SUBTASK, start_us, core, name=name, dur_us=end_us - start_us,
                bs_id=bs_id, sf_index=sf_index, args=args,
            )
        )

    def migration_planned(
        self,
        ts_us: float,
        core: int,
        task: str,
        shipped: int,
        targets: Sequence[int],
        bs_id: int = -1,
        sf_index: int = -1,
        batches: Optional[Sequence[int]] = None,
    ) -> None:
        args: Dict[str, object] = {"shipped": shipped, "targets": list(targets)}
        if batches is not None:
            args["batches"] = list(batches)
        self.emit(
            TraceEvent(
                MIGRATION_PLANNED, ts_us, core, name=task,
                bs_id=bs_id, sf_index=sf_index, args=args,
            )
        )

    def migration_executed(
        self,
        core: int,
        task: str,
        start_us: float,
        end_us: float,
        owner_core: int,
        shipped: int,
        completed: int,
        bs_id: int = -1,
        sf_index: int = -1,
        batch: int = -1,
    ) -> None:
        if end_us <= start_us:
            return
        args: Dict[str, object] = {
            "owner": owner_core, "shipped": shipped, "completed": completed,
        }
        if batch >= 0:
            args["batch"] = batch
        self.emit(
            TraceEvent(
                MIGRATION_EXECUTED, start_us, core, name=task,
                dur_us=end_us - start_us, bs_id=bs_id, sf_index=sf_index,
                args=args,
            )
        )

    def migration_returned(
        self,
        ts_us: float,
        core: int,
        task: str,
        completed: int,
        recovered: int,
        bs_id: int = -1,
        sf_index: int = -1,
        batch: int = -1,
    ) -> None:
        args: Dict[str, object] = {"completed": completed, "recovered": recovered}
        if batch >= 0:
            args["batch"] = batch
        self.emit(
            TraceEvent(
                MIGRATION_RETURNED, ts_us, core, name=task,
                bs_id=bs_id, sf_index=sf_index, args=args,
            )
        )

    def gap(
        self,
        core: int,
        start_us: float,
        dur_us: float,
        bs_id: int = -1,
        sf_index: int = -1,
        usable: bool = True,
    ) -> None:
        """Idle span after a subframe; ``usable=False`` marks slack-check
        drops whose gap the framework keeps out of the helper pool."""
        if dur_us <= 0:
            return
        self.emit(
            TraceEvent(
                GAP, start_us, core, dur_us=dur_us,
                bs_id=bs_id, sf_index=sf_index, args={"usable": usable},
            )
        )

    def deadline(
        self,
        ts_us: float,
        core: int,
        missed: bool,
        bs_id: int = -1,
        sf_index: int = -1,
        drop_stage: Optional[str] = None,
        service: str = "embb",
    ) -> None:
        args: Dict[str, object] = {"missed": missed}
        if drop_stage:
            args["drop_stage"] = drop_stage
        # The default class is implicit so single-class trace files stay
        # byte-identical to the pre-mixed-service goldens.
        if service != "embb":
            args["service"] = service
        self.emit(
            TraceEvent(
                DEADLINE, ts_us, core,
                name="miss" if missed else "hit",
                bs_id=bs_id, sf_index=sf_index, args=args,
            )
        )

    # -- payload round-trip --------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "scheduler": self.scheduler,
            "meta": dict(self.meta),
            "begin_meta": dict(self.begin_meta),
            "events": [e.to_dict() for e in self.events],
        }


class TeeRunTrace(RunTrace):
    """Forward every emission to several :class:`RunTrace` targets.

    ``run_scheduler`` uses this when a caller asks for a private
    capture trace *and* an ambient tracer is installed: the scheduler
    sees one trace object, the ambient run streams/buffers as
    configured, and the capture run keeps its own (possibly filtered)
    buffer.  ``meta`` is shared with the primary target so scheduler
    metadata (e.g. the simulator stats) lands on the real run.
    """

    __slots__ = ("targets",)

    def __init__(self, primary: RunTrace, *others: RunTrace):
        super().__init__(primary.label, scheduler=primary.scheduler)
        self.meta = primary.meta
        self.targets = (primary,) + others

    def emit(self, event: TraceEvent) -> None:
        for target in self.targets:
            target.emit(event)


class Tracer:
    """All trace runs of one runner/CLI invocation, in emission order.

    ``kinds`` (optional) filters every run's emissions at emit time;
    ``sink`` (optional) streams accepted events to disk instead of
    buffering them.  Both propagate to runs created by
    :meth:`begin_run` and to payloads re-emitted by
    :meth:`ingest_payload`.
    """

    def __init__(
        self,
        kinds: Optional[FrozenSet[str]] = None,
        sink: Optional[TraceSink] = None,
    ) -> None:
        self.runs: List[RunTrace] = []
        self.kinds = kinds
        self.sink = sink
        self.stats = TraceStats()

    def __len__(self) -> int:
        return len(self.runs)

    def begin_run(
        self,
        label: str,
        scheduler: str = "",
        meta: Optional[Mapping[str, object]] = None,
    ) -> RunTrace:
        run = RunTrace(
            label, scheduler=scheduler, meta=meta,
            kinds=self.kinds, sink=self.sink, stats=self.stats,
        )
        self.runs.append(run)
        if self.sink is not None:
            self.sink.begin_run(run)
        return run

    def num_events(self) -> int:
        """Accepted events so far (exact in both buffered and streaming
        modes — counted at emit time, not from the buffers)."""
        return self.stats.total()

    def clear(self) -> None:
        self.runs = []
        self.stats = TraceStats()

    def summary(self) -> Dict[str, object]:
        """JSON-native roll-up for telemetry reports."""
        return {
            "runs": len(self.runs),
            "events": self.stats.total(),
            "deadline_misses": self.stats.deadline_misses,
            "kinds": dict(sorted(self.stats.kinds.items())),
        }

    # -- cross-process transport ---------------------------------------------

    def payload(self) -> Dict[str, object]:
        return {"runs": [run.to_payload() for run in self.runs]}

    def drain_payload(self) -> Dict[str, object]:
        """Payload of everything collected so far, then reset.

        Worker processes call this after each work unit so runs never
        leak between units executed by the same pool worker.
        """
        payload = self.payload()
        self.clear()
        return payload

    def ingest_payload(self, payload: Mapping[str, object]) -> None:
        """Re-emit runs shipped back from a worker process.

        Events pass through :meth:`RunTrace.emit`, so the parent's
        filter, counters, and streaming sink apply exactly as they
        would have for a serial in-process run.
        """
        runs = payload.get("runs", [])
        if not isinstance(runs, list):
            return
        for run_payload in runs:
            meta = dict(run_payload.get("meta", {}))
            # begin_run writes the streamed header, so it must see the
            # worker's begin-time meta snapshot (what a serial run's
            # header carried); end-of-run metadata is restored after.
            run = self.begin_run(
                str(run_payload["label"]),
                scheduler=str(run_payload.get("scheduler", "")),
                meta=dict(run_payload.get("begin_meta", meta)),
            )
            run.meta.update(meta)
            events = run_payload.get("events", [])
            if isinstance(events, list):
                for event_payload in events:
                    run.emit(TraceEvent.from_dict(event_payload))


# -- ambient tracer context ---------------------------------------------------

_ACTIVE: Optional[Tracer] = None


def set_tracer(tracer: Optional[Tracer]) -> None:
    """Install (or, with ``None``, remove) the process-wide tracer."""
    global _ACTIVE
    _ACTIVE = tracer


def get_tracer() -> Optional[Tracer]:
    """The ambient tracer, or ``None`` when tracing is disabled."""
    return _ACTIVE


@contextmanager
def tracing(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Scoped :func:`set_tracer`; restores the previous tracer on exit."""
    previous = get_tracer()
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
