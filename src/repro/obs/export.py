"""Trace exporters: incremental sinks for Chrome JSON and JSONL.

Both formats are written through *streaming sinks*: a sink receives
``begin_run(run)`` and ``event(run, event)`` calls as the trace is
produced and appends to its file immediately, so exporter memory is
O(1) in the event count — the property that makes paper-scale
``all --scale 1.0`` runs traceable (PR 2's exporters buffered every
event and fell over exactly there).

Chrome format (``--trace-format chrome``, the default) targets
``chrome://tracing`` and Perfetto's legacy-JSON importer: each scheduler
run becomes one *process* (pid = run index, named by the run label) and
each core one *thread* track inside it, so per-core occupancy reads
directly off the timeline.  Idle gaps are rendered on a parallel
``core N gaps`` track to keep the busy tracks strictly non-overlapping.
Migration batches additionally emit Perfetto *flow* events (``ph`` =
``s``/``t``/``f``) linking the planned instant on the owner core, the
executed span on the helper core, and the returned instant back on the
owner — the arrows that make a migration legible across tracks.  The
stream is written as ``{"traceEvents":[`` followed by one serialized
event at a time; thread-name metadata is emitted the first time a track
appears.  Timestamps are microseconds — the Chrome format's native unit
and the simulator's clock resolution.

JSONL format (``--trace-format jsonl``) is one JSON object per line:
``{"type": "run", ...}`` headers followed by their ``{"type": "event",
...}`` lines.  Because each line is flushed independently, a run killed
mid-flight leaves a valid, schema-checkable prefix behind —
:func:`read_jsonl_trace` with ``allow_partial=True`` tolerates the one
possibly-truncated final line.

All writers serialize with sorted keys and fixed separators, so two
tracers fed equal event streams produce byte-identical files — the
property the serial-vs-parallel determinism tests pin.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.obs.events import (
    GAP,
    MIGRATION_EXECUTED,
    MIGRATION_PLANNED,
    MIGRATION_RETURNED,
    SPAN_KINDS,
    TraceEvent,
)
from repro.obs.trace import RunTrace, Tracer, TraceSink

PathLike = Union[str, Path]

#: Thread id used for queue-level events (``core == -1``).
QUEUE_TID = 999
#: Offset separating each core's gap track from its busy track.
GAP_TID_OFFSET = 1000
#: Flow ids are ``pid * FLOW_ID_STRIDE + batch`` so ids stay unique
#: across the document (Chrome flow ids are global, not per-process).
FLOW_ID_STRIDE = 2 ** 32


def _tid_for(event: TraceEvent) -> int:
    if event.core < 0:
        return QUEUE_TID
    if event.kind == GAP:
        return GAP_TID_OFFSET + event.core
    return event.core


def _thread_name(tid: int) -> str:
    if tid == QUEUE_TID:
        return "queue"
    if tid >= GAP_TID_OFFSET:
        return f"core {tid - GAP_TID_OFFSET} gaps"
    return f"core {tid}"


def _dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class _ChromeRunEncoder:
    """Translate one run's events into Chrome trace-event objects.

    Stateful so it works incrementally: thread-name metadata is emitted
    the first time a track appears, and migration flow events are
    derived from the batch ids the schedulers stamp into event args.
    """

    def __init__(self, pid: int, label: str):
        self.pid = pid
        self.label = label
        self._seen_tids: set = set()

    def preamble(self) -> List[Dict[str, object]]:
        return [
            {
                "name": "process_name",
                "ph": "M",
                "pid": self.pid,
                "tid": 0,
                "args": {"name": self.label},
            },
            {
                "name": "process_sort_index",
                "ph": "M",
                "pid": self.pid,
                "tid": 0,
                "args": {"sort_index": self.pid},
            },
        ]

    def _flow(self, phase: str, batch: int, ts_us: float, tid: int) -> Dict[str, object]:
        flow: Dict[str, object] = {
            "name": "migration",
            "cat": "migration",
            "ph": phase,
            "id": self.pid * FLOW_ID_STRIDE + batch,
            "ts": ts_us,
            "pid": self.pid,
            "tid": tid,
        }
        if phase == "f":
            flow["bp"] = "e"
        return flow

    def _flows_for(self, event: TraceEvent, tid: int) -> List[Dict[str, object]]:
        if event.kind == MIGRATION_PLANNED:
            batches = event.args.get("batches")
            if isinstance(batches, list):
                return [
                    self._flow("s", int(batch), event.ts_us, tid)
                    for batch in batches
                ]
        elif event.kind == MIGRATION_EXECUTED:
            batch = event.args.get("batch")
            if isinstance(batch, int):
                return [self._flow("t", batch, event.ts_us, tid)]
        elif event.kind == MIGRATION_RETURNED:
            batch = event.args.get("batch")
            if isinstance(batch, int):
                return [self._flow("f", batch, event.ts_us, tid)]
        return []

    def encode(self, event: TraceEvent) -> List[Dict[str, object]]:
        out: List[Dict[str, object]] = []
        tid = _tid_for(event)
        if tid not in self._seen_tids:
            self._seen_tids.add(tid)
            out.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": self.pid,
                    "tid": tid,
                    "args": {"name": _thread_name(tid)},
                }
            )
        args: Dict[str, object] = dict(event.args)
        if event.bs_id >= 0:
            args["bs"] = event.bs_id
        if event.sf_index >= 0:
            args["sf"] = event.sf_index
        chrome: Dict[str, object] = {
            "name": event.name or event.kind,
            "cat": event.kind,
            "ts": event.ts_us,
            "pid": self.pid,
            "tid": tid,
            "args": args,
        }
        if event.kind in SPAN_KINDS:
            chrome["ph"] = "X"
            chrome["dur"] = event.dur_us
        else:
            chrome["ph"] = "i"
            chrome["s"] = "t"
        out.append(chrome)
        out.extend(self._flows_for(event, tid))
        return out


class ChromeTraceSink:
    """Incremental Chrome trace-event writer.

    Events are appended to the ``traceEvents`` array as they arrive;
    :meth:`close` writes the document tail (``displayTimeUnit`` and
    ``otherData``, including the run-label list).  Only per-run encoder
    state and the label list are held in memory.
    """

    def __init__(self, path: PathLike):
        self._handle = open(Path(path), "w")
        self._handle.write('{"traceEvents":[')
        self._first_event = True
        self._labels: List[str] = []
        self._encoders: Dict[int, _ChromeRunEncoder] = {}

    def begin_run(self, run: RunTrace) -> None:
        encoder = _ChromeRunEncoder(len(self._labels), run.label)
        self._labels.append(run.label)
        self._encoders[id(run)] = encoder
        self._write(encoder.preamble())

    def event(self, run: RunTrace, event: TraceEvent) -> None:
        self._write(self._encoders[id(run)].encode(event))

    def _write(self, chrome_events: List[Dict[str, object]]) -> None:
        parts = []
        for obj in chrome_events:
            if not self._first_event:
                parts.append(",")
            self._first_event = False
            parts.append(_dumps(obj))
        self._handle.write("".join(parts))

    def close(self) -> None:
        tail = {"source": "repro.obs", "runs": self._labels}
        self._handle.write(
            '],"displayTimeUnit":"ms","otherData":' + _dumps(tail) + "}\n"
        )
        self._handle.close()


class JsonlTraceSink:
    """Incremental line-delimited JSON writer (one object per line)."""

    def __init__(self, path: PathLike):
        self._handle = open(Path(path), "w")
        self._indices: Dict[int, int] = {}
        self._count = 0

    def begin_run(self, run: RunTrace) -> None:
        index = self._count
        self._count += 1
        self._indices[id(run)] = index
        # Headers carry the run's *begin-time* meta snapshot: a live
        # stream writes this line before the scheduler finishes (and
        # possibly appends end-of-run metadata), so using the snapshot in
        # every path keeps streamed and replayed files byte-identical.
        header = {
            "type": "run",
            "index": index,
            "label": run.label,
            "scheduler": run.scheduler,
            "meta": dict(run.begin_meta),
        }
        self._handle.write(_dumps(header) + "\n")

    def event(self, run: RunTrace, event: TraceEvent) -> None:
        line = {"type": "event", "run": self._indices[id(run)], **event.to_dict()}
        self._handle.write(_dumps(line) + "\n")

    def close(self) -> None:
        self._handle.close()


def open_sink(path: PathLike, fmt: str):
    """Sink factory for the CLI: ``chrome`` or ``jsonl``."""
    if fmt == "chrome":
        return ChromeTraceSink(path)
    if fmt == "jsonl":
        return JsonlTraceSink(path)
    raise ValueError(f"unknown trace format {fmt!r}")


def replay_to_sink(tracer: Tracer, sink) -> None:
    """Feed a buffered tracer's runs through a sink, in order.

    This is how the buffered ``write_*`` helpers share the streaming
    code path: a buffered trace replayed through a sink is
    byte-identical to the same events streamed live.
    """
    for run in tracer.runs:
        sink.begin_run(run)
        for event in run.events:
            sink.event(run, event)


def write_chrome_trace(path: PathLike, tracer: Tracer) -> None:
    """Stream a buffered tracer to ``path`` in Chrome trace format."""
    sink = ChromeTraceSink(path)
    try:
        replay_to_sink(tracer, sink)
    finally:
        sink.close()


def write_jsonl_trace(path: PathLike, tracer: Tracer) -> None:
    """Stream a buffered tracer to ``path`` as line-delimited JSON."""
    sink = JsonlTraceSink(path)
    try:
        replay_to_sink(tracer, sink)
    finally:
        sink.close()


def iter_jsonl_lines(
    path: PathLike, allow_partial: bool = False
) -> Iterator[Dict[str, object]]:
    """Yield parsed JSONL lines without loading the file into memory.

    With ``allow_partial=True`` a final line that fails to parse (a
    writer killed mid-line) is silently dropped; a malformed line
    anywhere else still raises.
    """
    pending_error: Optional[ValueError] = None
    with open(Path(path)) as handle:
        for lineno, line in enumerate(handle, start=1):
            if pending_error is not None:
                raise pending_error
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except ValueError as exc:
                if not allow_partial:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
                # Defer: only the *last* line may be truncated.
                pending_error = ValueError(f"{path}:{lineno}: {exc}")
    # A deferred error on the final line is forgiven under allow_partial.


def read_jsonl_trace(
    path: PathLike,
    allow_partial: bool = False,
    sink: Optional[TraceSink] = None,
) -> Tracer:
    """Reload a JSONL trace into a :class:`Tracer`.

    Each event goes to the run its ``run`` index names, so runs whose
    lines interleave are rebuilt as written.  With ``sink`` the events
    stream through it (``begin_run`` per header, ``event`` per line) and
    nothing is buffered; the caller closes the sink.  An unparseable
    line, a run header out of index order, or an event naming no earlier
    run header raises ``ValueError``; a missing required field raises
    ``KeyError``.
    """
    tracer = Tracer(sink=sink)
    for payload in iter_jsonl_lines(path, allow_partial=allow_partial):
        kind = payload.get("type") if isinstance(payload, dict) else None
        if kind == "run":
            if int(payload["index"]) != len(tracer.runs):
                raise ValueError(
                    f"{path}: run header {payload['index']} out of order"
                )
            tracer.begin_run(
                str(payload["label"]),
                scheduler=str(payload.get("scheduler", "")),
                meta=dict(payload.get("meta", {})),
            )
        elif kind == "event":
            index = int(payload["run"])
            if not 0 <= index < len(tracer.runs):
                raise ValueError(f"{path}: event references unknown run {index}")
            tracer.runs[index].emit(TraceEvent.from_dict(payload))
        else:
            raise ValueError(f"{path}: unknown line type {kind!r}")
    return tracer
