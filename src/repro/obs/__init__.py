"""Observability: structured event tracing for the discrete-event runs.

``repro.obs`` gives every scheduler run a microsecond-resolution
timeline: the schedulers emit typed :class:`~repro.obs.events.TraceEvent`
objects (subframe arrivals, task/subtask spans, migration
planned/executed/returned, idle gaps, deadline verdicts) into a
:class:`~repro.obs.trace.RunTrace`, one per scheduler invocation,
collected by a :class:`~repro.obs.trace.Tracer`.

Tracing is strictly opt-in: with no tracer installed the schedulers pay
one ``is None`` check per emission site and allocate nothing.  The CLI
installs a process-wide tracer (``--trace PATH``) via
:func:`~repro.obs.trace.tracing`; forked worker processes inherit it and
ship their events back through the runner, so ``--jobs N`` runs produce
byte-identical trace files to serial ones.

Exporters: :func:`~repro.obs.export.write_chrome_trace` emits the Chrome
trace-event JSON that ``chrome://tracing`` and Perfetto load (one process
per scheduler run, one thread track per core);
:func:`~repro.obs.export.write_jsonl_trace` emits a line-per-event format
for programmatic analysis (see :mod:`repro.analysis.tracestats`), and
:func:`~repro.obs.export.read_jsonl_trace` is its one reader, buffered
or streamed through a sink.  Each format has exactly one writer, the
streaming sink; the ``write_*`` helpers replay a buffered tracer
through it.
"""

from repro.obs.events import (
    ARRIVAL,
    BUSY_KINDS,
    DEADLINE,
    EVENT_KINDS,
    GAP,
    KIND_GROUPS,
    MIGRATION_EXECUTED,
    MIGRATION_PLANNED,
    MIGRATION_RETURNED,
    SUBTASK,
    TASK,
    TraceEvent,
    resolve_kinds,
)
from repro.obs.export import (
    ChromeTraceSink,
    JsonlTraceSink,
    iter_jsonl_lines,
    open_sink,
    read_jsonl_trace,
    replay_to_sink,
    write_chrome_trace,
    write_jsonl_trace,
)
from repro.obs.schema import (
    assert_valid_chrome_trace,
    validate_chrome_trace,
    validate_jsonl_line,
    validate_jsonl_trace,
)
from repro.obs.trace import (
    RunTrace,
    TeeRunTrace,
    Tracer,
    TraceSink,
    TraceStats,
    get_tracer,
    set_tracer,
    tracing,
)

__all__ = [
    "ARRIVAL",
    "BUSY_KINDS",
    "ChromeTraceSink",
    "DEADLINE",
    "EVENT_KINDS",
    "GAP",
    "JsonlTraceSink",
    "KIND_GROUPS",
    "MIGRATION_EXECUTED",
    "MIGRATION_PLANNED",
    "MIGRATION_RETURNED",
    "RunTrace",
    "SUBTASK",
    "TASK",
    "TeeRunTrace",
    "TraceEvent",
    "TraceSink",
    "TraceStats",
    "Tracer",
    "assert_valid_chrome_trace",
    "get_tracer",
    "iter_jsonl_lines",
    "open_sink",
    "read_jsonl_trace",
    "replay_to_sink",
    "resolve_kinds",
    "set_tracer",
    "tracing",
    "validate_chrome_trace",
    "validate_jsonl_line",
    "validate_jsonl_trace",
    "write_chrome_trace",
    "write_jsonl_trace",
]
