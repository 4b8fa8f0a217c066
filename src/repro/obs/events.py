"""The typed trace-event vocabulary.

One event type, :class:`TraceEvent`, carries every timeline entry; the
``kind`` field selects the semantics.  Span kinds (``dur_us > 0``) mark
core occupancy; instant kinds mark scheduling decisions and verdicts.
Timestamps are virtual microseconds from the owning scheduler run's
time zero (subframe 0's nominal radio start), exactly the resolution the
discrete-event engine works in.

Kinds
-----
``arrival``
    A subframe (or Tx job) reached its core's input queue; instant.
    ``core == -1`` for the global scheduler's shared queue.
``task``
    One pipeline stage (``fft``/``demod``/``decode``/``serial``)
    executing on its owning core; span.  Task spans are *busy* time.
``subtask``
    One migrated subtask executing on a helper core; span, always
    nested inside a ``migration_executed`` span (and therefore excluded
    from busy-time accounting to avoid double counting).
``migration_planned``
    Algorithm 1 decided to offload; instant on the owner core.  Args
    carry the task name, subtasks shipped, and target cores.
``migration_executed``
    One migrated batch occupying a helper core, from state fetch to
    completion or preemption; span.  Busy time on the helper.
``migration_returned``
    The owner collected a batch's results (and recomputed whatever was
    not ready); instant on the owner core.
``gap``
    Idle span between a core finishing a subframe and its next
    activation — the resource RT-OPEX harvests (Fig. 16).
``deadline``
    Per-subframe verdict at processing end; instant.  ``args["missed"]``
    is the scheduler's miss-or-drop flag, so summing these events
    reproduces ``SchedulerResult.miss_count()`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

ARRIVAL = "arrival"
TASK = "task"
SUBTASK = "subtask"
MIGRATION_PLANNED = "migration_planned"
MIGRATION_EXECUTED = "migration_executed"
MIGRATION_RETURNED = "migration_returned"
GAP = "gap"
DEADLINE = "deadline"

#: Every kind a well-formed trace may contain.
EVENT_KINDS = (
    ARRIVAL,
    TASK,
    SUBTASK,
    MIGRATION_PLANNED,
    MIGRATION_EXECUTED,
    MIGRATION_RETURNED,
    GAP,
    DEADLINE,
)

#: Span kinds that count as core busy time.  ``subtask`` spans nest
#: inside ``migration_executed`` spans and are deliberately excluded.
BUSY_KINDS = (TASK, MIGRATION_EXECUTED)

#: Kinds rendered as duration ("X") events in the Chrome export.
SPAN_KINDS = (TASK, SUBTASK, MIGRATION_EXECUTED, GAP)

#: Per-kind ``args`` vocabulary: every key an emit site may legally put
#: in :attr:`TraceEvent.args`.  The exporters, the sanitizer, the trace
#: statistics, and the replay validator all dispatch on these names, so
#: the set is closed by design.  The emit helpers in
#: :class:`repro.obs.trace.RunTrace` take each key as a named parameter
#: and only ever populate keys from this table; the sanitizer's
#: ``vocabulary`` check rejects anything else (a trace read from disk,
#: or a hand-built :class:`TraceEvent`).
EVENT_ARG_FIELDS: Dict[str, "frozenset[str]"] = {
    ARRIVAL: frozenset(),
    TASK: frozenset({"cache_penalty_us"}),
    SUBTASK: frozenset({"preempted"}),
    MIGRATION_PLANNED: frozenset({"shipped", "targets", "batches"}),
    MIGRATION_EXECUTED: frozenset({"owner", "shipped", "completed", "batch"}),
    MIGRATION_RETURNED: frozenset({"completed", "recovered", "batch"}),
    GAP: frozenset({"usable"}),
    DEADLINE: frozenset({"missed", "drop_stage", "service"}),
}

#: ``--trace-kinds`` vocabulary: every concrete kind selects itself, and
#: the ``migration`` alias selects the whole planned/executed/returned
#: family so a filter spec does not need to spell out all three.
KIND_GROUPS: Dict[str, tuple] = {
    **{kind: (kind,) for kind in EVENT_KINDS},
    "migration": (MIGRATION_PLANNED, MIGRATION_EXECUTED, MIGRATION_RETURNED),
}


def resolve_kinds(spec) -> "frozenset[str]":
    """Expand a kind-filter spec into a concrete kind set.

    ``spec`` is a comma-separated string (``"deadline,migration,gap"``)
    or an iterable of names; each name must be a concrete kind or a
    :data:`KIND_GROUPS` alias.  Raises ``ValueError`` on unknown names.
    """
    if isinstance(spec, str):
        names = [name.strip() for name in spec.split(",") if name.strip()]
    else:
        names = [str(name) for name in spec]
    if not names:
        raise ValueError("empty trace-kind filter")
    kinds = set()
    for name in names:
        try:
            kinds.update(KIND_GROUPS[name])
        except KeyError:
            known = ", ".join(sorted(KIND_GROUPS))
            raise ValueError(
                f"unknown trace kind {name!r} (known: {known})"
            ) from None
    return frozenset(kinds)


@dataclass(frozen=True)
class TraceEvent:
    """One timeline entry of a scheduler run.

    ``core`` is the track the event belongs to (``-1`` = the shared
    queue / scheduling thread).  ``dur_us`` is zero for instants.
    ``args`` holds kind-specific detail and must stay JSON-native — the
    event crosses process boundaries and lands in the export verbatim.
    """

    kind: str
    ts_us: float
    core: int
    name: str = ""
    dur_us: float = 0.0
    bs_id: int = -1
    sf_index: int = -1
    args: Mapping[str, object] = field(default_factory=dict)

    @property
    def end_us(self) -> float:
        return self.ts_us + self.dur_us

    def to_dict(self) -> Dict[str, object]:
        """JSON-native form (the JSONL line and cross-process payload)."""
        out: Dict[str, object] = {
            "kind": self.kind,
            "ts_us": self.ts_us,
            "core": self.core,
        }
        if self.name:
            out["name"] = self.name
        if self.dur_us:
            out["dur_us"] = self.dur_us
        if self.bs_id >= 0:
            out["bs_id"] = self.bs_id
        if self.sf_index >= 0:
            out["sf_index"] = self.sf_index
        if self.args:
            out["args"] = dict(self.args)
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "TraceEvent":
        return cls(
            kind=str(payload["kind"]),
            ts_us=float(payload["ts_us"]),
            core=int(payload["core"]),
            name=str(payload.get("name", "")),
            dur_us=float(payload.get("dur_us", 0.0)),
            bs_id=int(payload.get("bs_id", -1)),
            sf_index=int(payload.get("sf_index", -1)),
            args=dict(payload.get("args", {})),
        )
