"""Virtual-time sanitizer: a TSAN-analogue for the discrete-event runs.

The schedulers emit their timelines as typed events (:mod:`repro.obs`);
this module validates those streams *online* — event by event, with
O(cores) state — against the invariants a causally sound single-worker-
per-core schedule must hold:

``overlap``
    No two busy spans (``task``/``migration_executed``) overlap on the
    same core track: each core is one worker.
``monotone``
    Within a core track, each event kind's timestamps never regress.
    (``migration_returned`` is exempt everywhere: batches on different
    helpers legitimately complete out of order yet are collected in
    ship order; ``subtask`` ordering is covered by ``nesting``.)
``nesting``
    A ``subtask`` span lies inside the most recent
    ``migration_executed`` span on its core, and successive subtasks of
    a batch do not overlap.
``conservation``
    Every batch id opened by a ``migration_planned`` event is closed by
    exactly one ``migration_executed`` and exactly one
    ``migration_returned``; at end of run nothing dangles.
``nonnegative``
    Span durations — gaps in particular — are never negative.
``verdict``
    A ``deadline`` verdict is never issued before the core's last busy
    span has ended: the verdict timestamps agree with the spans.
``vocabulary`` (every event, not selectable, so no profile drops it)
    The kind and each ``args`` key are in ``EVENT_ARG_FIELDS``.  The
    typed emitters cannot violate it; replayed files and hand-built
    events can.

Violations raise :class:`SanitizerError` carrying the offending events.

Two adapters fit the two collection modes: :class:`SanitizingTrace` is a
:class:`~repro.obs.trace.RunTrace` that validates instead of buffering
(what ``run_scheduler`` attaches under ``RTOPEX_SANITIZE=1``), and
:class:`SanitizingSink` wraps a streaming sink so ``--sanitize`` on the
CLI validates exactly the bytes being exported.

The baseline schedulers emit plan-time timelines with known, documented
reorderings; :func:`checks_for_scheduler` relaxes exactly those checks
(and nothing else) per scheduler — see the profile table there.
"""

from __future__ import annotations

import math
import os
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.obs.events import (
    BUSY_KINDS,
    DEADLINE,
    EVENT_ARG_FIELDS,
    MIGRATION_EXECUTED,
    MIGRATION_PLANNED,
    MIGRATION_RETURNED,
    SUBTASK,
    TraceEvent,
)
from repro.obs.trace import RunTrace, TraceSink

#: Environment switch: ``RTOPEX_SANITIZE=1`` makes every
#: ``run_scheduler`` invocation validate its own event stream.
SANITIZE_ENV_VAR = "RTOPEX_SANITIZE"

#: All sanitizer checks, by name.
ALL_CHECKS: FrozenSet[str] = frozenset(
    {"overlap", "monotone", "nesting", "conservation", "nonnegative", "verdict"}
)

#: Matching tolerance, mirroring the offline overlap detector
#: (:data:`repro.analysis.tracestats._OVERLAP_EPS_US`): well under a
#: nanosecond of virtual time.
EPS_US = 1e-6

#: Kinds exempt from the per-track monotonicity check in every profile.
#: ``migration_returned``: the owner collects batches in ship order, not
#: completion order.  ``subtask``: ordering is enforced (more tightly)
#: by the nesting check, batch by batch.
_ALWAYS_UNORDERED: FrozenSet[str] = frozenset({MIGRATION_RETURNED, SUBTASK})


def sanitize_enabled(environ: Optional[Mapping[str, str]] = None) -> bool:
    """True when ``RTOPEX_SANITIZE`` requests sanitized runs."""
    env = os.environ if environ is None else environ
    value = env.get(SANITIZE_ENV_VAR, "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


def checks_for_scheduler(scheduler: str) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """``(checks, extra_unordered_kinds)`` profile for a scheduler's trace.

    The three main schedulers (partitioned, global, rt-opex) emit their
    events in causal order and get the full check set.  The plan-level
    baselines reorder two instant kinds by construction, so exactly
    those are relaxed:

    * **pran** plans a whole subframe boundary, then emits every job's
      ``deadline`` verdict after the batch executes — verdicts of jobs
      sharing a boundary are not sorted by finish time, and a verdict
      can predate pool-core spans of *other* jobs in the batch.
    * **cloudiq** replays the admitted jobs through the partitioned
      scheduler first and only then emits the admission-rejected
      ``arrival``/``deadline`` instants, which carry early timestamps.
    """
    name = scheduler.lower()
    if name == "pran":
        return ALL_CHECKS - {"verdict"}, frozenset({DEADLINE})
    if name == "cloudiq":
        return ALL_CHECKS - {"verdict"}, frozenset({"arrival", DEADLINE})
    return ALL_CHECKS, frozenset()


def _render_event(event: TraceEvent) -> str:
    parts = [f"{event.kind} core={event.core} ts={event.ts_us:.6f}"]
    if event.dur_us:
        parts.append(f"dur={event.dur_us:.6f}")
    if event.name:
        parts.append(f"name={event.name!r}")
    if event.bs_id >= 0:
        parts.append(f"bs={event.bs_id}")
    if event.sf_index >= 0:
        parts.append(f"sf={event.sf_index}")
    if event.args:
        parts.append(f"args={dict(event.args)!r}")
    return "<" + " ".join(parts) + ">"


class SanitizerError(RuntimeError):
    """A trace invariant was violated.

    Attributes
    ----------
    check:
        The failed check's name (``overlap``, ``monotone``, ...).
    events:
        The offending :class:`TraceEvent` objects, newest last.
    run_label:
        Label of the run being validated (empty for bare streams).
    """

    def __init__(
        self,
        check: str,
        message: str,
        events: Sequence[TraceEvent] = (),
        run_label: str = "",
    ):
        self.check = check
        self.events: Tuple[TraceEvent, ...] = tuple(events)
        self.run_label = run_label
        detail = "; ".join(_render_event(e) for e in self.events)
        where = f" [run {run_label!r}]" if run_label else ""
        super().__init__(
            f"sanitizer check '{check}' failed{where}: {message}"
            + (f" — events: {detail}" if detail else "")
        )


class TraceSanitizer:
    """Online validator for one run's event stream.

    Feed events through :meth:`observe` in emission order, then call
    :meth:`finish` once the run is complete (dangling migration batches
    are only detectable at the end).  State is O(cores): per-core
    last-timestamp/last-span bookkeeping plus the currently *open*
    migration batches (bounded by the helper-core count).
    """

    def __init__(
        self,
        checks: FrozenSet[str] = ALL_CHECKS,
        unordered_kinds: FrozenSet[str] = frozenset(),
        run_label: str = "",
    ):
        unknown = checks - ALL_CHECKS
        if unknown:
            raise ValueError(f"unknown sanitizer checks: {sorted(unknown)}")
        self.checks = checks
        self.unordered_kinds = _ALWAYS_UNORDERED | unordered_kinds
        self.run_label = run_label
        self.events_checked = 0
        self.batches_closed = 0
        # Per-(core, kind) last timestamp (monotone check).
        self._last_ts: Dict[Tuple[int, str], TraceEvent] = {}
        # Per-core last busy span (overlap + verdict checks).
        self._last_busy: Dict[int, TraceEvent] = {}
        # Per-core current migration batch span + last subtask (nesting).
        self._batch_span: Dict[int, TraceEvent] = {}
        self._last_subtask: Dict[int, TraceEvent] = {}
        # Open migration batches: id -> {"planned": ev, "executed": ev|None}.
        self._open_batches: Dict[int, Dict[str, Optional[TraceEvent]]] = {}
        self._finished = False

    # -- error helper --------------------------------------------------------

    def _fail(self, check: str, message: str, events: Sequence[TraceEvent]) -> None:
        raise SanitizerError(check, message, events, run_label=self.run_label)

    # -- the online checks ---------------------------------------------------

    def observe(self, event: TraceEvent) -> None:
        """Validate one event against the vocabulary and the enabled checks."""
        self.events_checked += 1
        self._check_vocabulary(event)
        if "nonnegative" in self.checks:
            self._check_nonnegative(event)
        if "monotone" in self.checks:
            self._check_monotone(event)
        if "overlap" in self.checks and event.kind in BUSY_KINDS:
            self._check_overlap(event)
        if "nesting" in self.checks and event.kind == SUBTASK:
            self._check_nesting(event)
        if "verdict" in self.checks and event.kind == DEADLINE:
            self._check_verdict(event)
        if "conservation" in self.checks:
            self._track_conservation(event)
        # State updates last, so a failing event reports pre-event state.
        if event.kind in BUSY_KINDS:
            self._last_busy[event.core] = event
        if event.kind == MIGRATION_EXECUTED:
            self._batch_span[event.core] = event
            self._last_subtask.pop(event.core, None)
        elif event.kind == SUBTASK:
            self._last_subtask[event.core] = event
        if event.kind not in self.unordered_kinds:
            self._last_ts[(event.core, event.kind)] = event

    def _check_vocabulary(self, event: TraceEvent) -> None:
        fields = EVENT_ARG_FIELDS.get(event.kind)
        if fields is None:
            self._fail("vocabulary", f"unknown event kind {event.kind!r}", [event])
        elif not fields.issuperset(event.args):
            self._fail(
                "vocabulary",
                f"{event.kind} args key(s) {sorted(set(event.args) - fields)} "
                f"not in {sorted(fields)}",
                [event],
            )

    def _check_nonnegative(self, event: TraceEvent) -> None:
        if event.dur_us < 0:
            self._fail(
                "nonnegative",
                f"{event.kind} span has negative duration {event.dur_us}",
                [event],
            )
        if not math.isfinite(event.ts_us) or not math.isfinite(event.dur_us):
            self._fail(
                "nonnegative",
                f"{event.kind} carries a non-finite timestamp/duration",
                [event],
            )

    def _check_monotone(self, event: TraceEvent) -> None:
        if event.kind in self.unordered_kinds:
            return
        previous = self._last_ts.get((event.core, event.kind))
        if previous is not None and event.ts_us < previous.ts_us - EPS_US:
            self._fail(
                "monotone",
                f"virtual time regressed on core {event.core} for kind "
                f"'{event.kind}': {event.ts_us} after {previous.ts_us}",
                [previous, event],
            )

    def _check_overlap(self, event: TraceEvent) -> None:
        previous = self._last_busy.get(event.core)
        if previous is not None and event.ts_us < previous.end_us - EPS_US:
            self._fail(
                "overlap",
                f"busy spans overlap on core {event.core}: new span starts "
                f"at {event.ts_us} before previous ends at {previous.end_us}",
                [previous, event],
            )

    def _check_nesting(self, event: TraceEvent) -> None:
        batch = self._batch_span.get(event.core)
        if batch is None:
            self._fail(
                "nesting",
                f"subtask on core {event.core} outside any "
                "migration_executed span",
                [event],
            )
            return
        if event.ts_us < batch.ts_us - EPS_US or event.end_us > batch.end_us + EPS_US:
            self._fail(
                "nesting",
                f"subtask [{event.ts_us}, {event.end_us}] escapes its batch "
                f"span [{batch.ts_us}, {batch.end_us}] on core {event.core}",
                [batch, event],
            )
        previous = self._last_subtask.get(event.core)
        if previous is not None and event.ts_us < previous.end_us - EPS_US:
            self._fail(
                "nesting",
                f"subtasks overlap within a batch on core {event.core}",
                [previous, event],
            )

    def _check_verdict(self, event: TraceEvent) -> None:
        busy = self._last_busy.get(event.core)
        if busy is not None and event.ts_us < busy.end_us - EPS_US:
            self._fail(
                "verdict",
                f"deadline verdict at {event.ts_us} on core {event.core} "
                f"predates the end of its last busy span ({busy.end_us})",
                [busy, event],
            )

    def _track_conservation(self, event: TraceEvent) -> None:
        if event.kind == MIGRATION_PLANNED:
            batches = event.args.get("batches")
            if not isinstance(batches, (list, tuple)):
                return  # legacy traces without batch ids: nothing to track
            for batch in batches:
                batch_id = int(batch)
                if batch_id in self._open_batches:
                    self._fail(
                        "conservation",
                        f"migration batch {batch_id} planned twice",
                        [e for e in (self._open_batches[batch_id]["planned"],) if e]
                        + [event],
                    )
                self._open_batches[batch_id] = {"planned": event, "executed": None}
        elif event.kind == MIGRATION_EXECUTED:
            batch = event.args.get("batch")
            if not isinstance(batch, int):
                return
            entry = self._open_batches.get(batch)
            if entry is None:
                self._fail(
                    "conservation",
                    f"migration_executed for batch {batch} that was never "
                    "planned (or was already closed)",
                    [event],
                )
                return
            if entry["executed"] is not None:
                self._fail(
                    "conservation",
                    f"migration batch {batch} executed twice",
                    [e for e in (entry["executed"],) if e] + [event],
                )
            entry["executed"] = event
        elif event.kind == MIGRATION_RETURNED:
            batch = event.args.get("batch")
            if not isinstance(batch, int):
                return
            entry = self._open_batches.pop(batch, None)
            if entry is None:
                self._fail(
                    "conservation",
                    f"migration_returned for batch {batch} that was never "
                    "planned (or was already closed)",
                    [event],
                )
                return
            if entry["executed"] is None:
                self._fail(
                    "conservation",
                    f"migration batch {batch} returned without ever "
                    "executing",
                    [e for e in (entry["planned"],) if e] + [event],
                )
            self.batches_closed += 1

    # -- end of run ----------------------------------------------------------

    def finish(self) -> None:
        """End-of-run validation: no migration batch may dangle."""
        if self._finished:
            return
        self._finished = True
        if "conservation" in self.checks and self._open_batches:
            dangling = sorted(self._open_batches)
            events = [
                e
                for batch_id in dangling
                for e in (self._open_batches[batch_id]["planned"],)
                if e is not None
            ]
            self._fail(
                "conservation",
                f"{len(dangling)} migration batch(es) never closed: "
                f"{dangling[:8]}{'...' if len(dangling) > 8 else ''}",
                events,
            )

    def report(self) -> Dict[str, object]:
        """Attestation counters for telemetry/tests."""
        return {
            "events_checked": self.events_checked,
            "batches_closed": self.batches_closed,
            "checks": sorted(self.checks),
            "run_label": self.run_label,
        }


class SanitizingTrace(RunTrace):
    """A :class:`RunTrace` that validates events instead of buffering.

    ``run_scheduler`` attaches one (possibly teed behind the real trace)
    when sanitizing is enabled; the scheduler sees an ordinary trace
    object, every emission is checked online, and nothing is stored —
    the zero-buffer property that keeps sanitized paper-scale runs in
    O(cores) memory.
    """

    __slots__ = ("sanitizer",)

    def __init__(
        self,
        label: str,
        scheduler: str = "",
        meta: Optional[Mapping[str, object]] = None,
    ):
        super().__init__(label, scheduler=scheduler, meta=meta)
        checks, unordered = checks_for_scheduler(scheduler or label)
        self.sanitizer = TraceSanitizer(checks, unordered, run_label=label)

    def emit(self, event: TraceEvent) -> None:
        self.sanitizer.observe(event)

    def finish(self) -> None:
        self.sanitizer.finish()

    def report(self) -> Dict[str, object]:
        return self.sanitizer.report()


class SanitizingSink:
    """Streaming-sink wrapper: validate every event, then forward it.

    Layered over a :class:`~repro.obs.export.ChromeTraceSink`/
    :class:`~repro.obs.export.JsonlTraceSink` (or over nothing, for
    ``--sanitize`` without ``--trace``), so the CLI validates exactly
    the stream it exports.  One :class:`TraceSanitizer` per run, with
    the per-scheduler check profile; :meth:`close` finishes every run
    (dangling-batch detection) before closing the inner sink.
    """

    def __init__(self, inner: Optional[TraceSink] = None):
        self.inner = inner
        self._sanitizers: Dict[int, TraceSanitizer] = {}
        self._reports: List[Dict[str, object]] = []

    def begin_run(self, run: RunTrace) -> None:
        checks, unordered = checks_for_scheduler(run.scheduler)
        self._sanitizers[id(run)] = TraceSanitizer(
            checks, unordered, run_label=run.label
        )
        if self.inner is not None:
            self.inner.begin_run(run)

    def event(self, run: RunTrace, event: TraceEvent) -> None:
        self._sanitizers[id(run)].observe(event)
        if self.inner is not None:
            self.inner.event(run, event)

    def close(self) -> None:
        try:
            # Insertion order == begin_run order: deterministic.
            for sanitizer in list(self._sanitizers.values()):
                sanitizer.finish()
                self._reports.append(sanitizer.report())
        finally:
            if self.inner is not None:
                self.inner.close()

    def summary(self) -> Dict[str, object]:
        """Roll-up across runs (valid after :meth:`close`)."""
        reports = self._reports or [
            sanitizer.report() for sanitizer in self._sanitizers.values()
        ]
        return {
            "runs": len(reports),
            "events_checked": sum(int(r["events_checked"]) for r in reports),
            "batches_closed": sum(int(r["batches_closed"]) for r in reports),
        }
