"""Event queue and virtual clock.

A deliberately small engine: events are ``(time, priority, seq)``-ordered
callbacks.  Ties at the same timestamp are broken first by an explicit
priority (so e.g. a decode start can be guaranteed to run after every
same-instant arrival) and then by insertion order, which makes runs fully
deterministic.

The heap stores plain ``(time, priority, seq, callback)`` tuples, so every
sift comparison is a C-level tuple compare (``seq`` is unique, so the
trailing callback is never compared).  ``run`` pops them one at a time;
a callback may schedule new work at the current instant, and it runs in
its key order within that instant.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Tuple

#: Relative component of the schedule-in-the-past tolerance.  Float
#: microsecond timestamps accumulate rounding of a few ulps over long
#: horizons (ulp(1e9 us) ~ 1.2e-7), so the guard scales with ``now``
#: while staying far below the engine's microsecond resolution.
RELATIVE_EPSILON = 1e-12
#: Absolute floor of the tolerance (the original fixed guard).
ABSOLUTE_EPSILON = 1e-9

#: Heap entry: ``(time, priority, seq, callback)``.
_Entry = Tuple[float, int, int, Callable[[], None]]


class Simulator:
    """Minimal deterministic discrete-event simulator."""

    def __init__(self) -> None:
        self._queue: List[_Entry] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        self._executed = 0
        self._batch_pops = 0

    @property
    def now(self) -> float:
        """Current virtual time in microseconds."""
        return self._now

    def schedule(self, time: float, callback: Callable[[], None], priority: int = 0) -> None:
        """Schedule ``callback`` at absolute virtual ``time``.

        Scheduling in the past is a logic error and raises immediately —
        silently clamping would hide causality bugs in schedulers.  The
        tolerance is relative to ``now`` (plus a tiny absolute floor) so
        same-instant re-schedules survive the float rounding that
        millions of accumulated microseconds produce.
        """
        now = self._now
        if time < now:
            if time < now - (ABSOLUTE_EPSILON + RELATIVE_EPSILON * abs(now)):
                raise ValueError(f"cannot schedule at {time} before now={now}")
            time = now
        seq = self._seq = self._seq + 1
        heappush(self._queue, (time, priority, seq, callback))

    def run(self) -> float:
        """Run events until the queue drains; return the final virtual time.

        Re-entrant calls are rejected — callbacks must schedule, not run,
        further work.  If a callback raises, the events not yet run stay
        queued for a later ``run``.
        """
        if self._running:
            raise RuntimeError("Simulator.run is not re-entrant")
        self._running = True
        queue = self._queue
        now = self._now
        ran = 0  # events run so far at instant ``now``
        try:
            while queue:
                time, _, _, callback = heappop(queue)
                if time != now:
                    if ran > 1:
                        self._batch_pops += 1
                    self._now = now = time
                    ran = 0
                ran += 1
                self._executed += 1
                callback()
        finally:
            if ran > 1:
                self._batch_pops += 1
            self._running = False
        return now

    def stats(self) -> Dict[str, int]:
        """Engine counters for telemetry and trace metadata.

        ``executed`` counts callbacks run; ``batch_pops`` counts the
        instants at which more than one of them ran.
        """
        return {"executed": self._executed, "batch_pops": self._batch_pops}
