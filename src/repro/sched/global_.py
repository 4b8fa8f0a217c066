"""Global scheduler (paper sec. 3.1.2) and the shared-queue dispatch loop.

A single shared ring-buffer queue holds incoming subframes from all
basestations; a scheduling thread on its own core dispatches them to
idle processing cores in EDF order (equivalent to FIFO when all
basestations share one transport delay, as the paper notes).  Each core
processes at most one subframe, terminates at the deadline if it
overruns, and returns to idle.

The loop itself lives in :class:`SharedQueueScheduler`; a policy only
supplies its *queue discipline* — push, pop-next and evict-on-overflow.
:class:`GlobalScheduler` is the EDF heap; the delay-aware baseline
(:mod:`repro.sched.das`) reuses the same loop with an urgency order.
The loop needs no event engine: it merges the time-sorted arrivals
with a heap of core releases, one instant at a time.

The paper's "surprising" global-scheduler behaviour comes from runtime
overheads, which we model explicitly:

* a **dispatch overhead** per assignment (semaphore wake-up + queue
  bookkeeping on the scheduling thread);
* a **cache-affinity penalty** when a core processes a basestation
  other than the one it processed last (Fig. 19): with more cores each
  basestation's subframes scatter more widely, so more dispatches run
  cold — which is why 16 cores perform no better (and partly worse)
  than 8.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.trace import RunTrace
from repro.sched.base import CRanConfig, SchedulerResult, SubframeJob, SubframeRecord
from repro.timing.cache import CacheAffinityModel

#: Scheduling-thread cost per dispatch (semaphore signal + ring buffer).
DEFAULT_DISPATCH_OVERHEAD_US = 12.0

#: A queued job: ``(deadline_us, seq, job, record)``.  ``seq`` is the
#: arrival order and unique, so tuple comparison never reaches the job.
QueueEntry = Tuple[float, int, SubframeJob, SubframeRecord]


class SharedQueueScheduler:
    """One shared queue dispatched to idle cores; subclasses order it."""

    name: str

    def __init__(
        self,
        config: CRanConfig,
        rng: Optional[np.random.Generator] = None,
        cache_model: Optional[CacheAffinityModel] = None,
        dispatch_overhead_us: float = DEFAULT_DISPATCH_OVERHEAD_US,
        queue_capacity: int = 256,
        trace: Optional[RunTrace] = None,
    ):
        # The dispatch loop relies on a dispatch never freeing its core
        # at the instant it was made.
        if not dispatch_overhead_us > 0:
            raise ValueError(f"dispatch_overhead_us must be > 0, got {dispatch_overhead_us}")
        # A full queue evicts before it admits, so it must hold one entry.
        if queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {queue_capacity}")
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.cache = cache_model if cache_model is not None else CacheAffinityModel()
        self.dispatch_overhead_us = dispatch_overhead_us
        self.queue_capacity = queue_capacity
        self.trace = trace

    # -- queue discipline ---------------------------------------------------

    def push(self, queue: List[QueueEntry], entry: QueueEntry) -> None:
        """Add a newly arrived entry to ``queue``."""
        raise NotImplementedError

    def pop_next(self, queue: List[QueueEntry], now: float) -> QueueEntry:
        """Remove and return the entry to dispatch at ``now``."""
        raise NotImplementedError

    def evict(self, queue: List[QueueEntry], now: float) -> QueueEntry:
        """Remove and return the entry a full ring buffer overwrites."""
        raise NotImplementedError

    # -- dispatch loop ------------------------------------------------------

    def run(self, jobs: Sequence[SubframeJob]) -> SchedulerResult:
        trace = self.trace
        num_cores = self.config.total_cores
        core_idle: List[bool] = [True] * num_cores
        queue: List[QueueEntry] = []
        records: List[SubframeRecord] = []
        busy: Dict[int, float] = {}
        # Busy cores as ``(finish_us, dispatch order, core)``.
        releases: List[Tuple[float, int, int]] = []
        dispatched = 0
        push, pop_next, evict = self.push, self.pop_next, self.evict
        self.cache.reset()

        def drop(record: SubframeRecord, stage: str, now: float) -> None:
            record.dropped = True
            record.missed = True
            record.drop_stage = stage
            record.start_us = now
            record.finish_us = now
            if trace is not None:
                trace.deadline(
                    now, -1, True, record.bs_id, record.index,
                    drop_stage=stage, service=record.service,
                )

        def dispatch(now: float) -> None:
            nonlocal dispatched
            while queue:
                idle = [c for c in range(num_cores) if core_idle[c]]
                if not idle:
                    return
                # The waiting processing threads all block on the same
                # semaphore; which one wakes first is up to the kernel, so
                # the dispatched core is effectively arbitrary.  (A
                # deterministic lowest-index pick would accidentally
                # recreate per-BS affinity and hide the cache thrashing
                # the paper observes.)
                idle_core = int(idle[self.rng.integers(0, len(idle))])
                _, _, job, record = pop_next(queue, now)
                start = now + self.dispatch_overhead_us
                # A queued subframe whose deadline cannot possibly be met
                # any more is dropped by the dispatcher.
                if start + job.work.optimistic_total_us > job.deadline_us:
                    drop(record, "dispatch", now)
                    continue
                core_idle[idle_core] = False
                record.core_id = idle_core
                record.start_us = start
                record.queue_delay_us = start - job.arrival_us
                penalty = self.cache.penalty(
                    idle_core, job.subframe.bs_id, job.subframe.index, self.rng
                )
                record.cache_penalty_us = penalty
                finish = start + job.serial_time_us + penalty
                if finish > job.deadline_us:
                    record.missed = True
                    finish = job.deadline_us  # terminated at the deadline
                record.finish_us = finish
                if finish > start:
                    busy[idle_core] = busy.get(idle_core, 0.0) + (finish - start)
                if trace is not None:
                    trace.task(
                        idle_core, "process", start, finish,
                        record.bs_id, record.index,
                        cache_penalty_us=penalty,
                    )
                    trace.deadline(
                        finish, idle_core, record.missed, record.bs_id, record.index,
                        service=record.service,
                    )
                heappush(releases, (finish, dispatched, idle_core))
                dispatched += 1

        def arrive(job: SubframeJob, now: float) -> None:
            record = SubframeRecord.for_job(job)
            records.append(record)
            if trace is not None:
                trace.arrival(now, -1, record.bs_id, record.index)
            if len(queue) >= self.queue_capacity:
                # Ring buffer full: the transport thread can never block
                # (sec. 4.1), so it overwrites the entry the discipline
                # evicts.
                drop(evict(queue, now)[3], "queue-overflow", now)
            push(queue, (job.deadline_us, len(records), job, record))

        # Merge the sorted arrivals with the core releases, one instant
        # at a time.  Within an instant every arrival is enqueued first;
        # then each freed core, in dispatch order, goes idle and runs a
        # dispatch pass; then, if anything arrived, one more pass runs,
        # so a burst of simultaneous subframes is dispatched in
        # discipline order rather than the order the transport threads
        # signalled.  A dispatch never frees its core at the same
        # instant (the overhead is positive and a frame that cannot
        # finish by its deadline is dropped), so one pass is enough.
        arrivals = sorted(jobs, key=lambda j: (j.arrival_us, j.subframe.bs_id))
        count = len(arrivals)
        i = 0
        while i < count or releases:
            if i < count and (not releases or arrivals[i].arrival_us <= releases[0][0]):
                now = arrivals[i].arrival_us
            else:
                now = releases[0][0]
            first = i
            while i < count and arrivals[i].arrival_us == now:
                arrive(arrivals[i], now)
                i += 1
            while releases and releases[0][0] == now:
                core_idle[heappop(releases)[2]] = True
                dispatch(now)
            if i > first:
                dispatch(now)
        return SchedulerResult(
            f"{self.name}-{num_cores}", self.config, records, core_busy_us=busy
        )


class GlobalScheduler(SharedQueueScheduler):
    """EDF/FIFO global scheduler: the shared queue is a deadline heap.

    Overflow evicts the heap head, the *earliest-deadline* entry.  That
    is the oldest entry only while every job shares one transport delay
    and one delay budget; with per-class budgets or transport jitter a
    newer, tighter-budget frame can be evicted before an older one.
    """

    name = "global"

    def push(self, queue: List[QueueEntry], entry: QueueEntry) -> None:
        heappush(queue, entry)

    def pop_next(self, queue: List[QueueEntry], now: float) -> QueueEntry:
        return heappop(queue)

    def evict(self, queue: List[QueueEntry], now: float) -> QueueEntry:
        return heappop(queue)
