"""Delay-aware scheduler (DAS): budget-criticality × channel quality.

The mixed-service baseline the traffic-class extension adds alongside
the paper's five policies.  Like the global scheduler it keeps one
shared queue and dispatches to idle cores, but instead of EDF it ranks
the pending subframes by an M-LWDF-style priority recomputed at every
dispatch instant:

``priority = (head_of_line_delay + optimistic_time) / delay_budget
             × (1 + channel_efficiency)``

* the first factor is *budget criticality* — the fraction of the job's
  packet delay budget that will have elapsed by the earliest possible
  finish, so a URLLC frame at 60% of a 1 ms budget outranks an eMBB
  frame at 20% of 2 ms even though the eMBB absolute deadline may be
  earlier;
* ``channel_efficiency`` is the grant's spectral efficiency relative to
  the top MCS (the M-LWDF ``r_i/R̄_i`` term collapsed to its static
  part — the workload draws no per-dispatch fading), nudging ties
  toward frames that deliver more bits per scheduled core.

On a single-class workload every job shares one budget, so criticality
ordering degenerates to EDF-with-a-throughput-tiebreak; the scheduler
exists for the mixed case, where per-class budgets make EDF order and
urgency order diverge.

DAS runs the global scheduler's own dispatch loop
(:class:`~repro.sched.global_.SharedQueueScheduler`) — per-dispatch
overhead, arbitrary idle-core wake-up (cache-affinity penalty), a
capacity-bounded ring buffer, drop-at-dispatch for frames whose
optimistic finish already overshoots, and the same trace emits — and
supplies only the queue discipline, so DAS-vs-global deltas isolate the
*ordering* policy.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.lte.mcs import max_mcs, throughput_mbps
from repro.sched.base import SubframeJob
from repro.sched.global_ import QueueEntry, SharedQueueScheduler


class DelayAwareScheduler(SharedQueueScheduler):
    """Shared-queue scheduler ordered by budget criticality × channel."""

    name = "das"
    _peak_throughput = throughput_mbps(max_mcs())

    def _priority(self, job: SubframeJob, now: float) -> float:
        """M-LWDF-style urgency of dispatching ``job`` at ``now``."""
        hol_delay = max(0.0, now - job.subframe.air_time_us)
        criticality = (hol_delay + job.work.optimistic_total_us) / job.delay_budget_us
        efficiency = throughput_mbps(job.subframe.grant.mcs) / self._peak_throughput
        return criticality * (1.0 + efficiency)

    def push(self, queue: List[QueueEntry], entry: QueueEntry) -> None:
        queue.append(entry)

    def pop_next(self, queue: List[QueueEntry], now: float) -> QueueEntry:
        # Priorities depend on the current instant, so they are
        # recomputed per dispatch over the pending set (the queue is
        # capacity-bounded, keeping the scan O(capacity)).  Ties break
        # deterministically: deadline, then identity.
        def rank(i: int) -> Tuple[float, float, int, int]:
            deadline_us, seq, job, _ = queue[i]
            return (-self._priority(job, now), deadline_us, job.subframe.bs_id, seq)

        return queue.pop(min(range(len(queue)), key=rank))

    def evict(self, queue: List[QueueEntry], now: float) -> QueueEntry:
        # The least urgent frame goes; among equals, the newest.
        victim_i = max(
            range(len(queue)),
            key=lambda i: (-self._priority(queue[i][2], now), queue[i][1]),
        )
        return queue.pop(victim_i)
