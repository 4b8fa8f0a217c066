"""C-RAN schedulers: the paper's partitioned, global and RT-OPEX
policies, the PRAN and CloudIQ baselines, and the delay-aware scheduler.

All six schedulers consume the same precomputed workload (so
comparisons are paired) and produce :class:`~repro.sched.base.SchedulerResult`
records built by :meth:`~repro.sched.base.SubframeRecord.for_job`.  The
module map follows the paper's sec. 3:

* :mod:`repro.sched.partitioned` — offline partitioned schedule,
  ``ceil(Tmax)`` cores per basestation, round-robin subframe placement;
* :mod:`repro.sched.global_` — the shared ring-buffer queue dispatch
  loop (per-dispatch overhead, per-core cache-affinity penalties) and
  the global scheduler's EDF heap discipline;
* :mod:`repro.sched.migration` — Algorithm 1, the greedy migration
  planner (pure function, property-tested);
* :mod:`repro.sched.rtopex` — RT-OPEX: partitioned base schedule plus
  opportunistic migration of FFT/decode subtasks into idle-core gaps,
  with the recovery path for preempted migrations;
* :mod:`repro.sched.pran`, :mod:`repro.sched.cloudiq` — the PRAN and
  CloudIQ baselines;
* :mod:`repro.sched.das` — the delay-aware queue discipline for the
  shared-queue loop (budget-criticality × channel-quality order), the
  mixed-service baseline;
* :mod:`repro.sched.runner` — workload construction and the
  one-call-per-experiment entry points.
"""

from repro.sched.base import (
    CRanConfig,
    SchedulerResult,
    SubframeJob,
    SubframeRecord,
)
from repro.sched.cloudiq import CloudIqScheduler
from repro.sched.das import DelayAwareScheduler
from repro.sched.global_ import GlobalScheduler
from repro.sched.migration import MigrationDecision, plan_migration
from repro.sched.partitioned import PartitionedScheduler
from repro.sched.pran import PranScheduler
from repro.sched.rtopex import RtOpexScheduler
from repro.sched.runner import build_workload, run_scheduler

__all__ = [
    "CRanConfig",
    "SchedulerResult",
    "SubframeJob",
    "SubframeRecord",
    "CloudIqScheduler",
    "DelayAwareScheduler",
    "GlobalScheduler",
    "MigrationDecision",
    "plan_migration",
    "PartitionedScheduler",
    "PranScheduler",
    "RtOpexScheduler",
    "build_workload",
    "run_scheduler",
]
