"""Shared scheduler types: configuration, workload jobs, result records.

The unit the schedulers move around is a :class:`SubframeJob`: a
subframe plus its fully materialized task graph (durations drawn ahead
of time from the timing and iteration models) and its platform-noise
sample.  Drawing the workload *before* scheduling keeps comparisons
paired — every scheduler sees byte-identical work — and mirrors the
paper's trace-replay methodology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import (
    DEFAULT_CORES_PER_BS,
    DEFAULT_MAX_TURBO_ITERATIONS,
    DEFAULT_NUM_ANTENNAS,
    DEFAULT_NUM_BASESTATIONS,
    RX_BUDGET_US,
    SUBFRAME_US,
)
from repro.lte.subframe import Subframe
from repro.timing.tasks import SubframeWork


@dataclass(frozen=True)
class CRanConfig:
    """Static configuration of one C-RAN compute node experiment.

    ``transport_latency_us`` is the fixed RTT/2 the evaluation sweeps
    (0.4-0.7 ms, sec. 4.2); the planning-time expected value equals it
    unless a stochastic transport model supplied jitter per subframe.
    """

    num_basestations: int = DEFAULT_NUM_BASESTATIONS
    cores_per_bs: int = DEFAULT_CORES_PER_BS
    num_cores: int = 0  # 0 -> num_basestations * cores_per_bs
    num_antennas: int = DEFAULT_NUM_ANTENNAS
    transport_latency_us: float = 500.0
    snr_db: float = 30.0
    max_iterations: int = DEFAULT_MAX_TURBO_ITERATIONS
    drop_on_slack_check: bool = True

    def __post_init__(self) -> None:
        if self.num_basestations < 1:
            raise ValueError("num_basestations must be >= 1")
        if self.cores_per_bs < 1:
            raise ValueError("cores_per_bs must be >= 1")
        if self.num_cores < 0:
            raise ValueError(f"num_cores must be >= 0 (0 derives it), got {self.num_cores}")
        if not (math.isfinite(self.transport_latency_us) and self.transport_latency_us >= 0):
            raise ValueError(
                f"transport_latency_us must be finite and >= 0, "
                f"got {self.transport_latency_us}"
            )
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")

    @property
    def total_cores(self) -> int:
        """Processing cores available to the scheduler."""
        if self.num_cores:
            return self.num_cores
        return self.num_basestations * self.cores_per_bs

    @property
    def processing_budget_us(self) -> float:
        """Tmax = 2 ms - RTT/2 (Eq. (3))."""
        return RX_BUDGET_US - self.transport_latency_us


@dataclass(frozen=True)
class SubframeJob:
    """One subframe's materialized workload.

    Attributes
    ----------
    subframe:
        Identity and grant of the subframe.
    work:
        Task graph with actual (drawn) durations and WCET plans.
    noise_us:
        Platform error E for the owning thread's serial execution.
    load:
        The normalized trace load that produced this grant (for Fig. 17).
    arrival_us, deadline_us:
        When the job becomes available at the compute node and when its
        processing must finish.  The builders set them once: an uplink
        job takes its subframe's ``arrival_us``/``deadline_us``, a Tx
        job or a traffic class with its own delay budget sets other
        values.
    kind:
        ``"rx"`` for uplink decode jobs (the default) or ``"tx"`` for
        downlink encode jobs (Fig. 8's other timeline).
    service:
        Traffic-class tag (``urllc``/``embb``/``mmtc``); the default
        ``embb`` is the paper's single-class workload.
    """

    subframe: Subframe
    work: SubframeWork
    noise_us: float
    load: float
    arrival_us: float
    deadline_us: float
    kind: str = "rx"
    service: str = "embb"

    @property
    def serial_time_us(self) -> float:
        """Single-core execution time including platform noise."""
        return self.work.total_serial_us + self.noise_us

    @property
    def delay_budget_us(self) -> float:
        """Packet delay budget: deadline relative to over-the-air receipt.

        Equals ``RX_BUDGET_US`` for the default single-class uplink
        workload; per-class deadlines shrink or stretch it.
        """
        return self.deadline_us - self.subframe.air_time_us


@dataclass
class MigrationEvent:
    """One migration batch RT-OPEX executed (for Fig. 16/18 stats)."""

    task: str  # "fft" or "decode"
    num_subtasks: int
    target_core: int
    planned_us: float
    actual_us: float
    recovered_subtasks: int = 0


@dataclass
class SubframeRecord:
    """Outcome of scheduling one subframe."""

    bs_id: int
    index: int
    mcs: int
    load: float
    arrival_us: float
    deadline_us: float
    start_us: float = math.nan
    finish_us: float = math.nan
    missed: bool = False
    dropped: bool = False
    drop_stage: Optional[str] = None
    core_id: int = -1
    queue_delay_us: float = 0.0
    cache_penalty_us: float = 0.0
    gap_us: float = math.nan
    iterations: Tuple[int, ...] = ()
    crc_pass: bool = True
    migrations: List[MigrationEvent] = field(default_factory=list)
    #: Reloaded results (CSV round-trips) carry only the migrated-subtask
    #: total, not the per-batch events; this override preserves the count.
    migrated_override: Optional[int] = None
    #: Traffic-class tag of the job this record came from.  Not part of
    #: the result-CSV schema (like per-batch migration events), so CSV
    #: round-trips fall back to the default class.
    service: str = "embb"

    @classmethod
    def for_job(cls, job: SubframeJob, **fields: Any) -> "SubframeRecord":
        """A record for ``job``: its identity, grant, timing and decode
        outcome, plus the scheduling outcome given in ``fields``."""
        sf = job.subframe
        return cls(
            bs_id=sf.bs_id,
            index=sf.index,
            mcs=sf.grant.mcs,
            load=job.load,
            arrival_us=job.arrival_us,
            deadline_us=job.deadline_us,
            iterations=job.work.iterations,
            crc_pass=job.work.crc_pass,
            service=job.service,
            **fields,
        )

    @property
    def processing_time_us(self) -> float:
        """Wall time from processing start to finish (Trxproc realized)."""
        return self.finish_us - self.start_us

    @property
    def response_time_us(self) -> float:
        """Arrival to finish, including any queueing delay."""
        return self.finish_us - self.arrival_us

    @property
    def acked(self) -> bool:
        """ACK sent: decoded in time and CRC passed."""
        return (not self.missed) and (not self.dropped) and self.crc_pass

    @property
    def migrated_subtasks(self) -> int:
        if self.migrated_override is not None:
            return self.migrated_override
        return sum(m.num_subtasks for m in self.migrations)


class SchedulerResult:
    """All per-subframe records of one run, with analysis helpers.

    ``core_busy_us`` is the scheduler's own per-core occupancy
    accounting (local task execution plus migrated batches booked on
    helper cores).  The tracing subsystem derives the same numbers from
    the emitted busy spans, and the consistency tests hold the two equal
    to within 1e-6 — a cross-check between the simulation and its
    timeline export.  Results reloaded from CSV carry an empty dict.
    """

    def __init__(
        self,
        scheduler_name: str,
        config: CRanConfig,
        records: Sequence[SubframeRecord],
        core_busy_us: Optional[Dict[int, float]] = None,
    ):
        self.scheduler_name = scheduler_name
        self.config = config
        self.records: List[SubframeRecord] = list(records)
        self.core_busy_us: Dict[int, float] = dict(core_busy_us or {})
        #: Buffered RunTrace set by ``run_scheduler(capture_trace=...)``;
        #: ``None`` unless the caller asked for a private capture.
        self.trace_run = None
        #: Attestation counters from the virtual-time sanitizer; set by
        #: ``run_scheduler`` when sanitizing was enabled for this run.
        self.sanitizer_report: Optional[Dict[str, object]] = None

    def __len__(self) -> int:
        return len(self.records)

    def utilization(self, horizon_us: Optional[float] = None) -> Dict[int, float]:
        """Per-core busy fraction over ``horizon_us`` (default: the last
        recorded finish time).  Empty when the run predates busy
        accounting (e.g. CSV-reloaded results)."""
        if not self.core_busy_us:
            return {}
        if horizon_us is None:
            finishes = [r.finish_us for r in self.records if not math.isnan(r.finish_us)]
            horizon_us = max(finishes) if finishes else 0.0
        if not horizon_us or horizon_us <= 0:
            return {core: 0.0 for core in sorted(self.core_busy_us)}
        return {
            core: busy / horizon_us
            for core, busy in sorted(self.core_busy_us.items())
        }

    # -- headline metrics ---------------------------------------------------

    def miss_count(self) -> int:
        return sum(1 for r in self.records if r.missed or r.dropped)

    def miss_rate(self) -> float:
        """Deadline-miss rate: the paper's primary metric."""
        if not self.records:
            return 0.0
        return self.miss_count() / len(self.records)

    def miss_rate_by_mcs(self) -> Dict[int, float]:
        """Per-MCS miss rate (the Fig. 17 breakdown)."""
        totals: Dict[int, int] = {}
        misses: Dict[int, int] = {}
        for r in self.records:
            totals[r.mcs] = totals.get(r.mcs, 0) + 1
            if r.missed or r.dropped:
                misses[r.mcs] = misses.get(r.mcs, 0) + 1
        return {m: misses.get(m, 0) / totals[m] for m in sorted(totals)}

    def miss_rate_by_bs(self) -> Dict[int, float]:
        totals: Dict[int, int] = {}
        misses: Dict[int, int] = {}
        for r in self.records:
            totals[r.bs_id] = totals.get(r.bs_id, 0) + 1
            if r.missed or r.dropped:
                misses[r.bs_id] = misses.get(r.bs_id, 0) + 1
        return {b: misses.get(b, 0) / totals[b] for b in sorted(totals)}

    def miss_rate_by_class(self) -> Dict[str, float]:
        """Per-service-class miss rate (the mixed-scenario breakdown)."""
        totals: Dict[str, int] = {}
        misses: Dict[str, int] = {}
        for r in self.records:
            totals[r.service] = totals.get(r.service, 0) + 1
            if r.missed or r.dropped:
                misses[r.service] = misses.get(r.service, 0) + 1
        return {s: misses.get(s, 0) / totals[s] for s in sorted(totals)}

    def records_by_class(self) -> Dict[str, List[SubframeRecord]]:
        grouped: Dict[str, List[SubframeRecord]] = {}
        for r in self.records:
            grouped.setdefault(r.service, []).append(r)
        return {s: grouped[s] for s in sorted(grouped)}

    # -- distributions --------------------------------------------------------

    def processing_times(self, mcs: Optional[int] = None) -> np.ndarray:
        values = [
            r.processing_time_us
            for r in self.records
            if not r.dropped and not math.isnan(r.finish_us) and (mcs is None or r.mcs == mcs)
        ]
        return np.array(values)

    def gaps(self) -> np.ndarray:
        """Idle gaps after each completed subframe (partitioned/RT-OPEX)."""
        return np.array([r.gap_us for r in self.records if not math.isnan(r.gap_us)])

    def migration_counts(self) -> Dict[str, int]:
        """Total migrated subtasks per task type."""
        counts: Dict[str, int] = {"fft": 0, "decode": 0}
        for r in self.records:
            for m in r.migrations:
                counts[m.task] = counts.get(m.task, 0) + m.num_subtasks
        return counts

    def migration_fraction(self, task: str) -> float:
        """Fraction of subframes that migrated at least one ``task`` subtask."""
        if not self.records:
            return 0.0
        hits = sum(
            1 for r in self.records
            if any(m.task == task and m.num_subtasks > 0 for m in r.migrations)
        )
        return hits / len(self.records)

    def ack_rate(self) -> float:
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.acked) / len(self.records)

    def summary(self) -> Dict[str, float]:
        times = self.processing_times()
        return {
            "subframes": float(len(self.records)),
            "miss_rate": self.miss_rate(),
            "ack_rate": self.ack_rate(),
            "mean_proc_us": float(times.mean()) if times.size else math.nan,
            "p99_proc_us": float(np.percentile(times, 99)) if times.size else math.nan,
        }


def partitioned_core_for(bs_id: int, subframe_index: int, cores_per_bs: int) -> int:
    """The paper's placement rule: core ``i*ceil(Tmax) + j mod ceil(Tmax)``."""
    return bs_id * cores_per_bs + (subframe_index % cores_per_bs)


def assigned_core_for(job: "SubframeJob", cores_per_bs: int) -> int:
    """Partitioned core for any job kind.

    Rx subframe ``j`` follows the paper's rule.  The Tx job encoding
    downlink subframe ``k`` goes to the *opposite* slot (``k+1``): it
    starts 1 ms before transmission, exactly inside the window before
    that core's next uplink arrival (the interleaving of Fig. 8).
    """
    sf = job.subframe
    index = sf.index + (1 if job.kind == "tx" else 0)
    return partitioned_core_for(sf.bs_id, index, cores_per_bs)


def next_partitioned_activation(
    core_slot: int,
    after_us: float,
    cores_per_bs: int,
    transport_latency_us: float,
) -> float:
    """Expected arrival of the next subframe assigned to this core.

    Core ``(bs_id, slot)`` serves subframes ``j ≡ slot (mod cores_per_bs)``,
    which arrive every ``cores_per_bs`` ms at ``j*1ms + RTT/2`` whatever
    the basestation.  This is the preemption horizon Algorithm 1 plans
    against.
    """
    period = cores_per_bs * SUBFRAME_US
    phase = core_slot * SUBFRAME_US + transport_latency_us
    k = math.floor((after_us - phase) / period) + 1
    candidate = phase + max(k, 0) * period
    if candidate <= after_us:
        candidate += period
    return candidate
