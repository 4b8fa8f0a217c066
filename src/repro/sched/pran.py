"""PRAN-style scheduler: plan-ahead subtask splitting, no runtime adaptation.

The paper's Table 2 and sec. 6 characterize PRAN [31] as the closest
related system: it pools compute dynamically and splits processing into
subtasks that can run on different cores, **but its scheduling decisions
are made before wireless frames are received**, so it "cannot account
for processing time variations due to channel conditions".

This implementation captures exactly that contrast with RT-OPEX:

* at each subframe boundary the planner knows the grants (load/MCS) of
  the arriving subframes and builds a parallel execution plan using the
  *expected* per-code-block decode time (the iteration model's mean) —
  information genuinely available before reception;
* the serial FFT+demod prologue runs on a home core; decode code blocks
  are spread longest-plan-first (LPT) over the pool cores by planned
  availability;
* execution then uses the *actual* durations.  When the channel demands
  more iterations than planned, the plan's cores overrun back-to-back
  and the subframe can miss — there is no runtime migration to absorb
  the surprise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.obs.trace import RunTrace
from repro.sched.base import CRanConfig, SchedulerResult, SubframeJob, SubframeRecord
from repro.timing.cache import MigrationCostModel
from repro.timing.iterations import IterationModel


@dataclass
class _PlannedPiece:
    """One decode code block placed on a pool core."""

    job_key: tuple
    planned_us: float
    actual_us: float
    bs_id: int
    sf_index: int


class PranScheduler:
    """Plan-ahead pooled scheduler (PRAN-like baseline)."""

    name = "pran"

    def __init__(
        self,
        config: CRanConfig,
        iteration_model: Optional[IterationModel] = None,
        dispatch_cost: Optional[MigrationCostModel] = None,
        rng: Optional[np.random.Generator] = None,
        trace: Optional[RunTrace] = None,
    ):
        self.config = config
        self.iterations = iteration_model if iteration_model is not None else IterationModel(
            max_iterations=config.max_iterations
        )
        self.dispatch_cost = dispatch_cost if dispatch_cost is not None else MigrationCostModel()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.trace = trace

    def run(self, jobs: Sequence[SubframeJob]) -> SchedulerResult:
        config = self.config
        num_cores = config.total_cores
        core_free = [0.0] * num_cores
        records: List[SubframeRecord] = []
        busy: Dict[int, float] = {}

        # Group arrivals per subframe boundary (they share one plan).
        by_arrival: Dict[float, List[SubframeJob]] = {}
        for job in jobs:
            by_arrival.setdefault(job.arrival_us, []).append(job)

        for arrival in sorted(by_arrival):
            batch = sorted(by_arrival[arrival], key=lambda j: j.subframe.bs_id)
            self._plan_and_execute(arrival, batch, core_free, records, busy)

        return SchedulerResult(self.name, config, records, core_busy_us=busy)

    # ------------------------------------------------------------------

    def _expected_subtask_us(self, job: SubframeJob) -> float:
        """Planned per-code-block decode time from pre-reception info."""
        grant = job.subframe.grant
        mean_l = self.iterations.mean_iterations(grant.mcs, job.subframe.snr_db)
        decode = job.work.task("decode")
        if not decode.subtasks:
            return 0.0
        # actual duration scales linearly with L; rescale one subtask's
        # WCET plan (built at Lm) down to the expected iteration count.
        return decode.subtasks[0].planned_us * mean_l / self.config.max_iterations

    def _plan_and_execute(
        self,
        arrival: float,
        batch: Sequence[SubframeJob],
        core_free: List[float],
        records: List[SubframeRecord],
        busy: Dict[int, float],
    ) -> None:
        num_cores = len(core_free)
        trace = self.trace

        # --- planning pass (only grant-derived information) -----------
        # Home core per subframe: the least-loaded cores at the boundary.
        order = np.argsort(core_free)
        home: Dict[tuple, int] = {}
        for i, job in enumerate(batch):
            home[job.subframe.key()] = int(order[i % num_cores])

        planned_avail = list(core_free)
        serial_done: Dict[tuple, float] = {}
        for job in batch:
            sf = job.subframe
            core = home[sf.key()]
            start = max(arrival, planned_avail[core])
            fft_us = job.work.task("fft").serial_duration_us
            demod_us = job.work.task("demod").serial_duration_us
            init_us = job.work.task("decode").serial_us
            if trace is not None:
                trace.arrival(arrival, core, sf.bs_id, sf.index)
                cursor = start
                for name, dur in (
                    ("fft", fft_us), ("demod", demod_us), ("decode_init", init_us),
                ):
                    trace.task(core, name, cursor, cursor + dur, sf.bs_id, sf.index)
                    cursor += dur
            prologue = fft_us + demod_us + init_us
            busy[core] = busy.get(core, 0.0) + prologue
            serial_done[sf.key()] = start + prologue
            planned_avail[core] = start + prologue

        # Decode pieces, longest planned first, onto earliest-available
        # cores (classic LPT on the planned estimates).
        pieces: List[_PlannedPiece] = []
        for job in batch:
            expected = self._expected_subtask_us(job)
            for sub in job.work.task("decode").subtasks:
                pieces.append(
                    _PlannedPiece(
                        job_key=job.subframe.key(),
                        planned_us=expected,
                        actual_us=sub.duration_us,
                        bs_id=job.subframe.bs_id,
                        sf_index=job.subframe.index,
                    )
                )
        pieces.sort(key=lambda p: -p.planned_us)
        assignment: List[List[_PlannedPiece]] = [[] for _ in range(num_cores)]
        planned_load = list(planned_avail)
        for piece in pieces:
            core = int(np.argmin(planned_load))
            assignment[core].append(piece)
            planned_load[core] += piece.planned_us + self.dispatch_cost.planning_cost()

        # --- execution pass (actual durations, no replanning) ----------
        finish: Dict[tuple, float] = dict(serial_done)
        for core in range(num_cores):
            cursor = planned_avail[core]
            for piece in assignment[core]:
                # A piece cannot start before its subframe's prologue is
                # done (precedence), even if the plan hoped otherwise.
                cursor = max(cursor, serial_done[piece.job_key])
                piece_start = cursor
                cursor += piece.actual_us + self.dispatch_cost.draw(self.rng)
                # The dispatch overhead occupies the pool core, so the
                # span (and busy accounting) includes it.
                if trace is not None:
                    trace.task(
                        core, "decode", piece_start, cursor,
                        piece.bs_id, piece.sf_index,
                    )
                busy[core] = busy.get(core, 0.0) + (cursor - piece_start)
                finish[piece.job_key] = max(finish[piece.job_key], cursor)
            core_free[core] = cursor

        for job in batch:
            sf = job.subframe
            end = finish[sf.key()] + job.noise_us
            record = SubframeRecord.for_job(
                job, core_id=home[sf.key()], start_us=arrival
            )
            if end > job.deadline_us:
                record.missed = True
                end = job.deadline_us
            record.finish_us = end
            if trace is not None:
                trace.deadline(
                    record.finish_us, home[sf.key()], record.missed,
                    sf.bs_id, sf.index, service=record.service,
                )
            records.append(record)
