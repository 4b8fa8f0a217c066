"""Tests for the global (EDF/FIFO) scheduler."""

import dataclasses

import numpy as np
import pytest

from repro.sched import CRanConfig, GlobalScheduler, run_scheduler
from repro.timing.cache import CacheAffinityModel

from tests.helpers import make_job


def run_global(jobs, cores=8, rtt=500.0, **kwargs):
    cfg = CRanConfig(transport_latency_us=rtt, num_cores=cores)
    return GlobalScheduler(cfg, rng=np.random.default_rng(0), **kwargs).run(jobs)


class TestGlobalScheduler:
    def test_light_load_no_misses(self):
        jobs = [make_job(b, j, 5, [1]) for b in range(4) for j in range(5)]
        result = run_global(jobs)
        assert result.miss_rate() == 0.0

    def test_name_includes_core_count(self):
        result = run_global([make_job(0, 0, 5, [1])], cores=16)
        assert result.scheduler_name == "global-16"

    def test_queueing_on_few_cores(self):
        # Four simultaneous mid-size arrivals on two cores: two queue
        # behind the first pair but still meet their deadlines.
        jobs = [make_job(b, 0, 10, [1]) for b in range(4)]
        result = run_global(jobs, cores=2)
        delays = sorted(r.queue_delay_us for r in result.records)
        assert delays[-1] > 400.0
        assert result.miss_rate() == 0.0

    def test_queued_beyond_deadline_dropped_at_dispatch(self):
        # 8 heavy subframes at once on 1 core: the tail can never make
        # its deadline and is dropped by the dispatcher.
        jobs = [make_job(b % 4, b // 4, 27, [4, 4, 4, 4, 4, 4]) for b in range(8)]
        result = run_global(jobs, cores=1)
        assert any(r.drop_stage == "dispatch" for r in result.records)

    def test_all_subframes_accounted_once(self):
        jobs = [make_job(b, j, 13, [2, 2, 2]) for b in range(4) for j in range(10)]
        result = run_global(jobs, cores=4)
        assert len(result.records) == len(jobs)
        keys = {(r.bs_id, r.index) for r in result.records}
        assert len(keys) == len(jobs)

    def test_cache_penalty_recorded(self):
        jobs = [make_job(b, j, 13, [2, 2, 2]) for b in range(4) for j in range(6)]
        result = run_global(jobs, cores=8)
        penalties = [r.cache_penalty_us for r in result.records if not r.dropped]
        assert max(penalties) > 0.0

    def test_zero_cache_model_removes_penalties(self):
        cache = CacheAffinityModel(cold_penalty_low_us=0.0, cold_penalty_high_us=0.0)
        jobs = [make_job(b, j, 13, [2, 2, 2]) for b in range(4) for j in range(6)]
        result = run_global(jobs, cores=8, cache_model=cache)
        assert all(r.cache_penalty_us == 0.0 for r in result.records)

    def test_dispatch_overhead_delays_start(self):
        job = make_job(0, 0, 5, [1])
        result = run_global([job], dispatch_overhead_us=25.0)
        record = result.records[0]
        assert record.start_us == pytest.approx(job.arrival_us + 25.0)

    def test_edf_order_for_distinct_deadlines(self):
        # Same arrival burst, one subframe from an earlier index: it has
        # the earlier deadline and must dispatch first on the single core.
        late = make_job(0, 1, 13, [2, 2, 2])
        early = make_job(1, 0, 13, [2, 2, 2], rtt=1500.0)  # arrives with late
        result = run_global([late, early], cores=1)
        by_key = {(r.bs_id, r.index): r for r in result.records}
        assert by_key[(1, 0)].start_us <= by_key[(0, 1)].start_us

    def test_terminated_at_deadline(self):
        jobs = [make_job(0, 0, 27, [4, 4, 4, 4, 4, 4], rtt=700.0)]
        result = run_global(jobs, rtt=700.0)
        record = result.records[0]
        assert record.missed
        assert record.finish_us <= record.deadline_us

    def test_queue_overflow_drops_oldest(self):
        jobs = [make_job(b % 4, b // 4, 27, [4] * 6) for b in range(12)]
        cfg = CRanConfig(transport_latency_us=500.0, num_cores=1)
        result = GlobalScheduler(
            cfg, rng=np.random.default_rng(0), queue_capacity=2
        ).run(jobs)
        assert any(r.drop_stage == "queue-overflow" for r in result.records)

    def test_queue_overflow_evicts_earliest_deadline(self):
        # Four same-instant arrivals into a 2-slot queue on one core.
        # bs 1 is a newer frame with a 1.5 ms budget queued behind an
        # older 2 ms frame from bs 0.  The EDF heap evicts its head, so
        # the first overflow drops the newer, tighter-budget bs 1 (not
        # the oldest entry); the second drops bs 0.
        base = [make_job(b, 0, 5, [1]) for b in range(4)]
        tight = dataclasses.replace(
            base[1], deadline_override_us=base[1].subframe.air_time_us + 1500.0
        )
        jobs = [base[0], tight, base[2], base[3]]
        cfg = CRanConfig(transport_latency_us=500.0, num_cores=1)
        result = run_scheduler(
            "global", cfg, jobs, seed=0, capture_trace=True, queue_capacity=2
        )
        evicted = [
            (e.bs_id, e.sf_index)
            for e in result.trace_run.events
            if e.kind == "deadline" and e.args.get("drop_stage") == "queue-overflow"
        ]
        assert evicted == [(1, 0), (0, 0)]
        by_bs = {r.bs_id: r for r in result.records}
        assert by_bs[1].drop_stage == "queue-overflow"
        assert by_bs[0].drop_stage == "queue-overflow"
        assert not by_bs[2].dropped and not by_bs[3].dropped

    def test_more_cores_do_not_reduce_cache_misses(self, small_config, small_workload):
        # The Fig. 19 mechanism: wider scatter means colder caches.
        mean_penalty = {}
        for cores in (8, 16):
            cfg = CRanConfig(transport_latency_us=500.0, num_cores=cores)
            result = GlobalScheduler(cfg, rng=np.random.default_rng(1)).run(small_workload)
            penalties = [r.cache_penalty_us for r in result.records]
            mean_penalty[cores] = float(np.mean(penalties))
        assert mean_penalty[16] >= mean_penalty[8]
