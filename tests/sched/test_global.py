"""Tests for the global (EDF/FIFO) scheduler."""

import dataclasses

import numpy as np
import pytest

from repro.sched import CRanConfig, DelayAwareScheduler, GlobalScheduler, run_scheduler
from repro.timing.cache import CacheAffinityModel

from tests.helpers import make_job, same_instant_cases


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

    @pytest.mark.parametrize("overhead", [0.0, -1.0, float("nan")])
    def test_non_positive_dispatch_overhead_rejected(self, overhead):
        with pytest.raises(ValueError, match="dispatch_overhead_us"):
            GlobalScheduler(CRanConfig(), dispatch_overhead_us=overhead)

    @pytest.mark.parametrize("policy", [GlobalScheduler, DelayAwareScheduler])
    @pytest.mark.parametrize("capacity", [0, -1])
    def test_queue_capacity_below_one_rejected(self, policy, capacity):
        # A full queue evicts before it admits: with no slot the first
        # arrival would evict from an empty queue.
        with pytest.raises(ValueError, match="queue_capacity"):
            policy(CRanConfig(), queue_capacity=capacity)

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


#: Per record ``(core_id, start_us, finish_us, dropped, drop_stage)`` and
#: the PCG64 state after the run, for the cases of
#: :func:`tests.helpers.same_instant_cases`.  They pin the order of work
#: within one instant: the arrivals are enqueued (evicting on overflow),
#: then each freed core dispatches in dispatch order, then one more
#: dispatch pass runs for the arrivals.
SAME_INSTANT_PINS = {
    "release_with_room": (
        [
            (2, 512.0, 1612.0, False, None),
            (1, 512.0, 2500.0, False, None),
            (2, 1624.0, 2141.6257142857144, False, None),
            (0, 1624.0, 2202.6373542295, False, None),
            (2, 2153.6257142857144, 2772.400169749167, False, None),
        ],
        {
            "state": 57900626327182248810360271475404325290,
            "inc": 261136684632268670825940853076396136793,
        },
    ),
    "release_with_full_queue": (
        [
            (1, 512.0, 1612.0, False, None),
            (0, 512.0, 2500.0, False, None),
            (-1, 1612.0, 1612.0, True, "queue-overflow"),
            (1, 1624.0, 2141.6257142857144, False, None),
            (1, 2153.6257142857144, 2727.01593187077, False, None),
        ],
        {
            "state": 105654590169398913713099924159419625588,
            "inc": 261136684632268670825940853076396136793,
        },
    ),
    "two_releases_two_arrivals": (
        [
            (3, 512.0, 1612.0, False, None),
            (1, 512.0, 1612.0, False, None),
            (2, 512.0, 2500.0, False, None),
            (0, 1624.0, 2242.774455463453, False, None),
            (3, 1624.0, 2181.9942856053044, False, None),
        ],
        {
            "state": 139799895654695709117998950296139720747,
            "inc": 261136684632268670825940853076396136793,
        },
    ),
}


class TestSameInstantOrder:
    @pytest.mark.parametrize("case", sorted(SAME_INSTANT_PINS))
    def test_release_and_arrival_at_one_instant(self, case):
        jobs, cores, capacity = same_instant_cases()[case]
        expected_records, expected_state = SAME_INSTANT_PINS[case]
        rng = np.random.default_rng(7)
        cfg = CRanConfig(transport_latency_us=500.0, num_cores=cores)
        result = GlobalScheduler(cfg, rng=rng, queue_capacity=capacity).run(jobs)
        assert [
            (r.core_id, r.start_us, r.finish_us, r.dropped, r.drop_stage)
            for r in result.records
        ] == expected_records
        assert rng.bit_generator.state["state"] == expected_state
