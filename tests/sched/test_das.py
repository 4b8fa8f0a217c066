"""Tests for the delay-aware scheduler (DAS)."""

import dataclasses

import numpy as np
import pytest

from repro.lte.mcs import max_mcs, throughput_mbps
from repro.sched import CRanConfig, DelayAwareScheduler, run_scheduler
from repro.sched.runner import TRACEABLE_SCHEDULERS
from repro.workload.classes import parse_class_spec
from repro.workload.mixed import build_mixed_workload

from tests.helpers import make_job, same_instant_cases


@pytest.fixture(scope="module")
def mixed_config():
    return CRanConfig(transport_latency_us=500.0, num_cores=8)


@pytest.fixture(scope="module")
def mixed_jobs(mixed_config):
    mix = parse_class_spec("urllc:0.3,embb:0.4,mmtc:0.3")
    return build_mixed_workload(mixed_config, 300, mix=mix, seed=11)


class TestRegistration:
    def test_registered_with_runner(self, mixed_config, mixed_jobs):
        result = run_scheduler("das", mixed_config, mixed_jobs, seed=11)
        assert result.scheduler_name == f"das-{mixed_config.total_cores}"
        assert len(result.records) == len(mixed_jobs)

    def test_traceable(self):
        assert "das" in TRACEABLE_SCHEDULERS

    def test_unknown_name_still_rejected(self, mixed_config, mixed_jobs):
        with pytest.raises(ValueError):
            run_scheduler("dass", mixed_config, mixed_jobs)


class TestBehaviour:
    def test_deterministic(self, mixed_config, mixed_jobs):
        a = run_scheduler("das", mixed_config, mixed_jobs, seed=4)
        b = run_scheduler("das", mixed_config, mixed_jobs, seed=4)
        assert [r.finish_us for r in a.records] == [r.finish_us for r in b.records]

    def test_every_record_tagged_with_class(self, mixed_config, mixed_jobs):
        result = run_scheduler("das", mixed_config, mixed_jobs, seed=4)
        assert {r.service for r in result.records} == {"urllc", "embb", "mmtc"}
        by_class = result.miss_rate_by_class()
        assert set(by_class) == {"urllc", "embb", "mmtc"}
        assert all(0.0 <= v <= 1.0 for v in by_class.values())

    def test_no_finish_exceeds_deadline(self, mixed_config, mixed_jobs):
        result = run_scheduler("das", mixed_config, mixed_jobs, seed=4)
        for r in result.records:
            assert r.finish_us <= r.deadline_us + 1e-9

    def test_single_class_workload_near_edf(self, small_config, small_workload):
        # On one shared budget, criticality ordering degenerates to
        # (roughly) EDF: DAS should be in the same league as the global
        # scheduler, not the partitioned stragglers.
        das = run_scheduler("das", small_config, small_workload, seed=2)
        glob = run_scheduler("global", small_config, small_workload, seed=2)
        assert das.miss_rate() <= glob.miss_rate() + 0.02

    def test_priority_prefers_tighter_budget(self):
        sched = DelayAwareScheduler(CRanConfig(transport_latency_us=500.0))
        base = make_job(0, 0, 20, [3])
        urgent = dataclasses.replace(
            base, deadline_override_us=base.subframe.air_time_us + 1500.0
        )
        relaxed = make_job(1, 0, 20, [3])
        now = base.arrival_us
        # Same work, same instant: the 1.5 ms budget consumes a larger
        # fraction than the 2 ms budget, so it must rank higher — this
        # is exactly where DAS diverges from EDF (the 2 ms job's
        # absolute deadline here is *earlier* in bs order).
        assert sched._priority(urgent, now) > sched._priority(relaxed, now)

    def test_priority_formula(self):
        sched = DelayAwareScheduler(CRanConfig(transport_latency_us=500.0))
        job = make_job(0, 0, 20, [3])
        now = job.arrival_us + 100.0
        hol = now - job.subframe.air_time_us
        crit = (hol + job.optimistic_time_us) / job.delay_budget_us
        eff = throughput_mbps(20) / throughput_mbps(max_mcs())
        assert sched._priority(job, now) == pytest.approx(crit * (1.0 + eff))

    def test_priority_grows_with_waiting(self):
        sched = DelayAwareScheduler(CRanConfig(transport_latency_us=500.0))
        job = make_job(0, 0, 20, [3])
        t0 = job.arrival_us
        assert sched._priority(job, t0 + 500.0) > sched._priority(job, t0)

    def test_queue_overflow_drops_least_urgent(self):
        cfg = CRanConfig(transport_latency_us=500.0, num_cores=1)
        sched = DelayAwareScheduler(
            cfg, rng=np.random.default_rng(0), queue_capacity=4
        )
        # 12 same-instant arrivals against one core and a 4-slot queue:
        # someone must get dropped, and the run must stay consistent.
        jobs = [make_job(0, j, 27, [4], noise=100.0) for j in range(12)]
        result = sched.run(jobs)
        dropped = [r for r in result.records if r.dropped]
        assert dropped
        assert {r.drop_stage for r in dropped} <= {"queue-overflow", "dispatch"}
        assert len(result.records) == 12

    def test_queue_overflow_evicts_lowest_priority(self):
        # Three same-instant arrivals into a 2-slot queue on one core.
        # bs 1 has a 10 ms budget, so it is the least urgent of the two
        # frames queued when bs 2 overflows the buffer: it is evicted,
        # not the oldest (bs 0) and not the earliest deadline (bs 0).
        base = [make_job(b, 0, 5, [1]) for b in range(3)]
        relaxed = dataclasses.replace(
            base[1], deadline_override_us=base[1].subframe.air_time_us + 10000.0
        )
        jobs = [base[0], relaxed, base[2]]
        cfg = CRanConfig(transport_latency_us=500.0, num_cores=1)
        sched = DelayAwareScheduler(
            cfg, rng=np.random.default_rng(0), queue_capacity=2
        )
        now = base[0].arrival_us
        queued = jobs[:2]
        least_urgent = min(queued, key=lambda j: sched._priority(j, now))
        assert least_urgent is relaxed
        result = sched.run(jobs)
        overflowed = [
            (r.bs_id, r.index) for r in result.records
            if r.drop_stage == "queue-overflow"
        ]
        assert overflowed == [(1, 0)]
        assert not any(r.dropped for r in result.records if r.bs_id != 1)


class TestSanitized:
    def test_full_sanitizer_profile_over_mixed_workload(
        self, mixed_config, mixed_jobs
    ):
        # The das event stream must satisfy every virtual-time invariant
        # (overlap, monotonicity, span nesting, verdict consistency);
        # the attestation report proves the sanitizer actually ran.
        result = run_scheduler(
            "das", mixed_config, mixed_jobs, seed=11, sanitize=True
        )
        assert result.sanitizer_report is not None
        assert result.sanitizer_report["events_checked"] > 0

    def test_deadline_events_carry_service(self, mixed_config, mixed_jobs):
        result = run_scheduler(
            "das", mixed_config, mixed_jobs, seed=11, capture_trace=True
        )
        verdicts = [
            e for e in result.trace_run.events if e.kind == "deadline"
        ]
        assert len(verdicts) == len(mixed_jobs)
        services = {e.args.get("service", "embb") for e in verdicts}
        assert services == {"urllc", "embb", "mmtc"}


class TestVerdictRollup:
    def test_deadline_verdicts_by_class_matches_records(
        self, mixed_config, mixed_jobs
    ):
        from repro.analysis.tracestats import deadline_verdicts_by_class

        result = run_scheduler(
            "das", mixed_config, mixed_jobs, seed=11, capture_trace=True
        )
        rollup = deadline_verdicts_by_class(result.trace_run)
        for service, (hits, misses) in rollup.items():
            records = [r for r in result.records if r.service == service]
            assert hits + misses == len(records)
            assert misses == sum(1 for r in records if r.missed or r.dropped)

    def test_single_class_trace_rolls_up_under_embb(
        self, small_config, small_workload
    ):
        from repro.analysis.tracestats import (
            deadline_verdicts,
            deadline_verdicts_by_class,
        )

        result = run_scheduler(
            "rt-opex", small_config, small_workload, seed=3, capture_trace=True
        )
        rollup = deadline_verdicts_by_class(result.trace_run)
        assert list(rollup) == ["embb"]
        assert rollup["embb"] == deadline_verdicts(result.trace_run)


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
            (1, 1624.0, 2197.390217585056, False, None),
            (-1, 1612.0, 1612.0, True, "queue-overflow"),
            (1, 2209.390217585056, 2788.027571814556, False, None),
        ],
        {
            "state": 69277902251545625047243999639177715869,
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
        result = DelayAwareScheduler(cfg, rng=rng, queue_capacity=capacity).run(jobs)
        assert [
            (r.core_id, r.start_us, r.finish_us, r.dropped, r.drop_stage)
            for r in result.records
        ] == expected_records
        assert rng.bit_generator.state["state"] == expected_state
