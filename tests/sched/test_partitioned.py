"""Tests for the partitioned scheduler."""

import pytest

import dataclasses

from repro.sched import CRanConfig, PartitionedScheduler
from repro.sched.base import partitioned_core_for
from tests.helpers import make_job


class TestPartitioned:
    def test_placement_follows_paper_rule(self):
        cfg = CRanConfig(transport_latency_us=500.0)
        jobs = [make_job(b, j, 5, [1]) for b in range(4) for j in range(4)]
        result = PartitionedScheduler(cfg).run(jobs)
        for r in result.records:
            assert r.core_id == partitioned_core_for(r.bs_id, r.index, 2)

    def test_light_subframes_meet_deadline(self):
        cfg = CRanConfig(transport_latency_us=500.0)
        jobs = [make_job(0, j, 5, [1]) for j in range(10)]
        result = PartitionedScheduler(cfg).run(jobs)
        assert result.miss_rate() == 0.0

    def test_heavy_subframe_misses_when_budget_short(self):
        # MCS 27 with L = 4 takes ~2.04 ms > Tmax = 1.3 ms at RTT 700.
        cfg = CRanConfig(transport_latency_us=700.0)
        jobs = [make_job(0, 0, 27, [4])]
        result = PartitionedScheduler(cfg).run(jobs)
        assert result.miss_count() == 1

    def test_terminated_at_deadline(self):
        cfg = CRanConfig(transport_latency_us=700.0, drop_on_slack_check=False)
        jobs = [make_job(0, 0, 27, [4])]
        result = PartitionedScheduler(cfg).run(jobs)
        record = result.records[0]
        assert record.missed
        assert record.finish_us == record.deadline_us

    def test_slack_check_drops_hopeless_subframe(self):
        # With the optimistic bound already over budget the task is
        # dropped at a stage boundary instead of burning the core.
        cfg = CRanConfig(transport_latency_us=700.0)
        jobs = [make_job(0, 0, 27, [4], noise=800.0)]
        result = PartitionedScheduler(cfg).run(jobs)
        record = result.records[0]
        assert record.dropped
        assert record.drop_stage in ("fft", "demod", "decode")

    def test_no_queueing_with_two_cores_per_bs(self):
        cfg = CRanConfig(transport_latency_us=700.0)
        jobs = [make_job(0, j, 27, [4, 4, 4, 4, 4, 4]) for j in range(20)]
        result = PartitionedScheduler(cfg).run(jobs)
        assert all(r.queue_delay_us == 0.0 for r in result.records)

    def test_under_provisioned_single_core_queues(self):
        cfg = CRanConfig(transport_latency_us=500.0, cores_per_bs=1)
        jobs = [make_job(0, j, 27, [4, 4, 4, 4, 4, 4]) for j in range(5)]
        result = PartitionedScheduler(cfg).run(jobs)
        assert any(r.queue_delay_us > 0 for r in result.records)

    def test_gap_is_time_to_next_activation(self):
        cfg = CRanConfig(transport_latency_us=500.0)
        job = make_job(0, 0, 5, [1])
        result = PartitionedScheduler(cfg).run([job])
        record = result.records[0]
        # Next subframe for this core arrives at 2000 + 500.
        assert record.gap_us == pytest.approx(2500.0 - record.finish_us)

    def test_processing_time_matches_task_graph(self):
        cfg = CRanConfig(transport_latency_us=400.0)
        job = make_job(0, 0, 13, [2, 2, 2], noise=10.0)
        result = PartitionedScheduler(cfg).run([job])
        record = result.records[0]
        assert record.processing_time_us == pytest.approx(
            job.work.total_serial_us + 10.0
        )

    def test_records_carry_workload_metadata(self):
        cfg = CRanConfig(transport_latency_us=500.0)
        job = make_job(2, 3, 13, [2, 2])
        result = PartitionedScheduler(cfg).run([job])
        record = result.records[0]
        assert (record.bs_id, record.index, record.mcs) == (2, 3, 13)
        assert record.iterations == (2, 2)

    def test_deterministic(self, small_config, small_workload):
        a = PartitionedScheduler(small_config).run(small_workload)
        b = PartitionedScheduler(small_config).run(small_workload)
        assert a.miss_count() == b.miss_count()
        assert [r.finish_us for r in a.records] == [r.finish_us for r in b.records]

    def test_miss_rate_grows_with_rtt(self, small_workload):
        # Eq. (3): a larger RTT/2 shrinks Tmax, so misses cannot shrink.
        rates = []
        for rtt in (400.0, 550.0, 700.0):
            cfg = CRanConfig(transport_latency_us=rtt)
            jobs = [
                dataclasses.replace(
                    j,
                    subframe=dataclasses.replace(j.subframe, transport_latency_us=rtt),
                    arrival_us=j.subframe.air_time_us + rtt,
                )
                for j in small_workload
            ]
            rates.append(PartitionedScheduler(cfg).run(jobs).miss_rate())
        assert rates[0] <= rates[1] <= rates[2]
