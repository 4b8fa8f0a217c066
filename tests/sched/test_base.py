"""Tests for shared scheduler types and placement helpers."""

import pytest

from repro.sched.base import (
    CRanConfig,
    SchedulerResult,
    SubframeRecord,
    next_partitioned_activation,
    partitioned_core_for,
)


class TestCRanConfig:
    def test_default_core_pool(self):
        cfg = CRanConfig()
        assert cfg.total_cores == 8  # 4 BS x 2 cores

    def test_explicit_core_pool(self):
        assert CRanConfig(num_cores=16).total_cores == 16

    def test_processing_budget_eq3(self):
        assert CRanConfig(transport_latency_us=600.0).processing_budget_us == 1400.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CRanConfig(num_basestations=0)
        with pytest.raises(ValueError):
            CRanConfig(transport_latency_us=-1.0)
        with pytest.raises(ValueError):
            CRanConfig(cores_per_bs=0)

    def test_negative_core_count_rejected(self):
        # A negative pool used to reach the shared-queue loop as zero
        # cores: every frame stayed queued, unprocessed, and counted as
        # a hit.  Zero still means "derive from the basestations".
        with pytest.raises(ValueError, match="-1"):
            CRanConfig(num_cores=-1)
        assert CRanConfig(num_cores=0).total_cores == 8

    @pytest.mark.parametrize("bad", [0, -3])
    def test_max_iterations_below_one_rejected(self, bad):
        # Zero iterations used to build a 0 us planned decode, and pran
        # then divided by it.
        with pytest.raises(ValueError, match=f"max_iterations must be >= 1, got {bad}"):
            CRanConfig(max_iterations=bad)
        assert CRanConfig(max_iterations=1).max_iterations == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_transport_latency_rejected(self, bad):
        # NaN passed the `< 0` test and failed later, unpositioned,
        # inside three of the schedulers.
        with pytest.raises(ValueError, match=f"transport_latency_us .* got {bad}"):
            CRanConfig(transport_latency_us=bad)


class TestPlacement:
    def test_paper_mapping_rule(self):
        # core = i*ceil(Tmax) + j mod ceil(Tmax), with ceil(Tmax) = 2.
        assert partitioned_core_for(0, 0, 2) == 0
        assert partitioned_core_for(0, 1, 2) == 1
        assert partitioned_core_for(0, 2, 2) == 0
        assert partitioned_core_for(1, 0, 2) == 2
        assert partitioned_core_for(3, 5, 2) == 7

    def test_next_activation_basic(self):
        # Slot 0 of any BS activates at j*2ms + RTT/2 for even j.
        t = next_partitioned_activation(
            0, 0, after_us=100.0, cores_per_bs=2, transport_latency_us=500.0
        )
        assert t == 500.0
        t = next_partitioned_activation(
            0, 0, after_us=501.0, cores_per_bs=2, transport_latency_us=500.0
        )
        assert t == 2500.0

    def test_next_activation_odd_slot(self):
        t = next_partitioned_activation(
            0, 1, after_us=0.0, cores_per_bs=2, transport_latency_us=400.0
        )
        assert t == 1400.0

    def test_next_activation_strictly_after(self):
        t0 = 2500.0
        t = next_partitioned_activation(
            0, 0, after_us=t0, cores_per_bs=2, transport_latency_us=500.0
        )
        assert t > t0

    def test_activation_period(self):
        a = next_partitioned_activation(0, 0, 100.0, 2, 500.0)
        b = next_partitioned_activation(0, 0, a, 2, 500.0)
        assert b - a == 2000.0


class TestSchedulerResult:
    def _record(self, missed=False, dropped=False, mcs=10, bs=0, crc=True, gap=float("nan")):
        return SubframeRecord(
            bs_id=bs,
            index=0,
            mcs=mcs,
            load=0.5,
            arrival_us=500.0,
            deadline_us=2000.0,
            start_us=500.0,
            finish_us=1500.0,
            missed=missed,
            dropped=dropped,
            crc_pass=crc,
            gap_us=gap,
        )

    def test_miss_rate(self):
        records = [self._record(), self._record(missed=True), self._record(dropped=True)]
        result = SchedulerResult("x", CRanConfig(), records)
        assert result.miss_rate() == pytest.approx(2 / 3)

    def test_empty_result(self):
        result = SchedulerResult("x", CRanConfig(), [])
        assert result.miss_rate() == 0.0
        assert result.ack_rate() == 0.0

    def test_ack_requires_crc_and_deadline(self):
        records = [
            self._record(),
            self._record(crc=False),
            self._record(missed=True),
        ]
        result = SchedulerResult("x", CRanConfig(), records)
        assert result.ack_rate() == pytest.approx(1 / 3)

    def test_miss_rate_by_mcs(self):
        records = [self._record(mcs=5), self._record(mcs=27, missed=True)]
        result = SchedulerResult("x", CRanConfig(), records)
        by_mcs = result.miss_rate_by_mcs()
        assert by_mcs[5] == 0.0
        assert by_mcs[27] == 1.0

    def test_miss_rate_by_bs(self):
        records = [self._record(bs=0), self._record(bs=1, missed=True)]
        by_bs = SchedulerResult("x", CRanConfig(), records).miss_rate_by_bs()
        assert by_bs == {0: 0.0, 1: 1.0}

    def test_gaps_skip_nan(self):
        records = [self._record(gap=100.0), self._record()]
        gaps = SchedulerResult("x", CRanConfig(), records).gaps()
        assert list(gaps) == [100.0]

    def test_processing_times_filter_by_mcs(self):
        records = [self._record(mcs=5), self._record(mcs=7)]
        result = SchedulerResult("x", CRanConfig(), records)
        assert result.processing_times(mcs=5).size == 1
        assert result.processing_times().size == 2

    def test_record_properties(self):
        r = self._record()
        assert r.processing_time_us == 1000.0
        assert r.response_time_us == 1000.0
        assert r.acked
        assert r.migrated_subtasks == 0

    def test_summary_keys(self):
        result = SchedulerResult("x", CRanConfig(), [self._record()])
        summary = result.summary()
        assert set(summary) == {"subframes", "miss_rate", "ack_rate", "mean_proc_us", "p99_proc_us"}
