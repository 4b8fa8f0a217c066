"""Tests for the RT-OPEX scheduler: migration, preemption, recovery."""

import dataclasses

import numpy as np
import pytest

from repro.obs.trace import RunTrace
from repro.sched import CRanConfig, PartitionedScheduler, RtOpexScheduler
from repro.timing.platform import PlatformNoiseModel

from tests.helpers import make_job


def run_opex(jobs, rtt=500.0, seed=0, **kwargs):
    cfg = CRanConfig(transport_latency_us=rtt)
    return RtOpexScheduler(cfg, rng=np.random.default_rng(seed), **kwargs).run(jobs)


QUIET = PlatformNoiseModel(base_mean_us=1.0, spike_probability=0.0, tail_probability=0.0)


class TestMigrationBehaviour:
    def test_heavy_subframe_rescued_by_migration(self):
        # MCS 27 at L=4 (~2.04 ms serial) misses Tmax = 1.5 ms under
        # partitioned scheduling but survives under RT-OPEX thanks to
        # idle cores on the other basestations.
        jobs = [make_job(0, 0, 27, [4])] + [make_job(b, 0, 0, [1]) for b in (1, 2, 3)]
        cfg = CRanConfig(transport_latency_us=500.0)
        part = PartitionedScheduler(cfg).run(jobs)
        opex = run_opex(jobs, remote_noise=QUIET)
        heavy_part = [r for r in part.records if r.mcs == 27][0]
        heavy_opex = [r for r in opex.records if r.mcs == 27][0]
        assert heavy_part.missed
        assert not heavy_opex.missed
        assert heavy_opex.migrated_subtasks > 0

    def test_saturated_node_cannot_be_rescued(self):
        # Every basestation heavy on every subframe: there are no gaps
        # to harvest, so migration cannot conjure capacity and RT-OPEX
        # misses (nearly) everything, like the partitioned baseline.
        # (One subframe per millisecond still slips through by racing
        # into the gaps that deadline-terminated neighbours leave.)
        jobs = [make_job(b, j, 27, [4]) for b in range(4) for j in range(8)]
        opex = run_opex(jobs, remote_noise=QUIET)
        assert opex.miss_rate() > 0.6
        decode_moves = sum(
            m.num_subtasks for r in opex.records for m in r.migrations if m.task == "decode"
        )
        total_subtasks = sum(len(r.iterations) for r in opex.records)
        assert decode_moves < 0.25 * total_subtasks

    def test_migration_reduces_processing_time(self):
        heavy = make_job(0, 0, 27, [4], rtt=400.0)
        jobs = [heavy] + [make_job(b, 0, 0, [1], rtt=400.0) for b in (1, 2, 3)]
        opex = run_opex(jobs, rtt=400.0, remote_noise=QUIET)
        t_opex = [r for r in opex.records if r.mcs == 27][0].processing_time_us
        # Serial execution would take ~2.04 ms; three migrated code
        # blocks shave off >500 us.
        assert t_opex < heavy.serial_time_us - 500.0

    def test_fft_migration_ubiquitous(self, small_config, small_workload):
        # A core with a subframe arriving at the same instant is not a
        # valid helper (its own work preempts immediately), which rules
        # out the same-slot cores of the other basestations; most FFTs
        # still find an idle other-slot core to ship subtasks to.
        opex = RtOpexScheduler(small_config, rng=np.random.default_rng(0)).run(small_workload)
        assert opex.migration_fraction("fft") > 0.6

    def test_disabling_migration_recovers_partitioned(self, small_config, small_workload):
        opex = RtOpexScheduler(
            small_config,
            rng=np.random.default_rng(0),
            migrate_fft=False,
            migrate_decode=False,
        ).run(small_workload)
        part = PartitionedScheduler(small_config).run(small_workload)
        assert opex.miss_count() == part.miss_count()
        assert all(not r.migrations for r in opex.records)

    def test_never_worse_than_partitioned(self, small_config, small_workload):
        # The paper's core guarantee, at the aggregate level.
        part = PartitionedScheduler(small_config).run(small_workload)
        opex = RtOpexScheduler(small_config, rng=np.random.default_rng(0)).run(small_workload)
        assert opex.miss_count() <= part.miss_count()

    def test_order_of_magnitude_improvement(self, small_config, small_workload):
        # Fig. 15's headline at RTT/2 = 500 us.
        part = PartitionedScheduler(small_config).run(small_workload)
        opex = RtOpexScheduler(small_config, rng=np.random.default_rng(0)).run(small_workload)
        if part.miss_count() >= 5:
            assert opex.miss_count() <= part.miss_count() / 5


class TestPreemptionAndRecovery:
    def test_helper_always_starts_its_own_subframe_on_time(self):
        # A migrated batch never delays the helper core's own work.
        jobs = []
        for j in range(6):
            jobs.append(make_job(0, j, 27, [4]))  # heavy donor
            jobs.append(make_job(1, j, 13, [2]))  # helper BS
            jobs.append(make_job(2, j, 13, [2]))
            jobs.append(make_job(3, j, 13, [2]))
        opex = run_opex(jobs, rtt=500.0)
        for r in opex.records:
            assert r.queue_delay_us == 0.0

    def test_recovery_on_noisy_helpers(self):
        # Extreme remote noise forces preemptions; recovery must keep
        # the result correct (recorded) and the run must complete.
        noisy = PlatformNoiseModel(
            base_mean_us=300.0, base_shape=1.0, spike_probability=0.5,
            spike_low_us=200.0, spike_high_us=600.0,
        )
        jobs = [make_job(0, j, 27, [4]) for j in range(4)]
        jobs += [make_job(b, j, 5, [1]) for b in (1, 2, 3) for j in range(4)]
        opex = run_opex(jobs, remote_noise=noisy)
        recovered = sum(
            m.recovered_subtasks for r in opex.records for m in r.migrations
        )
        assert recovered > 0
        assert len(opex.records) == len(jobs)

    def test_all_subframes_accounted_once(self, small_config, small_workload):
        opex = RtOpexScheduler(small_config, rng=np.random.default_rng(0)).run(small_workload)
        assert len(opex.records) == len(small_workload)
        keys = {(r.bs_id, r.index) for r in opex.records}
        assert len(keys) == len(small_workload)

    def test_finish_never_exceeds_deadline(self, small_config, small_workload):
        opex = RtOpexScheduler(small_config, rng=np.random.default_rng(0)).run(small_workload)
        for r in opex.records:
            assert r.finish_us <= r.deadline_us + 1e-6


class TestOverheadSensitivity:
    def _heavy_mix(self):
        jobs = []
        for j in range(8):
            jobs.append(make_job(0, j, 26, [3]))
            for b in (1, 2, 3):
                jobs.append(make_job(b, j, 8, [1]))
        return jobs

    def test_large_overhead_shrinks_migration(self):
        jobs = self._heavy_mix()
        cheap = run_opex(jobs, batch_overhead_us=5.0, remote_noise=QUIET)
        costly = run_opex(jobs, batch_overhead_us=400.0, remote_noise=QUIET)
        assert (
            sum(m.num_subtasks for r in costly.records for m in r.migrations)
            <= sum(m.num_subtasks for r in cheap.records for m in r.migrations)
        )

    def test_gap_accounting(self):
        jobs = [make_job(0, 0, 5, [1])]
        opex = run_opex(jobs, remote_noise=QUIET)
        record = opex.records[0]
        assert record.gap_us == pytest.approx(2500.0 - record.finish_us)

    def test_slack_check_drop_recorded(self):
        jobs = [make_job(0, 0, 27, [4], rtt=700.0, noise=900.0)]
        opex = run_opex(jobs, rtt=700.0)
        record = opex.records[0]
        assert record.missed

    def test_deterministic_given_seed(self, small_config, small_workload):
        a = RtOpexScheduler(small_config, rng=np.random.default_rng(5)).run(small_workload)
        b = RtOpexScheduler(small_config, rng=np.random.default_rng(5)).run(small_workload)
        assert [r.finish_us for r in a.records] == [r.finish_us for r in b.records]


#: Decode start of a lone MCS-27 frame on core 0 (FFT migrated, demod
#: serial): the instant the same-instant cases below aim an arrival at.
LONE_HEAVY_DECODE_START_US = 1000.214297630713


def same_instant_opex_cases():
    """rt-opex scenarios where two events fall on one instant.

    Returns ``{name: (jobs, scheduler kwargs)}``.

    * ``arrival_and_decode_start`` — a frame arrives on core 2 exactly
      when core 0's frame starts its decode; the arrival's FFT and the
      decode then compete for the same helper cores.  The arrival
      (priority 0) must run first.
    * ``two_decode_starts`` — two frames arriving together, with FFT
      migration off so their demod ends coincide, start their decodes
      at one instant.  They run in the order they were scheduled, so
      core 0's frame books helpers first.
    """
    heavy_late = dataclasses.replace(
        make_job(1, 0, 27, [4]),
        arrival_override_us=LONE_HEAVY_DECODE_START_US,
        deadline_override_us=LONE_HEAVY_DECODE_START_US + 1500.0,
    )
    return {
        "arrival_and_decode_start": ([make_job(0, 0, 27, [4]), heavy_late], {}),
        "two_decode_starts": (
            [make_job(0, 0, 27, [4]), make_job(1, 0, 27, [4])],
            {"migrate_fft": False},
        ),
    }


def decided_fields(record):
    """What rt-opex decides per record, migrations included."""
    return (
        record.core_id, record.start_us, record.finish_us, record.missed,
        record.dropped, record.drop_stage, record.gap_us,
        [
            (m.task, m.num_subtasks, m.target_core, m.planned_us, m.actual_us,
             m.recovered_subtasks)
            for m in record.migrations
        ],
    )


#: Per-record :func:`decided_fields` and the PCG64 state after the run,
#: for :func:`same_instant_opex_cases`.
SAME_INSTANT_PINS = {
    "arrival_and_decode_start": (
        [
            (
                0, 500.0, 1888.5411539327406, False, False, None, 611.4588460672594,
                [
                    ("fft", 1, 4, 74.5, 89.51429763071292, 0),
                    ("decode", 3, 4, 723.5171428571429, 739.2268563020275, 0),
                ],
            ),
            (
                2, 1000.214297630713, 2373.764797201844, False, False, None,
                126.23520279815602,
                [
                    ("fft", 1, 4, 74.5, 81.34933380840585, 0),
                    ("decode", 3, 1, 723.5171428571429, 732.4011657627252, 0),
                ],
            ),
        ],
        {
            "state": 290790065184894171192522553462352922540,
            "inc": 261136684632268670825940853076396136793,
        },
    ),
    "two_decode_starts": (
        [
            (
                0, 500.0, 1906.3314404878558, False, False, None, 593.6685595121442,
                [("decode", 3, 4, 723.5171428571429, 738.5314404878557, 0)],
            ),
            (
                2, 500.0, 1898.1664766655488, False, False, None, 601.8335233344512,
                [("decode", 3, 6, 723.5171428571429, 730.3664766655486, 0)],
            ),
        ],
        {
            "state": 57900626327182248810360271475404325290,
            "inc": 261136684632268670825940853076396136793,
        },
    ),
}


class TestSameInstantOrder:
    @pytest.mark.parametrize("case", sorted(SAME_INSTANT_PINS))
    def test_same_instant_events(self, case):
        jobs, kwargs = same_instant_opex_cases()[case]
        expected_records, expected_state = SAME_INSTANT_PINS[case]
        rng = np.random.default_rng(7)
        trace = RunTrace("r")
        result = RtOpexScheduler(
            CRanConfig(transport_latency_us=500.0), rng=rng, trace=trace, **kwargs
        ).run(jobs)
        # The two events still coincide: core 0's decode starts on the
        # instant of the other frame's arrival, or of its decode start.
        decode_starts = [
            e.ts_us for e in trace.events if e.kind == "task" and e.name == "decode"
        ]
        other = jobs[1].arrival_us if case == "arrival_and_decode_start" else decode_starts[1]
        assert decode_starts[0] == other
        assert [decided_fields(r) for r in result.records] == expected_records
        assert rng.bit_generator.state["state"] == expected_state
