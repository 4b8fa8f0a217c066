"""Tests for the PRAN-style plan-ahead scheduler."""

import numpy as np
import pytest

from repro.sched import CRanConfig, PranScheduler, run_scheduler
from repro.timing.iterations import IterationModel

from tests.helpers import make_job


def run_pran(jobs, rtt=500.0, **kwargs):
    cfg = CRanConfig(transport_latency_us=rtt)
    return PranScheduler(cfg, rng=np.random.default_rng(0), **kwargs).run(jobs)


class TestPran:
    def test_light_load_no_misses(self):
        jobs = [make_job(b, j, 5, [1]) for b in range(4) for j in range(5)]
        assert run_pran(jobs).miss_rate() == 0.0

    def test_all_subframes_accounted(self, small_config, small_workload):
        result = run_scheduler("pran", small_config, small_workload)
        assert len(result.records) == len(small_workload)
        assert len({(r.bs_id, r.index) for r in result.records}) == len(small_workload)

    def test_parallelism_beats_serial_on_lone_heavy(self):
        # A single heavy subframe with an idle pool decodes in parallel
        # and meets a deadline the serial baseline would miss.
        jobs = [make_job(0, 0, 27, [4])]
        result = run_pran(jobs)
        record = result.records[0]
        assert not record.missed
        assert record.processing_time_us < jobs[0].serial_time_us

    def test_misprediction_hurts(self):
        # The planner expects E[L]; a channel surprise (every block at
        # Lm on every cell) overruns the plan with no runtime fix.
        surprise = [make_job(b, j, 27, [4]) for b in range(4) for j in range(6)]
        result = run_pran(surprise)
        assert result.miss_rate() > 0.3

    def test_worse_than_rtopex_on_trace(self, small_config, small_workload):
        pran = run_scheduler("pran", small_config, small_workload)
        opex = run_scheduler("rt-opex", small_config, small_workload)
        assert opex.miss_count() <= pran.miss_count()

    def test_deterministic(self, small_config, small_workload):
        a = run_scheduler("pran", small_config, small_workload, seed=4)
        b = run_scheduler("pran", small_config, small_workload, seed=4)
        assert [r.finish_us for r in a.records] == [r.finish_us for r in b.records]

    def test_finish_capped_at_deadline(self, small_config, small_workload):
        result = run_scheduler("pran", small_config, small_workload)
        for r in result.records:
            assert r.finish_us <= r.deadline_us + 1e-6

    def test_custom_iteration_model(self):
        # A pessimistic planner (expects Lm everywhere) plans larger
        # shares but still schedules everything.
        jobs = [make_job(b, j, 20, [2]) for b in range(4) for j in range(3)]
        pessimistic = IterationModel(effort_offset=100.0)  # margin always << 0
        result = run_pran(jobs, iteration_model=pessimistic)
        assert len(result.records) == len(jobs)


def tied_load_cases():
    """pran boundaries where core loads tie.

    * ``all_cores_idle`` — three heavy frames on eight idle cores: the
      home cores come from ``argsort`` over eight equal loads, and the
      decode pieces go to the first of several equal planned loads
      (``argmin``);
    * ``two_boundaries`` — at the second boundary four cores tie at the
      same finish time and four hold distinct later ones.

    numpy's SIMD ``argsort`` and a stable sort order these particular
    ties the same way; partial ties in general they do not.
    """
    return {
        "all_cores_idle": [make_job(b, 0, 27, [4]) for b in (0, 1, 2)],
        "two_boundaries": [
            make_job(b, j, 16, [2]) for j in (0, 1) for b in (0, 1, 2, 3)
        ],
    }


#: Per record ``(core_id, start_us, finish_us, missed)`` and the PCG64
#: state after the run, for :func:`tied_load_cases`.
TIED_LOAD_PINS = {
    "all_cores_idle": (
        [
            (0, 500.0, 1677.900665641726, False),
            (1, 500.0, 1933.009122688421, False),
            (2, 500.0, 2000.0, True),
        ],
        {
            "state": 142205542758926017296850103978187267774,
            "inc": 261136684632268670825940853076396136793,
        },
    ),
    "two_boundaries": (
        [
            (0, 500.0, 1201.563239009276, False),
            (1, 500.0, 1335.8149513560115, False),
            (2, 500.0, 1469.5805512598495, False),
            (3, 500.0, 1466.882824035373, False),
            (0, 1500.0, 2201.551574060622, False),
            (1, 1500.0, 2335.92170482775, False),
            (2, 1500.0, 2463.6553460129408, False),
            (3, 1500.0, 2469.7552096474624, False),
        ],
        {
            "state": 24577368018281870019634082382682937184,
            "inc": 261136684632268670825940853076396136793,
        },
    ),
}


class TestTiedLoads:
    @pytest.mark.parametrize("case", sorted(TIED_LOAD_PINS))
    def test_choice_on_tied_core_loads(self, case):
        expected_records, expected_state = TIED_LOAD_PINS[case]
        rng = np.random.default_rng(7)
        result = PranScheduler(CRanConfig(transport_latency_us=500.0), rng=rng).run(
            tied_load_cases()[case]
        )
        assert [
            (r.core_id, r.start_us, r.finish_us, r.missed) for r in result.records
        ] == expected_records
        assert rng.bit_generator.state["state"] == expected_state
