"""Scheduler <-> trace consistency, and serial-vs-parallel trace identity.

Two cross-checks between the simulation and its timeline export:

* per-core busy time derived from the emitted busy spans equals the
  scheduler's own ``core_busy_us`` accounting to within 1e-6, per-core
  timelines never overlap, and the deadline verdict events reproduce
  ``miss_count()`` exactly;
* a fig15 run traced under ``jobs=1`` and ``jobs=2`` produces
  byte-identical trace files in both formats (the workers ship their
  events back through the pool and the parent reassembles them in
  deterministic order).
"""

import pytest

from repro.analysis import tracestats
from repro.obs.export import write_chrome_trace, write_jsonl_trace
from repro.obs.schema import validate_chrome_trace
from repro.obs.trace import Tracer, tracing
from repro.runtime import ExperimentRunner
from repro.sched import run_scheduler

SCHEDULERS = ("partitioned", "global", "rt-opex", "pran", "cloudiq")


@pytest.fixture(scope="module")
def traced_runs(small_config, small_workload):
    """One traced run per scheduler, with its result, over the shared workload."""
    runs = {}
    tracer = Tracer()
    with tracing(tracer):
        for name in SCHEDULERS:
            result = run_scheduler(name, small_config, small_workload, seed=99)
            runs[name] = (result, tracer.runs[-1])
    return runs


class TestSchedulerTraceConsistency:
    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_busy_time_matches_reported(self, traced_runs, name):
        result, run = traced_runs[name]
        derived = tracestats.core_busy_us(run)
        assert set(derived) == set(result.core_busy_us)
        for core, busy in result.core_busy_us.items():
            assert derived[core] == pytest.approx(busy, abs=1e-6)

    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_utilization_matches_reported(self, traced_runs, name):
        result, run = traced_runs[name]
        horizon = 1_000_000.0
        derived = tracestats.core_utilization(run, horizon_us=horizon)
        reported = result.utilization(horizon_us=horizon)
        assert derived.keys() == reported.keys()
        for core in reported:
            assert derived[core] == pytest.approx(reported[core], abs=1e-9)

    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_no_overlapping_busy_spans(self, traced_runs, name):
        _, run = traced_runs[name]
        assert tracestats.find_overlaps(run) == []

    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_deadline_events_reproduce_miss_count(self, traced_runs, name):
        result, run = traced_runs[name]
        assert tracestats.deadline_miss_count(run) == result.miss_count()
        hits, misses = tracestats.deadline_verdicts(run)
        assert hits + misses == len(result.records)  # one verdict per subframe

    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_tracing_does_not_change_results(
        self, traced_runs, name, small_config, small_workload
    ):
        traced_result, _ = traced_runs[name]
        bare = run_scheduler(name, small_config, small_workload, seed=99)
        assert bare.miss_count() == traced_result.miss_count()
        assert [r.finish_us for r in bare.records] == [
            r.finish_us for r in traced_result.records
        ]
        assert bare.core_busy_us == traced_result.core_busy_us

    def test_partitioned_gap_samples_match_records(self, traced_runs):
        result, run = traced_runs["partitioned"]
        expected = sorted(r.gap_us for r in result.records if r.gap_us > 0)
        assert sorted(tracestats.gap_samples(run)) == pytest.approx(expected)

    def test_cloudiq_admission_drops_are_deadline_events(self, traced_runs):
        result, run = traced_runs["cloudiq"]
        dropped = sum(1 for r in result.records if r.drop_stage == "admission")
        traced_drops = sum(
            1 for e in run.events
            if e.kind == "deadline" and e.args.get("drop_stage") == "admission"
        )
        assert traced_drops == dropped

    def test_rtopex_migration_flows_are_complete_triples(self, traced_runs):
        _, run = traced_runs["rt-opex"]
        flows = tracestats.migration_flows(run)
        assert flows, "expected at least one migration batch at rtt=500us"
        for batch, stages in flows.items():
            # Planned always exists; executed implies the span landed on
            # the planned target; returned closes the flow.
            assert set(stages) == {"planned", "executed", "returned"}, batch
            assert stages["executed"].core in stages["planned"].args["targets"]
            assert (
                stages["planned"].ts_us
                <= stages["executed"].ts_us
                <= stages["returned"].ts_us
            )


class TestSerialParallelTraceIdentity:
    @staticmethod
    def _traced_fig15(jobs: int) -> Tracer:
        tracer = Tracer()
        with tracing(tracer):
            runner = ExperimentRunner(jobs=jobs, cache=None)
            results, _ = runner.run(["fig15"], scale=0.01, seed=11)
        assert results[0].ok, results[0].error
        return tracer

    @pytest.fixture(scope="class")
    def serial_and_parallel(self):
        return self._traced_fig15(1), self._traced_fig15(2)

    def test_chrome_files_byte_identical(self, serial_and_parallel, tmp_path):
        serial, parallel = serial_and_parallel
        assert serial.num_events() > 0
        a, b = tmp_path / "serial.json", tmp_path / "parallel.json"
        write_chrome_trace(a, serial)
        write_chrome_trace(b, parallel)
        assert a.read_bytes() == b.read_bytes()

    def test_jsonl_files_byte_identical(self, serial_and_parallel, tmp_path):
        serial, parallel = serial_and_parallel
        a, b = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
        write_jsonl_trace(a, serial)
        write_jsonl_trace(b, parallel)
        assert a.read_bytes() == b.read_bytes()

    def test_run_sequence_matches_serial_execution_order(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        labels = [run.label for run in serial.runs]
        # 7 RTT points x 4 scheduler runs, in sweep order.
        assert len(labels) == 28
        assert labels == [run.label for run in parallel.runs]
        assert "rtt=400" in labels[0]

    def test_trace_validates(self, serial_and_parallel, tmp_path):
        import json

        serial, _ = serial_and_parallel
        path = tmp_path / "serial.json"
        write_chrome_trace(path, serial)
        assert validate_chrome_trace(json.loads(path.read_text())) == []
