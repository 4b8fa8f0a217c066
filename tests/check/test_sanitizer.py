"""Tests for the virtual-time sanitizer (repro.check.sanitizer)."""

import pytest

from repro.check import (
    ALL_CHECKS,
    SanitizerError,
    SanitizingSink,
    SanitizingTrace,
    TraceSanitizer,
    checks_for_scheduler,
    sanitize_enabled,
)
from repro.obs.events import (
    ARRIVAL,
    DEADLINE,
    GAP,
    MIGRATION_EXECUTED,
    MIGRATION_PLANNED,
    MIGRATION_RETURNED,
    SUBTASK,
    TASK,
    TraceEvent,
)
from repro.obs.trace import RunTrace
from repro.sched.base import CRanConfig
from repro.sched.runner import build_workload, run_scheduler


def ev(kind, ts, core=0, dur=0.0, **args):
    return TraceEvent(kind, ts, core, dur_us=dur, args=args)


def feed(events, scheduler=""):
    checks, unordered = checks_for_scheduler(scheduler)
    sanitizer = TraceSanitizer(checks, unordered)
    for event in events:
        sanitizer.observe(event)
    sanitizer.finish()
    return sanitizer


class TestNegativePaths:
    def test_overlapping_spans_raise(self):
        first = ev(TASK, 0.0, core=0, dur=10.0)
        second = ev(TASK, 5.0, core=0, dur=10.0)
        with pytest.raises(SanitizerError) as excinfo:
            feed([first, second])
        err = excinfo.value
        assert err.check == "overlap"
        assert err.events == (first, second)
        assert "core 0" in str(err) and "task" in str(err)

    def test_time_regression_raises(self):
        first = ev(ARRIVAL, 10.0, core=2)
        second = ev(ARRIVAL, 5.0, core=2)
        with pytest.raises(SanitizerError) as excinfo:
            feed([first, second])
        err = excinfo.value
        assert err.check == "monotone"
        assert err.events == (first, second)
        assert "regressed" in str(err)

    def test_dangling_migration_planned_raises(self):
        planned = ev(MIGRATION_PLANNED, 1.0, core=0, shipped=2, batches=[7])
        with pytest.raises(SanitizerError) as excinfo:
            feed([planned])
        err = excinfo.value
        assert err.check == "conservation"
        assert err.events == (planned,)
        assert "never closed" in str(err)

    def test_returned_without_planned_raises(self):
        with pytest.raises(SanitizerError) as excinfo:
            feed([ev(MIGRATION_RETURNED, 5.0, core=0, batch=3)])
        assert excinfo.value.check == "conservation"

    def test_executed_twice_raises(self):
        events = [
            ev(MIGRATION_PLANNED, 0.0, core=0, batches=[1]),
            ev(MIGRATION_EXECUTED, 1.0, core=1, dur=2.0, batch=1),
            ev(MIGRATION_EXECUTED, 4.0, core=1, dur=2.0, batch=1),
        ]
        with pytest.raises(SanitizerError) as excinfo:
            feed(events)
        assert excinfo.value.check == "conservation"
        assert "twice" in str(excinfo.value)

    def test_negative_gap_raises(self):
        with pytest.raises(SanitizerError) as excinfo:
            feed([ev(GAP, 10.0, core=0, dur=-2.0)])
        err = excinfo.value
        assert err.check == "nonnegative"
        assert "gap" in str(err)

    def test_subtask_outside_batch_raises(self):
        with pytest.raises(SanitizerError) as excinfo:
            feed([ev(SUBTASK, 3.0, core=1, dur=1.0)])
        assert excinfo.value.check == "nesting"

    def test_subtask_escaping_batch_raises(self):
        events = [
            ev(MIGRATION_PLANNED, 0.0, core=0, batches=[1]),
            ev(MIGRATION_EXECUTED, 1.0, core=1, dur=4.0, batch=1),
            ev(SUBTASK, 4.0, core=1, dur=3.0),
        ]
        with pytest.raises(SanitizerError) as excinfo:
            feed(events)
        assert excinfo.value.check == "nesting"
        assert "escapes" in str(excinfo.value)

    def test_verdict_before_span_end_raises(self):
        events = [
            ev(TASK, 0.0, core=0, dur=100.0),
            ev(DEADLINE, 50.0, core=0, missed=False),
        ]
        with pytest.raises(SanitizerError) as excinfo:
            feed(events)
        assert excinfo.value.check == "verdict"

    @pytest.mark.parametrize("scheduler", ["", "pran", "cloudiq"])
    def test_unknown_kind_raises_in_every_profile(self, scheduler):
        event = ev("deadlnie", 1.0, core=0, missed=True)
        with pytest.raises(SanitizerError) as excinfo:
            feed([event], scheduler)
        err = excinfo.value
        assert err.check == "vocabulary"
        assert err.events == (event,)
        assert "'deadlnie'" in str(err)

    def test_unknown_args_key_raises(self):
        event = ev(DEADLINE, 1.0, core=0, mised=True)
        with pytest.raises(SanitizerError) as excinfo:
            feed([event])
        assert excinfo.value.check == "vocabulary"
        assert "['mised']" in str(excinfo.value)

    def test_vocabulary_runs_with_no_selected_checks(self):
        sanitizer = TraceSanitizer(frozenset())
        with pytest.raises(SanitizerError, match="vocabulary"):
            sanitizer.observe(ev(TASK, 0.0, core=0, dur=1.0, cache_pnlty_us=2.0))
        assert "vocabulary" not in ALL_CHECKS


class TestCleanStreams:
    def test_well_formed_migration_lifecycle_passes(self):
        events = [
            ev(ARRIVAL, 0.0, core=0),
            ev(TASK, 0.0, core=0, dur=10.0),
            ev(MIGRATION_PLANNED, 10.0, core=0, shipped=2, batches=[1]),
            ev(MIGRATION_EXECUTED, 11.0, core=1, dur=5.0, batch=1),
            ev(SUBTASK, 11.5, core=1, dur=2.0),
            ev(SUBTASK, 13.5, core=1, dur=2.0),
            ev(MIGRATION_RETURNED, 17.0, core=0, batch=1),
            ev(DEADLINE, 17.0, core=0, missed=False),
            ev(GAP, 17.0, core=0, dur=983.0),
        ]
        sanitizer = feed(events)
        assert sanitizer.events_checked == len(events)
        assert sanitizer.batches_closed == 1

    def test_back_to_back_spans_pass(self):
        events = [
            ev(TASK, 0.0, core=0, dur=10.0),
            ev(TASK, 10.0, core=0, dur=10.0),
        ]
        assert feed(events).events_checked == 2

    def test_returned_out_of_order_is_exempt(self):
        events = [
            ev(MIGRATION_PLANNED, 0.0, core=0, batches=[1, 2]),
            ev(MIGRATION_EXECUTED, 1.0, core=1, dur=5.0, batch=1),
            ev(MIGRATION_EXECUTED, 1.0, core=2, dur=2.0, batch=2),
            ev(MIGRATION_RETURNED, 8.0, core=0, batch=1),
            ev(MIGRATION_RETURNED, 4.0, core=0, batch=2),
        ]
        assert feed(events).batches_closed == 2


class TestSchedulerProfiles:
    def test_main_schedulers_get_all_checks(self):
        for name in ("partitioned", "global", "rt-opex"):
            checks, unordered = checks_for_scheduler(name)
            assert checks == ALL_CHECKS
            assert unordered == frozenset()

    def test_pran_relaxes_verdicts(self):
        checks, unordered = checks_for_scheduler("pran")
        assert "verdict" not in checks
        assert DEADLINE in unordered

    def test_cloudiq_relaxes_arrivals_and_verdicts(self):
        checks, unordered = checks_for_scheduler("cloudiq")
        assert "verdict" not in checks
        assert ARRIVAL in unordered and DEADLINE in unordered

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            TraceSanitizer(frozenset({"bogus"}))


class TestEnvGate:
    def test_default_off(self):
        assert not sanitize_enabled({})

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", "anything"])
    def test_truthy_values(self, value):
        assert sanitize_enabled({"RTOPEX_SANITIZE": value})

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off", " 0 "])
    def test_falsy_values(self, value):
        assert not sanitize_enabled({"RTOPEX_SANITIZE": value})


class TestSanitizingTrace:
    def test_validates_without_buffering(self):
        trace = SanitizingTrace("run", scheduler="rt-opex")
        trace.task(0, "fft", 0.0, 10.0)
        trace.task(0, "demod", 10.0, 20.0)
        assert len(trace) == 0  # nothing buffered
        trace.finish()
        assert trace.report()["events_checked"] == 2

    def test_raises_at_emit_time(self):
        trace = SanitizingTrace("run", scheduler="rt-opex")
        trace.task(0, "fft", 0.0, 10.0)
        with pytest.raises(SanitizerError):
            trace.task(0, "demod", 5.0, 20.0)


class _RecordingSink:
    def __init__(self):
        self.begun = []
        self.events = []
        self.closed = False

    def begin_run(self, run):
        self.begun.append(run.label)

    def event(self, run, event):
        self.events.append(event)

    def close(self):
        self.closed = True


class TestSanitizingSink:
    def test_forwards_to_inner_sink(self):
        inner = _RecordingSink()
        sink = SanitizingSink(inner)
        run = RunTrace("r1", scheduler="partitioned", sink=sink)
        sink.begin_run(run)
        run.task(0, "fft", 0.0, 5.0)
        sink.close()
        assert inner.begun == ["r1"]
        assert len(inner.events) == 1
        assert inner.closed
        assert sink.summary() == {
            "runs": 1, "events_checked": 1, "batches_closed": 0,
        }

    def test_close_detects_dangling_batches_and_still_closes_inner(self):
        inner = _RecordingSink()
        sink = SanitizingSink(inner)
        run = RunTrace("r1", scheduler="rt-opex", sink=sink)
        sink.begin_run(run)
        run.migration_planned(0.0, 0, "decode", 2, targets=[1], batches=[9])
        with pytest.raises(SanitizerError):
            sink.close()
        assert inner.closed

    def test_per_run_profiles(self):
        sink = SanitizingSink()
        strict = RunTrace("a", scheduler="rt-opex", sink=sink)
        relaxed = RunTrace("b", scheduler="pran", sink=sink)
        sink.begin_run(strict)
        sink.begin_run(relaxed)
        # Out-of-order deadline verdicts: fine for pran, fatal for rt-opex.
        relaxed.deadline(10.0, 0, missed=False)
        relaxed.deadline(5.0, 0, missed=False)
        strict.deadline(10.0, 0, missed=False)
        with pytest.raises(SanitizerError):
            strict.deadline(5.0, 0, missed=False)


class TestRealSchedulerRuns:
    def test_clean_rtopex_run_at_scale_02_passes(self):
        from repro.experiments.base import scaled_subframes

        config = CRanConfig(transport_latency_us=500.0)
        jobs = build_workload(config, scaled_subframes(0.2), seed=2016)
        result = run_scheduler("rt-opex", config, jobs, seed=2016, sanitize=True)
        report = result.sanitizer_report
        assert report is not None
        assert report["events_checked"] > 0
        assert report["batches_closed"] > 0  # migrations actually validated

    @pytest.mark.parametrize(
        "name", ["partitioned", "global", "pran", "cloudiq"]
    )
    def test_all_baselines_pass_sanitized(self, name, small_config, small_workload):
        result = run_scheduler(
            name, small_config, small_workload, seed=99, sanitize=True
        )
        assert result.sanitizer_report is not None
        assert result.sanitizer_report["events_checked"] > 0

    def test_sanitized_results_identical_to_unsanitized(
        self, small_config, small_workload
    ):
        plain = run_scheduler(
            "rt-opex", small_config, small_workload, seed=99, sanitize=False
        )
        checked = run_scheduler(
            "rt-opex", small_config, small_workload, seed=99, sanitize=True
        )
        assert plain.miss_count() == checked.miss_count()
        assert plain.core_busy_us == checked.core_busy_us
        assert plain.sanitizer_report is None

    def test_env_var_enables_sanitizer(
        self, small_config, small_workload, monkeypatch
    ):
        monkeypatch.setenv("RTOPEX_SANITIZE", "1")
        result = run_scheduler("rt-opex", small_config, small_workload, seed=99)
        assert result.sanitizer_report is not None

    def test_env_var_off_leaves_runs_unsanitized(
        self, small_config, small_workload, monkeypatch
    ):
        monkeypatch.setenv("RTOPEX_SANITIZE", "0")
        result = run_scheduler("rt-opex", small_config, small_workload, seed=99)
        assert result.sanitizer_report is None

    def test_sanitizer_composes_with_capture_trace(
        self, small_config, small_workload
    ):
        result = run_scheduler(
            "rt-opex", small_config, small_workload, seed=99,
            sanitize=True, capture_trace=True,
        )
        assert result.sanitizer_report is not None
        assert result.trace_run is not None
        assert result.sanitizer_report["events_checked"] == len(result.trace_run)
