"""Tests for the trace event vocabulary and collection layer."""

import inspect

import pytest

from repro.obs.events import (
    ARRIVAL,
    BUSY_KINDS,
    DEADLINE,
    EVENT_ARG_FIELDS,
    EVENT_KINDS,
    GAP,
    MIGRATION_EXECUTED,
    MIGRATION_PLANNED,
    MIGRATION_RETURNED,
    SPAN_KINDS,
    SUBTASK,
    TASK,
    TraceEvent,
)
from repro.obs.trace import RunTrace, Tracer, get_tracer, set_tracer, tracing


class TestTraceEvent:
    def test_end_us(self):
        event = TraceEvent(TASK, 10.0, 0, dur_us=5.0)
        assert event.end_us == 15.0

    def test_dict_round_trip(self):
        event = TraceEvent(
            MIGRATION_EXECUTED, 123.5, 3, name="decode", dur_us=40.25,
            bs_id=1, sf_index=17, args={"owner": 2, "shipped": 3, "completed": 2},
        )
        assert TraceEvent.from_dict(event.to_dict()) == event

    def test_to_dict_omits_defaults(self):
        event = TraceEvent(ARRIVAL, 1.0, -1)
        payload = event.to_dict()
        assert payload == {"kind": ARRIVAL, "ts_us": 1.0, "core": -1}

    def test_kind_sets_consistent(self):
        assert set(BUSY_KINDS) <= set(SPAN_KINDS) <= set(EVENT_KINDS)
        assert SUBTASK in SPAN_KINDS and SUBTASK not in BUSY_KINDS


class TestRunTrace:
    def test_task_span(self):
        run = RunTrace("r")
        run.task(2, "fft", 10.0, 25.0, 1, 4)
        (event,) = run.events
        assert event.kind == TASK
        assert (event.core, event.name, event.ts_us, event.dur_us) == (2, "fft", 10.0, 15.0)
        assert (event.bs_id, event.sf_index) == (1, 4)
        assert event.args == {}  # optional args left out stay out

    def test_empty_spans_skipped(self):
        run = RunTrace("r")
        run.task(0, "fft", 10.0, 10.0)
        run.subtask(0, "decode[0]", 5.0, 4.0)
        run.gap(0, 10.0, 0.0)
        assert run.events == []

    def test_deadline_verdict(self):
        run = RunTrace("r")
        run.deadline(100.0, 1, False, 0, 0)
        run.deadline(200.0, 1, True, 0, 1, drop_stage="decode")
        hit, miss = run.events
        assert (hit.name, hit.args["missed"]) == ("hit", False)
        assert (miss.name, miss.args["missed"]) == ("miss", True)
        assert miss.args["drop_stage"] == "decode"
        assert "drop_stage" not in hit.args

    def test_gap_usable_flag(self):
        run = RunTrace("r")
        run.gap(3, 50.0, 100.0, usable=False)
        assert run.events[0].kind == GAP
        assert run.events[0].args == {"usable": False}

    def test_payload_round_trip(self):
        source = Tracer()
        run = source.begin_run("label", scheduler="rt-opex", meta={"rtt_us": 500.0})
        run.arrival(1.0, 2, 0, 0)
        run.migration_planned(3.0, 2, "fft", 2, [4, 5], 0, 0)
        run.migration_executed(4, "fft", 5.0, 30.0, owner_core=2, shipped=2, completed=2)
        run.migration_returned(31.0, 2, "fft", completed=2, recovered=0)
        run.meta["sim"] = {"events": 4}  # end-of-run metadata
        restored = Tracer()
        restored.ingest_payload(source.payload())
        (copy,) = restored.runs
        assert copy.label == run.label
        assert copy.scheduler == run.scheduler
        assert copy.meta == run.meta
        assert copy.begin_meta == run.begin_meta == {"rtt_us": 500.0}
        assert copy.events == run.events


#: Every emitter's optional arguments, set; keyed by the kind the
#: emitter is named after.
EMITTER_CALLS = {
    ARRIVAL: dict(ts_us=1.0, core=0, bs_id=0, sf_index=0),
    TASK: dict(
        core=0, name="process", start_us=1.0, end_us=2.0, bs_id=0,
        sf_index=0, cache_penalty_us=3.0,
    ),
    SUBTASK: dict(
        core=1, name="decode[0]", start_us=1.0, end_us=2.0, bs_id=0,
        sf_index=0, preempted=True,
    ),
    MIGRATION_PLANNED: dict(
        ts_us=1.0, core=0, task="decode", shipped=2, targets=[1], bs_id=0,
        sf_index=0, batches=[0],
    ),
    MIGRATION_EXECUTED: dict(
        core=1, task="decode", start_us=1.0, end_us=2.0, owner_core=0,
        shipped=2, completed=1, bs_id=0, sf_index=0, batch=0,
    ),
    MIGRATION_RETURNED: dict(
        ts_us=2.0, core=0, task="decode", completed=1, recovered=1, bs_id=0,
        sf_index=0, batch=0,
    ),
    GAP: dict(core=0, start_us=2.0, dur_us=5.0, bs_id=0, sf_index=0, usable=False),
    DEADLINE: dict(
        ts_us=2.0, core=0, missed=True, bs_id=0, sf_index=0,
        drop_stage="decode", service="urllc",
    ),
}


class TestTypedEmitters:
    def test_one_emitter_per_kind_fills_exactly_its_vocabulary(self):
        assert sorted(EMITTER_CALLS) == sorted(EVENT_KINDS)
        for kind, kwargs in EMITTER_CALLS.items():
            emitter = getattr(RunTrace, kind)
            optional = {
                name for name, param in inspect.signature(emitter).parameters.items()
                if param.default is not inspect.Parameter.empty
            }
            assert optional <= set(kwargs), (kind, optional - set(kwargs))
            run = RunTrace("r")
            getattr(run, kind)(**kwargs)
            (event,) = run.events
            assert event.kind == kind
            assert set(event.args) == EVENT_ARG_FIELDS[kind], kind


class TestTracer:
    def test_begin_run_appends(self):
        tracer = Tracer()
        a = tracer.begin_run("a")
        b = tracer.begin_run("b", scheduler="global")
        assert tracer.runs == [a, b]
        assert len(tracer) == 2

    def test_summary_counts_kinds_and_misses(self):
        tracer = Tracer()
        run = tracer.begin_run("r")
        run.task(0, "fft", 0.0, 10.0)
        run.deadline(10.0, 0, True, 0, 0)
        run.deadline(20.0, 0, False, 0, 1)
        summary = tracer.summary()
        assert summary["runs"] == 1
        assert summary["events"] == 3
        assert summary["deadline_misses"] == 1
        assert summary["kinds"] == {DEADLINE: 2, TASK: 1}

    def test_drain_and_ingest_round_trip(self):
        source = Tracer()
        source.begin_run("one").task(0, "fft", 0.0, 5.0)
        source.begin_run("two").arrival(1.0, -1, 0, 0)
        payload = source.drain_payload()
        assert source.runs == []  # drained
        sink = Tracer()
        sink.ingest_payload(payload)
        assert [run.label for run in sink.runs] == ["one", "two"]
        assert sink.num_events() == 2

    def test_clear(self):
        tracer = Tracer()
        tracer.begin_run("r").task(0, "fft", 0.0, 1.0)
        tracer.clear()
        assert tracer.runs == [] and tracer.num_events() == 0


class TestAmbientTracer:
    @pytest.fixture(autouse=True)
    def no_leak(self):
        yield
        set_tracer(None)

    def test_disabled_by_default(self):
        assert get_tracer() is None

    def test_tracing_context_installs_and_restores(self):
        outer = Tracer()
        inner = Tracer()
        with tracing(outer):
            assert get_tracer() is outer
            with tracing(inner):
                assert get_tracer() is inner
            assert get_tracer() is outer
        assert get_tracer() is None

    def test_tracing_restores_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracing(tracer):
                raise RuntimeError("boom")
        assert get_tracer() is None

    def test_tracing_none_disables(self):
        with tracing(Tracer()):
            with tracing(None):
                assert get_tracer() is None
