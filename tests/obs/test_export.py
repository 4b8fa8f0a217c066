"""Tests for the Chrome / JSONL exporters and the schema validator."""

import json

import pytest

from repro.obs.export import (
    GAP_TID_OFFSET,
    QUEUE_TID,
    JsonlTraceSink,
    read_jsonl_trace,
    write_chrome_trace,
    write_jsonl_trace,
)
from repro.obs.schema import assert_valid_chrome_trace, validate_chrome_trace
from repro.obs.trace import Tracer


def make_tracer() -> Tracer:
    tracer = Tracer()
    run = tracer.begin_run("partitioned rtt=500us", scheduler="partitioned")
    run.arrival(0.0, 1, 0, 0)
    run.task(1, "fft", 0.0, 30.0, 0, 0)
    run.gap(1, 30.0, 970.0, 0, 0)
    run.deadline(30.0, 1, False, 0, 0)
    other = tracer.begin_run("global-8 rtt=500us", scheduler="global")
    other.arrival(0.0, -1, 1, 0)
    other.task(4, "process", 12.0, 60.0, 1, 0, cache_penalty_us=5.0)
    return tracer


def chrome_document(tmp_path):
    """The Chrome document ``write_chrome_trace`` writes for make_tracer()."""
    path = tmp_path / "trace.json"
    write_chrome_trace(path, make_tracer())
    return json.loads(path.read_text())


class TestChromeExport:
    def test_document_validates(self, tmp_path):
        document = chrome_document(tmp_path)
        assert validate_chrome_trace(document) == []

    def test_one_process_per_run(self, tmp_path):
        document = chrome_document(tmp_path)
        names = [
            e for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert [(e["pid"], e["args"]["name"]) for e in names] == [
            (0, "partitioned rtt=500us"),
            (1, "global-8 rtt=500us"),
        ]
        assert document["otherData"]["runs"] == [
            "partitioned rtt=500us", "global-8 rtt=500us",
        ]

    def test_track_assignment(self, tmp_path):
        document = chrome_document(tmp_path)
        spans = {
            (e["pid"], e["cat"]): e["tid"]
            for e in document["traceEvents"] if e["ph"] != "M"
        }
        assert spans[(0, "task")] == 1
        assert spans[(0, "gap")] == GAP_TID_OFFSET + 1  # parallel gap track
        assert spans[(1, "arrival")] == QUEUE_TID  # core == -1
        thread_names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert thread_names[(0, 1)] == "core 1"
        assert thread_names[(0, GAP_TID_OFFSET + 1)] == "core 1 gaps"
        assert thread_names[(1, QUEUE_TID)] == "queue"

    def test_spans_vs_instants(self, tmp_path):
        document = chrome_document(tmp_path)
        by_cat = {}
        for e in document["traceEvents"]:
            if e["ph"] != "M":
                by_cat.setdefault(e["cat"], e)
        assert by_cat["task"]["ph"] == "X"
        assert by_cat["task"]["dur"] == 30.0
        assert by_cat["arrival"]["ph"] == "i"
        assert by_cat["arrival"]["s"] == "t"
        assert by_cat["deadline"]["ph"] == "i"

    def test_bs_sf_land_in_args(self, tmp_path):
        document = chrome_document(tmp_path)
        task = next(
            e for e in document["traceEvents"]
            if e.get("cat") == "task" and e["pid"] == 1
        )
        assert task["args"] == {"bs": 1, "sf": 0, "cache_penalty_us": 5.0}

    def test_serialization_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_chrome_trace(a, make_tracer())
        write_chrome_trace(b, make_tracer())
        assert a.read_bytes() == b.read_bytes()

    def test_write_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, make_tracer())
        document = json.loads(path.read_text())
        assert_valid_chrome_trace(document)


class TestJsonlExport:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        source = make_tracer()
        write_jsonl_trace(path, source)
        restored = read_jsonl_trace(path)
        assert [r.label for r in restored.runs] == [r.label for r in source.runs]
        for a, b in zip(restored.runs, source.runs):
            assert a.scheduler == b.scheduler
            assert a.meta == b.meta
            assert a.events == b.events

    def test_interleaved_runs_keep_their_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path)
        source = Tracer(sink=sink)
        a = source.begin_run("a", scheduler="partitioned")
        b = source.begin_run("b", scheduler="global")
        a.task(0, "fft", 0.0, 10.0, 0, 0)
        b.task(1, "process", 0.0, 20.0, 1, 0, cache_penalty_us=2.0)
        a.deadline(10.0, 0, False, 0, 0)
        b.deadline(20.0, 1, True, 1, 0)
        sink.close()
        restored = read_jsonl_trace(path)
        assert [[e.core for e in run.events] for run in restored.runs] == [
            [0, 0], [1, 1],
        ]
        assert restored.runs[1].events[0].args == {"cache_penalty_us": 2.0}

    def test_sink_streams_without_buffering(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl_trace(path, make_tracer())
        copy = tmp_path / "copy.jsonl"
        sink = JsonlTraceSink(copy)
        restored = read_jsonl_trace(path, sink=sink)
        sink.close()
        assert [len(run.events) for run in restored.runs] == [0, 0]
        assert restored.num_events() == 6
        assert copy.read_bytes() == path.read_bytes()

    def test_malformed_lines_raise(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl_trace(path, make_tracer())
        lines = path.read_text().splitlines()
        stray = '{"type":"event","run":7,"kind":"gap","ts_us":0.0,"core":0}'
        cases = [
            ("unknown run 7", lines + [stray]),
            ("out of order", [lines[0].replace('"index":0', '"index":1')]),
            ("unknown line type 'bogus'", ['{"type":"bogus"}']),
            ("unknown line type None", ["[1, 2]"]),
        ]
        for match, body in cases:
            path.write_text("\n".join(body) + "\n")
            with pytest.raises(ValueError, match=match):
                read_jsonl_trace(path)

    def test_line_structure(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl_trace(path, make_tracer())
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["type"] == "run" and lines[0]["index"] == 0
        assert all(l["type"] in ("run", "event") for l in lines)
        assert sum(1 for l in lines if l["type"] == "run") == 2
        # Events reference the run header they follow.
        current = -1
        for l in lines:
            if l["type"] == "run":
                current = l["index"]
            else:
                assert l["run"] == current


class TestSchemaValidator:
    def test_accepts_minimal_document(self):
        assert validate_chrome_trace({"traceEvents": []}) == []

    def test_rejects_non_object(self):
        assert validate_chrome_trace([1, 2]) != []

    def test_rejects_missing_trace_events(self):
        assert validate_chrome_trace({}) == ["traceEvents missing or not an array"]

    def test_rejects_bad_phase(self):
        errors = validate_chrome_trace(
            {"traceEvents": [{"name": "x", "ph": "Z", "pid": 0, "tid": 0}]}
        )
        assert any("phase" in e for e in errors)

    def test_rejects_negative_duration(self):
        event = {
            "name": "x", "ph": "X", "cat": "task",
            "ts": 1.0, "dur": -5.0, "pid": 0, "tid": 0,
        }
        errors = validate_chrome_trace({"traceEvents": [event]})
        assert any("dur" in e for e in errors)

    def test_rejects_unknown_category(self):
        event = {
            "name": "x", "ph": "i", "cat": "bogus",
            "ts": 1.0, "s": "t", "pid": 0, "tid": 0,
        }
        errors = validate_chrome_trace({"traceEvents": [event]})
        assert any("category" in e for e in errors)

    def test_rejects_bool_pid(self):
        event = {"name": "x", "ph": "M", "pid": True, "tid": 0}
        errors = validate_chrome_trace({"traceEvents": [event]})
        assert any("pid" in e for e in errors)

    def test_assert_raises_with_preview(self):
        import pytest

        with pytest.raises(ValueError, match="invalid Chrome trace"):
            assert_valid_chrome_trace({"traceEvents": [{}]})
