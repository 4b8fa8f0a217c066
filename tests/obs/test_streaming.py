"""Streaming-export guarantees: bounded memory, kill-safety, identity.

Three properties the streaming trace pipeline promises:

* **O(1) exporter memory** — with a sink attached nothing is buffered,
  even for a 10^5-event run (the property that makes paper-scale runs
  traceable);
* **kill-safety** — a writer killed mid-run (SIGKILL, no cleanup)
  leaves a valid, schema-checkable JSONL prefix behind;
* **stream == replay byte-identity** — the same events streamed live
  and buffered-then-replayed produce identical files, in both formats.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs.events import resolve_kinds
from repro.obs.export import (
    ChromeTraceSink,
    JsonlTraceSink,
    iter_jsonl_lines,
    read_jsonl_trace,
    write_chrome_trace,
    write_jsonl_trace,
)
from repro.obs.schema import validate_jsonl_trace
from repro.obs.trace import Tracer
from repro.sched import CRanConfig, build_workload, run_scheduler

NUM_SYNTHETIC_EVENTS = 100_000


def _emit_synthetic(tracer: Tracer, count: int) -> None:
    """A deterministic mixed-kind event stream over two sequential runs
    (sequential like real scheduler runs, so stream order == replay
    order)."""
    for label in ("synthetic A", "synthetic B"):
        run = tracer.begin_run(label, scheduler="synthetic")
        for i in range(count // 2):
            kind = i % 4
            ts = float(i)
            if kind == 0:
                run.task(i % 8, "decode", ts, ts + 1.5, bs_id=i % 4, sf_index=i)
            elif kind == 1:
                run.gap(i % 8, ts, 2.0)
            elif kind == 2:
                run.arrival(ts, i % 8, i % 4, i)
            else:
                run.deadline(
                    ts, i % 8, missed=(i % 10 == 0), bs_id=i % 4, sf_index=i
                )


class TestBoundedMemory:
    @pytest.mark.parametrize("sink_cls,name", [
        (JsonlTraceSink, "t.jsonl"), (ChromeTraceSink, "t.json"),
    ])
    def test_streaming_buffers_nothing(self, tmp_path, sink_cls, name):
        sink = sink_cls(tmp_path / name)
        tracer = Tracer(sink=sink)
        _emit_synthetic(tracer, NUM_SYNTHETIC_EVENTS)
        # The O(1)-memory contract: every run's buffer stays empty no
        # matter how many events passed through, and the counters (the
        # only per-event state) are exact.
        peak_buffered = max(len(run.events) for run in tracer.runs)
        assert peak_buffered == 0
        assert tracer.num_events() == NUM_SYNTHETIC_EVENTS
        sink.close()
        assert (tmp_path / name).stat().st_size > 0

    def test_jsonl_streams_every_event(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlTraceSink(path)
        tracer = Tracer(sink=sink)
        _emit_synthetic(tracer, NUM_SYNTHETIC_EVENTS)
        sink.close()
        lines = list(iter_jsonl_lines(path))
        assert len(lines) == NUM_SYNTHETIC_EVENTS + 2  # + 2 run headers
        assert validate_jsonl_trace(lines) == []

    def test_kind_filter_applies_at_emit_time(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlTraceSink(path)
        tracer = Tracer(kinds=resolve_kinds("gap,deadline"), sink=sink)
        _emit_synthetic(tracer, 1000)
        sink.close()
        kinds = {
            line["kind"]
            for line in iter_jsonl_lines(path)
            if line["type"] == "event"
        }
        assert kinds == {"gap", "deadline"}
        assert tracer.num_events() == 500  # half the synthetic stream


class TestStreamEqualsReplay:
    def _buffered(self) -> Tracer:
        tracer = Tracer()
        _emit_synthetic(tracer, 2000)
        return tracer

    def test_jsonl_byte_identity(self, tmp_path):
        streamed_path = tmp_path / "streamed.jsonl"
        sink = JsonlTraceSink(streamed_path)
        _emit_synthetic(Tracer(sink=sink), 2000)
        sink.close()
        replayed_path = tmp_path / "replayed.jsonl"
        write_jsonl_trace(replayed_path, self._buffered())
        assert streamed_path.read_bytes() == replayed_path.read_bytes()

    def test_chrome_byte_identity(self, tmp_path):
        streamed_path = tmp_path / "streamed.json"
        sink = ChromeTraceSink(streamed_path)
        _emit_synthetic(Tracer(sink=sink), 2000)
        sink.close()
        replayed_path = tmp_path / "replayed.json"
        write_chrome_trace(replayed_path, self._buffered())
        assert streamed_path.read_bytes() == replayed_path.read_bytes()

    def test_scheduler_run_streams_identically(self, tmp_path):
        """A real scheduler run streamed live == buffered then replayed."""
        config = CRanConfig(transport_latency_us=500.0)
        jobs = build_workload(config, 100, seed=7)

        streamed_path = tmp_path / "live.jsonl"
        sink = JsonlTraceSink(streamed_path)
        from repro.obs.trace import tracing

        with tracing(Tracer(sink=sink)):
            run_scheduler("rt-opex", config, jobs, seed=7)
        sink.close()

        buffered = Tracer()
        with tracing(buffered):
            run_scheduler("rt-opex", config, jobs, seed=7)
        replayed_path = tmp_path / "replayed.jsonl"
        write_jsonl_trace(replayed_path, buffered)

        assert streamed_path.read_bytes() == replayed_path.read_bytes()


_KILL_SCRIPT = """
import sys
from repro.obs.trace import Tracer
from repro.obs.export import JsonlTraceSink

sink = JsonlTraceSink(sys.argv[1])
tracer = Tracer(sink=sink)
run = tracer.begin_run("kill victim", scheduler="synthetic")
i = 0
while True:  # no close(), no flush: only SIGKILL ends this
    run.gap(i % 4, float(i), 1.0, bs_id=i % 2, sf_index=i)
    i += 1
"""


class TestKillMidRun:
    def test_killed_writer_leaves_loadable_prefix(self, tmp_path):
        path = tmp_path / "killed.jsonl"
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILL_SCRIPT, str(path)], env=env
        )
        try:
            deadline = time.monotonic() + 30.0
            # Wait until more complete lines are on disk than the
            # assertion below needs; a size threshold could be hit with
            # fewer lines than that, leaving the result to timing.
            while time.monotonic() < deadline:
                if path.exists() and path.read_bytes().count(b"\n") > 1001:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("writer produced no output to kill")
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()

        lines = list(iter_jsonl_lines(path, allow_partial=True))
        # A meaningful prefix survived, every surviving line is schema
        # valid, and the stream reloads into a Tracer.
        assert len(lines) > 1000
        assert validate_jsonl_trace(lines) == []
        tracer = read_jsonl_trace(path, allow_partial=True)
        assert tracer.num_events() == len(lines) - 1  # minus the header
