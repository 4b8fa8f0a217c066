"""Tests for ``python -m repro.check replay`` — offline trace validation."""

import subprocess
import sys

import pytest

from repro.check.cli import main
from repro.obs.export import write_jsonl_trace
from repro.obs.trace import Tracer, tracing
from repro.sched import run_scheduler


@pytest.fixture(scope="module")
def real_trace(tmp_path_factory, small_config, small_workload):
    """A genuine two-scheduler trace streamed to JSONL."""
    tracer = Tracer()
    with tracing(tracer):
        for name in ("rt-opex", "partitioned"):
            run_scheduler(name, small_config, small_workload, seed=99)
    path = tmp_path_factory.mktemp("replay") / "trace.jsonl"
    write_jsonl_trace(path, tracer)
    return path


class TestReplay:
    def test_real_trace_validates(self, real_trace, capsys):
        assert main(["replay", str(real_trace)]) == 0
        out = capsys.readouterr().out
        assert "replay ok" in out
        assert "2 run(s)" in out

    def test_counts_cover_every_event_line(self, real_trace, capsys):
        event_lines = sum(
            1 for line in real_trace.read_text().splitlines()
            if '"type":"event"' in line
        )
        assert event_lines > 0
        assert main(["replay", str(real_trace)]) == 0
        assert f"{event_lines} event(s) checked" in capsys.readouterr().out

    def test_corrupted_trace_exits_one(self, real_trace, tmp_path, capsys):
        lines = real_trace.read_text().splitlines()
        # Duplicate a busy task span: the copy starts before the original
        # ends, which the overlap check must catch.
        span = next(
            i for i, line in enumerate(lines)
            if '"kind":"task"' in line and '"dur_us"' in line
        )
        lines.insert(span + 1, lines[span])
        bad = tmp_path / "corrupt.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["replay", str(bad)]) == 1
        assert "sanitizer check" in capsys.readouterr().err

    def test_misspelled_kind_and_args_key_exit_one(self, tmp_path, capsys):
        header = '{"index":0,"label":"r","meta":{},"scheduler":"rt-opex","type":"run"}'
        for event in (
            '{"core":0,"kind":"deadlnie","run":0,"ts_us":1.0,"type":"event"}',
            '{"args":{"mised":true},"core":0,"kind":"deadline","run":0,'
            '"ts_us":1.0,"type":"event"}',
        ):
            bad = tmp_path / "typo.jsonl"
            bad.write_text(header + "\n" + event + "\n")
            assert main(["replay", str(bad)]) == 1
            assert "sanitizer check 'vocabulary'" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["replay", "no/such/trace.jsonl"]) == 2
        assert "no such trace" in capsys.readouterr().err

    def test_event_before_header_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "headless.jsonl"
        bad.write_text('{"type":"event","run":0,"kind":"task","ts_us":0.0,"core":0}\n')
        assert main(["replay", str(bad)]) == 2
        assert "malformed trace" in capsys.readouterr().err

    def test_unparseable_line_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "garbage.jsonl"
        bad.write_text("not json\n")
        assert main(["replay", str(bad)]) == 2

    def test_allow_partial_forgives_truncated_tail(self, real_trace, tmp_path):
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text(real_trace.read_text() + '{"type":"event","run":0,')
        assert main(["replay", str(truncated)]) == 2
        assert main(["replay", "--allow-partial", str(truncated)]) == 0

    def test_module_entry_point(self, real_trace):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.check", "replay", str(real_trace)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "replay ok" in proc.stdout
