"""Tests for the whole-program flow analysis (repro.check analyze)."""

import json
from pathlib import Path

import pytest

from repro.check.analyze import analyze_modules, analyze_paths, report_json
from repro.check.cli import main
from repro.check.parse import parse_source
from repro.check.rules import ANALYZE_RULE_IDS

TESTS_DIR = Path(__file__).resolve().parent
FIXTURES = TESTS_DIR / "fixtures" / "analyze"
REPO_SRC = TESTS_DIR.parents[1] / "src" / "repro"

#: fixture file -> exact (line, col, rule_id) findings it must produce.
FIXTURE_FINDINGS = {
    "rtx008_shared_state.py": [
        (22, 4, "RTX008"),
        (23, 4, "RTX008"),
        (24, 4, "RTX008"),
    ],
    "rtx009_unit_flow.py": [(24, 18, "RTX009"), (25, 4, "RTX009")],
}


def analyze_fixture(name, **kwargs):
    return analyze_paths([FIXTURES / name], **kwargs)


def analyze_source(source, path="src/repro/snippet.py", **kwargs):
    return analyze_modules([parse_source(source, path=path)], **kwargs)


class TestFixtureFiles:
    @pytest.mark.parametrize("name", sorted(FIXTURE_FINDINGS))
    def test_fixture_fires_exactly_its_rule(self, name):
        findings = analyze_fixture(name)
        got = [(f.line, f.col, f.rule.rule_id) for f in findings]
        assert got == FIXTURE_FINDINGS[name]

    def test_every_analyze_rule_has_a_fixture(self):
        covered = {
            rule_id
            for locs in FIXTURE_FINDINGS.values()
            for (_, _, rule_id) in locs
        }
        assert covered == set(ANALYZE_RULE_IDS)

    def test_fixture_list_matches_directory(self):
        on_disk = {p.name for p in FIXTURES.glob("*.py")}
        assert on_disk == set(FIXTURE_FINDINGS)

    def test_messages_name_the_offending_symbols(self):
        messages = [f.message for f in analyze_fixture("rtx008_shared_state.py")]
        assert any("_RESULTS" in m for m in messages)
        assert any("_SEEN" in m for m in messages)
        assert any("_DEFAULTS" in m for m in messages)


class TestTreeClean:
    """The real tree must analyze clean — fixing findings is part of the
    contract, so a new finding here is a regression, not noise."""

    def test_src_tree_has_no_findings(self):
        assert analyze_paths([REPO_SRC]) == []


class TestRuleFiltering:
    def test_select_limits_to_one_rule(self):
        findings = analyze_fixture("rtx008_shared_state.py", select={"RTX009"})
        assert findings == []

    def test_ignore_drops_a_rule(self):
        findings = analyze_fixture("rtx008_shared_state.py", ignore={"RTX008"})
        assert findings == []

    def test_select_keeps_the_selected_rule(self):
        findings = analyze_fixture("rtx008_shared_state.py", select={"RTX008"})
        assert len(findings) == 3


WAIVED_SHARED_STATE = '''\
_CACHE = {}


def _worker(unit):
    _CACHE[unit] = 1  # repro-check: allow RTX008
    return unit


def run(pool, units):
    return [pool.submit(_worker, u) for u in units]
'''


class TestWaivers:
    def test_inline_allow_suppresses_analyze_findings(self):
        assert analyze_source(WAIVED_SHARED_STATE) == []

    def test_without_waiver_the_same_code_is_flagged(self):
        source = WAIVED_SHARED_STATE.replace("  # repro-check: allow RTX008", "")
        findings = analyze_source(source)
        assert [f.rule.rule_id for f in findings] == ["RTX008"]


class TestUnitFlowPass:
    def test_comparison_mixing(self):
        findings = analyze_source(
            "def late(elapsed_ms, budget_us):\n"
            "    return elapsed_ms > budget_us\n"
        )
        assert [f.rule.rule_id for f in findings] == ["RTX009"]
        assert "comparison mixes" in findings[0].message

    def test_call_boundary_argument_mismatch(self):
        findings = analyze_source(
            "def wait(timeout_us):\n"
            "    return timeout_us\n"
            "\n"
            "\n"
            "def go(delay_ms):\n"
            "    return wait(delay_ms)\n"
        )
        assert [f.rule.rule_id for f in findings] == ["RTX009"]
        assert "`timeout_us`" in findings[0].message

    def test_known_wall_clock_calls_return_seconds(self):
        findings = analyze_source(
            "import time\n"
            "\n"
            "\n"
            "def measure():\n"
            "    start = time.perf_counter()\n"
            "    elapsed_us = time.perf_counter() - start\n"
            "    return elapsed_us\n"
        )
        assert [f.rule.rule_id for f in findings] == ["RTX009"]
        assert "seconds" in findings[0].message

    def test_explicit_conversion_is_silent(self):
        assert analyze_source(
            "def convert(delay_ms):\n"
            "    delay_us = delay_ms * 1000.0\n"
            "    back_ms = delay_us * 0.001\n"
            "    return delay_us + 1.0, back_ms\n"
        ) == []

    def test_min_max_mixing(self):
        findings = analyze_source(
            "def clamp(slack_us, budget_ms):\n"
            "    return min(slack_us, budget_ms)\n"
        )
        assert [f.rule.rule_id for f in findings] == ["RTX009"]
        assert "min() mixes" in findings[0].message

    def test_inferred_return_unit_crosses_modules(self):
        helper = parse_source(
            "SUBFRAME_US = 1000.0\n"
            "\n"
            "\n"
            "def air_time(num):\n"
            "    return num * SUBFRAME_US\n",
            path="src/repro/lte/timing.py",
        )
        # air_time has no suffix: its µs return is *inferred*, and the
        # mismatch only exists across the module boundary.
        user = parse_source(
            "from repro.lte.timing import air_time\n"
            "\n"
            "\n"
            "def window(num):\n"
            "    span_ms = air_time(num)\n"
            "    return span_ms\n",
            path="src/repro/sched/windows.py",
        )
        findings = analyze_modules([helper, user])
        assert [f.rule.rule_id for f in findings] == ["RTX009"]
        assert "`span_ms`" in findings[0].message


class TestReportJson:
    def test_report_json_shape(self):
        findings = analyze_fixture("rtx008_shared_state.py")
        report = report_json(findings)
        assert report["tool"] == "repro.check analyze"
        assert report["counts"] == {"RTX008": 3}
        assert len(report["findings"]) == 3
        assert set(report) == {"version", "tool", "findings", "counts"}
        first = report["findings"][0]
        assert set(first) == {"path", "line", "col", "rule", "name", "message"}


class TestCli:
    def test_fixture_exits_nonzero(self, capsys):
        code = main(
            ["analyze", str(FIXTURES / "rtx009_unit_flow.py")]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "RTX009" in out

    def test_tree_exits_zero(self, capsys):
        assert main(["analyze", str(REPO_SRC)]) == 0
        assert capsys.readouterr().out == ""

    def test_json_format_is_parseable(self, capsys):
        code = main(
            [
                "analyze", "--format", "json",
                str(FIXTURES / "rtx009_unit_flow.py"),
            ]
        )
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["counts"] == {"RTX009": 2}

    def test_select_filters_on_analyze(self, capsys):
        code = main(
            [
                "analyze", "--select", "RTX009",
                str(FIXTURES / "rtx008_shared_state.py"),
            ]
        )
        assert code == 0

    def test_unknown_rule_id_is_a_usage_error(self, capsys):
        code = main(["analyze", "--select", "RTX999", str(FIXTURES)])
        assert code == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_missing_path_is_a_usage_error(self, capsys):
        assert main(["analyze", "no/such/path.py"]) == 2

    def test_syntax_error_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        assert main(["analyze", str(bad)]) == 2
