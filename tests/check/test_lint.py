"""Tests for the AST determinism lint (repro.check.lint)."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.check import (
    Finding,
    RULES,
    RULES_BY_ID,
    lint_file,
    lint_module,
    lint_paths,
    lint_source,
    parse_source,
)
from repro.check.cli import main
from repro.check.rules import LINT_RULE_IDS, explain, rule_table

FIXTURES = Path(__file__).parent / "fixtures"
REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: fixture file -> the rule id every finding in it must carry.
FIXTURE_RULES = {
    FIXTURES / "rtx001_wallclock.py": "RTX001",
    FIXTURES / "rtx002_unseeded_rng.py": "RTX002",
    FIXTURES / "repro" / "sched" / "rtx003_unordered.py": "RTX003",
    FIXTURES / "rtx004_us_mixing.py": "RTX004",
    FIXTURES / "rtx005_mutable_default.py": "RTX005",
    FIXTURES / "rtx006_env_read.py": "RTX006",
}


def rule_ids(findings):
    return [f.rule.rule_id for f in findings]


class TestWallclockRule:
    def test_time_time_flagged(self):
        findings = lint_source("import time\n\nt = time.time()\n")
        assert rule_ids(findings) == ["RTX001"]

    def test_aliased_perf_counter_flagged(self):
        src = "from time import perf_counter as pc\n\nt = pc()\n"
        assert rule_ids(lint_source(src)) == ["RTX001"]

    def test_datetime_now_flagged(self):
        src = "import datetime\n\nnow = datetime.datetime.now()\n"
        assert rule_ids(lint_source(src)) == ["RTX001"]

    def test_runtime_layer_allowlisted(self):
        src = "import time\n\nt = time.perf_counter()\n"
        findings = lint_source(
            src, path="src/repro/runtime/engine.py",
            module_parts=("src", "repro", "runtime", "engine.py"),
        )
        assert findings == []

    def test_virtual_time_not_flagged(self):
        assert lint_source("def advance(now_us):\n    return now_us + 1.0\n") == []


class TestUnseededRngRule:
    def test_stdlib_random_import_flagged(self):
        assert rule_ids(lint_source("import random\n")) == ["RTX002"]

    def test_from_random_import_flagged(self):
        assert rule_ids(lint_source("from random import shuffle\n")) == ["RTX002"]

    def test_numpy_global_state_flagged(self):
        src = "import numpy as np\n\nnp.random.seed(3)\nx = np.random.normal()\n"
        assert rule_ids(lint_source(src)) == ["RTX002", "RTX002"]

    def test_argless_default_rng_flagged(self):
        src = "import numpy as np\n\nrng = np.random.default_rng()\n"
        assert rule_ids(lint_source(src)) == ["RTX002"]

    def test_seeded_default_rng_clean(self):
        src = "import numpy as np\n\nrng = np.random.default_rng(2016)\n"
        assert lint_source(src) == []

    def test_bare_default_rng_reference_flagged(self):
        src = (
            "from dataclasses import field\n"
            "import numpy as np\n\n"
            "factory = field(default_factory=np.random.default_rng)\n"
        )
        assert rule_ids(lint_source(src)) == ["RTX002"]


SCHED_PARTS = ("src", "repro", "sched", "mod.py")


def lint_sched(src):
    return lint_source(src, path="src/repro/sched/mod.py", module_parts=SCHED_PARTS)


class TestUnorderedIterationRule:
    def test_dict_values_flagged_in_sched(self):
        src = "def f(d):\n    for v in d.values():\n        print(v)\n"
        assert rule_ids(lint_sched(src)) == ["RTX003"]

    def test_set_literal_flagged_in_sched(self):
        src = "def f():\n    for x in {1, 2, 3}:\n        print(x)\n"
        assert rule_ids(lint_sched(src)) == ["RTX003"]

    def test_comprehension_over_keys_flagged(self):
        src = "def f(d):\n    return [k for k in d.keys()]\n"
        assert rule_ids(lint_sched(src)) == ["RTX003"]

    def test_enumerate_wrapper_is_transparent(self):
        src = "def f(d):\n    for i, v in enumerate(d.values()):\n        print(i, v)\n"
        assert rule_ids(lint_sched(src)) == ["RTX003"]

    def test_sorted_iteration_clean(self):
        src = "def f(d):\n    for k in sorted(d):\n        print(d[k])\n"
        assert lint_sched(src) == []

    def test_rule_scoped_to_scheduling_modules(self):
        src = "def f(d):\n    for v in d.values():\n        print(v)\n"
        assert lint_source(src, path="src/repro/analysis/x.py") == []


class TestUsUnitRule:
    def test_int_annotation_flagged(self):
        assert rule_ids(lint_source("start_us: int = 0\n")) == ["RTX004"]

    def test_int_argument_annotation_flagged(self):
        src = "def book(start_us: int) -> None:\n    pass\n"
        assert rule_ids(lint_source(src)) == ["RTX004"]

    def test_int_literal_constant_flagged(self):
        assert rule_ids(lint_source("TTI_US = 1000\n")) == ["RTX004"]

    def test_float_constant_clean(self):
        assert lint_source("TTI_US = 1000.0\n") == []

    def test_floor_division_flagged(self):
        src = "def half(dur_us):\n    return dur_us // 2\n"
        assert rule_ids(lint_source(src)) == ["RTX004"]

    def test_float_annotation_clean(self):
        assert lint_source("start_us: float = 0.0\n") == []


class TestMutableDefaultRule:
    def test_list_default_flagged(self):
        assert rule_ids(lint_source("def f(xs=[]):\n    return xs\n")) == ["RTX005"]

    def test_dict_constructor_default_flagged(self):
        src = "def f(opts=dict()):\n    return opts\n"
        assert rule_ids(lint_source(src)) == ["RTX005"]

    def test_lambda_default_flagged(self):
        assert rule_ids(lint_source("f = lambda xs=[]: xs\n")) == ["RTX005"]

    def test_none_default_clean(self):
        assert lint_source("def f(xs=None):\n    return xs or []\n") == []

    def test_tuple_default_clean(self):
        assert lint_source("def f(xs=()):\n    return xs\n") == []


class TestEnvReadRule:
    def test_environ_get_flagged(self):
        src = "import os\n\nd = os.environ.get('REPRO_CACHE_DIR')\n"
        assert rule_ids(lint_source(src)) == ["RTX006"]

    def test_environ_subscript_flagged(self):
        src = "import os\n\nd = os.environ['REPRO_DEBUG']\n"
        assert rule_ids(lint_source(src)) == ["RTX006"]

    def test_getenv_flagged_through_alias(self):
        src = "from os import getenv as ge\n\nd = ge('REPRO_VERBOSE')\n"
        assert rule_ids(lint_source(src)) == ["RTX006"]

    def test_bare_environ_reference_flagged(self):
        src = "import os\n\nsnapshot = dict(os.environ)\n"
        assert rule_ids(lint_source(src)) == ["RTX006"]

    def test_imported_environ_subscript_flagged(self):
        src = "from os import environ\n\nd = environ['REPRO_DEBUG']\n"
        assert rule_ids(lint_source(src)) == ["RTX006"]

    def test_runtime_layer_allowlisted(self):
        src = "import os\n\nd = os.environ.get('REPRO_CACHE_DIR')\n"
        findings = lint_source(
            src, path="src/repro/runtime/cache.py",
            module_parts=("src", "repro", "runtime", "cache.py"),
        )
        assert findings == []

    def test_check_layer_allowlisted(self):
        src = "import os\n\nenv = dict(os.environ)\n"
        findings = lint_source(
            src, path="src/repro/check/sanitizer.py",
            module_parts=("src", "repro", "check", "sanitizer.py"),
        )
        assert findings == []

    def test_unrelated_environ_attribute_clean(self):
        src = "def f(cfg):\n    return cfg.environ\n"
        assert lint_source(src) == []


class TestWaivers:
    def test_inline_waiver_silences_finding(self):
        src = "import time\n\nt = time.time()  # repro-check: allow RTX001\n"
        assert lint_source(src) == []

    def test_bare_waiver_silences_all_rules_on_line(self):
        src = "import time\n\nt = time.time()  # repro-check: allow\n"
        assert lint_source(src) == []

    def test_waiver_for_other_rule_keeps_finding(self):
        src = "import time\n\nt = time.time()  # repro-check: allow RTX005\n"
        assert rule_ids(lint_source(src)) == ["RTX001"]


MIXED_SRC = "import random\nimport time\n\nt = time.time()\n"


class TestRuleFiltering:
    def test_select_keeps_only_listed_rules(self):
        module = parse_source(MIXED_SRC, path="pkg/mod.py")
        assert rule_ids(lint_module(module, select={"RTX001"})) == ["RTX001"]

    def test_ignore_drops_listed_rules(self):
        module = parse_source(MIXED_SRC, path="pkg/mod.py")
        assert rule_ids(lint_module(module, ignore={"RTX001"})) == ["RTX002"]

    def test_cli_select_and_ignore(self, tmp_path, capsys):
        target = tmp_path / "mixed.py"
        target.write_text(MIXED_SRC)
        assert main(["lint", "--select", "RTX002", str(target)]) == 1
        out = capsys.readouterr().out
        assert "RTX002" in out and "RTX001" not in out
        assert main(["lint", "--ignore", "RTX001,RTX002", str(target)]) == 0

    def test_cli_unknown_rule_id_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "mixed.py"
        target.write_text(MIXED_SRC)
        assert main(["lint", "--select", "RTX042", str(target)]) == 2
        assert "unknown rule id" in capsys.readouterr().err


class TestFindingRendering:
    def test_render_is_ruff_shaped(self):
        finding = lint_source("import random\n", path="pkg/mod.py")[0]
        assert finding.render() == (
            "pkg/mod.py:1:0 RTX002 stdlib `random` uses hidden global state; "
            "draw from repro.sim.rng.RngStreams instead"
        )

    def test_findings_sorted_by_location(self):
        src = "import random\nimport time\n\nt = time.time()\n"
        findings = lint_source(src)
        assert findings == sorted(findings, key=lambda f: f.sort_key)
        assert isinstance(findings[0], Finding)


class TestRuleTable:
    def test_all_rules_listed(self):
        table = rule_table()
        for rule in RULES:
            assert rule.rule_id in table

    def test_explain_known_rule(self):
        text = explain("rtx003")
        assert "RTX003" in text and "sorted()" in text

    def test_explain_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            explain("RTX999")

    def test_ids_unique_and_sequential(self):
        # Ids ascend without duplicates, and are sequential once the
        # retired RTX007 and RTX010 are counted: they are never reused.
        retired = ["RTX007", "RTX010"]
        ids = [rule.rule_id for rule in RULES]
        assert ids == sorted(set(ids)) == list(RULES_BY_ID)
        assert not set(retired) & set(RULES_BY_ID)
        assert sorted(ids + retired) == [
            f"RTX{i:03d}" for i in range(1, len(RULES) + len(retired) + 1)
        ]


class TestFixtureFiles:
    @pytest.mark.parametrize(
        "path,rule_id", sorted(FIXTURE_RULES.items()), ids=lambda v: str(v)[-20:]
    )
    def test_each_fixture_trips_exactly_its_rule(self, path, rule_id):
        findings = lint_file(path)
        assert findings, f"{path} produced no findings"
        assert set(rule_ids(findings)) == {rule_id}

    def test_merged_tree_is_clean(self):
        assert lint_paths([REPO_SRC]) == []


class TestCli:
    def test_lint_clean_tree_exits_zero(self, capsys):
        assert main(["lint", str(REPO_SRC)]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "path,rule_id", sorted(FIXTURE_RULES.items()), ids=lambda v: str(v)[-20:]
    )
    def test_lint_fixture_exits_nonzero_with_rule_and_location(
        self, capsys, path, rule_id
    ):
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert rule_id in out
        assert f"{path}:" in out

    def test_lint_directory_recurses(self, capsys):
        # The tree includes the analyze/ fixtures, which are lint-clean:
        # only the per-file lint rules (RTX001-006) may appear.
        assert main(["lint", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        for rule_id in LINT_RULE_IDS:
            assert rule_id in out
        fired = {line.split()[1] for line in out.splitlines() if " RTX" in line}
        assert fired == set(LINT_RULE_IDS)

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["lint", "no/such/dir"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_syntax_error_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        assert main(["lint", str(bad)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_rules_subcommand(self, capsys):
        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.rule_id in out

    def test_rules_explain(self, capsys):
        assert main(["rules", "--explain", "RTX001"]) == 0
        assert "repro.runtime" in capsys.readouterr().out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.check", "lint", str(REPO_SRC)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
