"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _OPTION_FLAGS, build_parser, main
from repro.experiments import list_experiments


@pytest.fixture
def cache_args(tmp_path):
    """Isolated cache dir so CLI tests never touch the user's cache."""
    return ["--cache-dir", str(tmp_path / "cli-cache")]


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig15" in out
        assert "table1" in out

    def test_run_single_experiment(self, capsys, cache_args):
        assert main(["fig4"] + cache_args) == 0
        out = capsys.readouterr().out
        assert "decode" in out
        assert "finished in" in out

    def test_scale_and_seed_flags(self, capsys, cache_args):
        assert main(["table1", "--scale", "0.01", "--seed", "3"] + cache_args) == 0
        out = capsys.readouterr().out
        assert "GPP (ours)" in out

    def test_unknown_experiment_lists_and_exits_nonzero(self, capsys):
        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "fig15" in err  # the known-experiment listing

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig15"])
        assert args.scale == 0.2
        assert args.experiment == "fig15"
        assert args.jobs == 1
        assert args.cache_dir is None
        assert not args.no_cache
        assert args.json_path is None

    def test_invalid_jobs(self, capsys):
        assert main(["fig4", "--jobs", "0", "--no-cache"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_invalid_scale(self, capsys):
        assert main(["fig4", "--scale", "0", "--no-cache"]) == 2
        assert "--scale" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_scale_is_a_usage_error(self, capsys, scale):
        assert main(["table1", "--scale", scale, "--no-cache"]) == 2
        assert "--scale must be a finite positive number" in capsys.readouterr().err

    def test_no_cache_flag(self, capsys):
        assert main(["fig7", "--scale", "0.01", "--no-cache"]) == 0
        assert "cache off" in capsys.readouterr().out

    def test_warm_cache_rerun(self, capsys, cache_args):
        assert main(["fig7", "--scale", "0.01"] + cache_args) == 0
        assert "cache 0 hits / 1 misses" in capsys.readouterr().out
        assert main(["fig7", "--scale", "0.01"] + cache_args) == 0
        out = capsys.readouterr().out
        assert "(cached)" in out
        assert "cache 1 hits / 0 misses" in out

    def test_cache_dir_env_fallback(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("RTOPEX_CACHE_DIR", str(tmp_path / "env-cache"))
        assert main(["fig7", "--scale", "0.01"]) == 0
        assert (tmp_path / "env-cache").is_dir()

    def test_json_report(self, capsys, cache_args, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["fig7", "--scale", "0.01", "--json", str(report_path)] + cache_args) == 0
        payload = json.loads(report_path.read_text())
        assert payload["jobs"] == 1
        assert [u["experiment_id"] for u in payload["units"]] == ["fig7"]
        assert payload["failures"] == {}

    def test_parallel_run_matches_serial(self, capsys, tmp_path):
        from repro.experiments import run_experiment

        assert main(["fig7", "--scale", "0.01", "--jobs", "2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "jobs=2" in out
        assert run_experiment("fig7", scale=0.01).text in out

    def test_profile_hotspots_in_json_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert (
            main(["fig7", "--scale", "0.01", "--no-cache", "--profile",
                  "--json", str(report_path)])
            == 0
        )
        assert "profiled" in capsys.readouterr().out
        payload = json.loads(report_path.read_text())
        profile = payload["profile"]
        assert profile["total_calls"] > 0
        assert 0 < len(profile["top"]) <= 20
        top = profile["top"][0]
        assert set(top) == {
            "function", "calls", "primitive_calls", "tottime_s", "cumtime_s"
        }
        # Sorted by cumulative time, the view the flag promises.
        cumtimes = [row["cumtime_s"] for row in profile["top"]]
        assert cumtimes == sorted(cumtimes, reverse=True)

    def test_profile_refused_with_parallel_jobs(self, capsys):
        assert main(["fig7", "--scale", "0.01", "--no-cache", "--profile",
                     "--jobs", "2"]) == 2
        assert "--profile requires --jobs 1" in capsys.readouterr().err

    def test_unprofiled_report_has_null_profile(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["fig7", "--scale", "0.01", "--no-cache",
                     "--json", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["profile"] is None

    def test_invalid_classes_spec_is_a_usage_error(self, capsys):
        assert main(
            ["ext_mixed", "--no-cache", "--classes", "volte:1.0"]
        ) == 2
        err = capsys.readouterr().err
        assert "invalid --classes spec" in err
        assert "volte" in err

    def test_classes_on_classless_experiment_rejected(self, capsys):
        assert main(["fig4", "--no-cache", "--classes", "embb:1.0"]) == 2
        assert "does not take" in capsys.readouterr().err

    def test_classes_flag_reaches_the_experiment(self, capsys):
        assert main(
            [
                "ext_mixed", "--scale", "0.01", "--no-cache",
                "--classes", "urllc:0.5,mmtc:0.5",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "urllc:0.5,mmtc:0.5" in out
        assert "urllc miss" in out and "mmtc miss" in out

    def test_run_form_is_equivalent_to_bare_experiment(self, capsys, cache_args):
        assert main(["run", "fig7", "--scale", "0.01"] + cache_args) == 0
        assert "finished in" in capsys.readouterr().out

    def test_run_form_requires_an_experiment_id(self, capsys):
        assert main(["run"]) == 2
        assert "experiment id" in capsys.readouterr().err

    def test_stray_second_positional_rejected(self, capsys):
        assert main(["fig7", "fig4", "--no-cache"]) == 2
        assert "unexpected extra argument" in capsys.readouterr().err

    def test_fleet_flags_reach_the_experiment(self, capsys):
        assert main(
            [
                "run", "ext-fleet", "--scale", "0.02", "--no-cache",
                "--fleet-cells", "8", "--nodes", "6", "--placer", "greedy",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "gap vs opt" in out
        assert "8 cells" in out

    def test_loads_and_schedulers_flags_reach_the_experiment(self, capsys):
        assert main(
            [
                "run", "ext-fleet", "--scale", "0.02", "--no-cache",
                "--fleet-cells", "8", "--nodes", "6", "--loads", "0.9",
                "--schedulers", "global", "--placer", "greedy",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "| 0.9  | global" in out
        assert "rt-opex" not in out  # scheduler axis really narrowed

    def test_invalid_loads_spec_is_a_usage_error(self, capsys):
        assert main(
            ["run", "ext-fleet", "--no-cache", "--loads", "9.9"]
        ) == 2
        assert "invalid --loads spec" in capsys.readouterr().err

    def test_invalid_schedulers_spec_is_a_usage_error(self, capsys):
        assert main(
            ["run", "ext-fleet", "--no-cache", "--schedulers", "bogus"]
        ) == 2
        assert "invalid --schedulers spec" in capsys.readouterr().err

    def test_invalid_nodes_spec_is_a_usage_error(self, capsys):
        assert main(
            ["run", "ext-fleet", "--no-cache", "--nodes", "6,6"]
        ) == 2
        err = capsys.readouterr().err
        assert "invalid --nodes spec" in err

    def test_invalid_placer_choice_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "ext-fleet", "--no-cache", "--placer", "ilp"])
        assert "invalid choice" in capsys.readouterr().err

    def test_fleet_flags_on_non_fleet_experiment_rejected(self, capsys):
        assert main(["fig4", "--no-cache", "--fleet-cells", "8"]) == 2
        assert "does not take --fleet-cells" in capsys.readouterr().err

    def test_options_exported_in_json_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(
            [
                "run", "ext-fleet", "--scale", "0.02", "--no-cache",
                "--fleet-cells", "8", "--nodes", "6", "--placer", "greedy",
                "--json", str(report_path),
            ]
        ) == 0
        payload = json.loads(report_path.read_text())
        assert payload["options"] == {
            "fleet_cells": "8", "nodes": "6", "placer": "greedy"
        }

    def test_optionless_report_has_empty_options(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["fig7", "--scale", "0.01", "--no-cache",
                     "--json", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["options"] == {}

    def test_failing_driver_reported_and_exits_nonzero(self, capsys):
        from repro.experiments.base import _REGISTRY, register

        @register("_t-cli-bad", "always fails")
        def _run(scale, seed):
            raise RuntimeError("driver exploded")

        try:
            assert main(["_t-cli-bad", "--no-cache"]) == 1
            captured = capsys.readouterr()
            assert "FAILED" in captured.err
            assert "_t-cli-bad" in captured.out  # runtime summary names it
        finally:
            del _REGISTRY["_t-cli-bad"]


class TestOptionFlags:
    """The CLI flag table and the experiments' declared options must
    match both ways: a row naming no declared option is a dead flag,
    and a declared option with no row cannot be set from the CLI."""

    def test_flags_match_declared_options(self):
        flagged = [option for _, option, _, _ in _OPTION_FLAGS]
        declared = {o for exp in list_experiments() for o in exp.options}
        assert len(flagged) == len(set(flagged))
        assert set(flagged) == declared

    def test_every_flag_is_parsed(self):
        parser = build_parser()
        known = {s for action in parser._actions for s in action.option_strings}
        assert {flag for flag, _, _, _ in _OPTION_FLAGS} <= known

