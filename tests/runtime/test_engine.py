"""Tests for the parallel experiment runner.

Synthetic experiments (registered per-test, removed on teardown) keep
the pool/caching tests fast; the serial-vs-parallel determinism
contract is additionally checked on the real fig15 driver.  Every test
uses an isolated tmp cache dir so the suite stays parallel-safe.
"""

import json
import os
import tempfile

import pytest

from repro.experiments import list_experiments, run_experiment
from repro.experiments.base import (
    ExperimentOutput,
    SweepSpec,
    WorkUnit,
    _REGISTRY,
    attach_sweep,
    derive_unit_seed,
    register,
)
from repro.runtime import ExperimentRunner, ResultCache, outputs_match


@pytest.fixture
def scratch_registry():
    """Allow test-local experiment registration with guaranteed cleanup."""
    before = set(_REGISTRY)
    yield
    for experiment_id in set(_REGISTRY) - before:
        del _REGISTRY[experiment_id]


def _register_plain(experiment_id, marker="ok"):
    @register(experiment_id, f"synthetic {experiment_id}")
    def _run(scale, seed):
        return ExperimentOutput(
            experiment_id=experiment_id,
            title=f"synthetic {experiment_id}",
            text=f"{marker} scale={scale} seed={seed}",
            data={"marker": marker, "seed": seed},
        )


def _register_failing(experiment_id):
    @register(experiment_id, f"failing {experiment_id}")
    def _run(scale, seed):
        raise RuntimeError("driver exploded")


def _register_sweep(experiment_id, touch_dir=None):
    """A 3-point sweep; each unit optionally touches a file (visible
    across fork boundaries) so tests can count real executions."""

    @register(experiment_id, f"sweep {experiment_id}")
    def _run(scale, seed):
        results = [_run_unit(u) for u in _units(scale, seed)]
        return _combine(results, scale, seed)

    def _units(scale, seed):
        return [
            WorkUnit(experiment_id, f"point={i}", {"point": i, "scale": scale}, seed)
            for i in range(3)
        ]

    def _run_unit(unit):
        point = unit.params["point"]
        if touch_dir is not None:
            (touch_dir / f"{unit.experiment_id}-{point}-{os.getpid()}").touch()
        return {"data": {"value": point * 10 + unit.seed}, "events": 5}

    def _combine(results, scale, seed):
        values = [r["data"]["value"] for r in results]
        return ExperimentOutput(
            experiment_id=experiment_id,
            title=f"sweep {experiment_id}",
            text=" ".join(str(v) for v in values),
            data={"values": values},
        )

    attach_sweep(experiment_id, SweepSpec(_units, _run_unit, _combine))


def _register_option_sweep(experiment_id, touch_dir):
    """A 2-point sweep declaring option ``beta`` that ``units()`` reads
    but leaves out of every unit's ``params``."""

    @register(experiment_id, f"option sweep {experiment_id}", options=("beta",))
    def _run(scale, seed, beta="1"):
        units = _units(scale, seed, {"beta": beta})
        return _combine([_run_unit(u) for u in units], scale, seed)

    def _units(scale, seed, options):
        return [WorkUnit(experiment_id, f"point={i}", {"point": i}, seed) for i in range(2)]

    def _run_unit(unit):
        os.close(tempfile.mkstemp(dir=touch_dir)[0])  # count executions
        return {"data": {"value": unit.params["point"]}, "events": 1}

    def _combine(results, scale, seed):
        values = [r["data"]["value"] for r in results]
        return ExperimentOutput(experiment_id, "option sweep", str(values), {"values": values})

    attach_sweep(experiment_id, SweepSpec(_units, _run_unit, _combine))


class TestSerialRunner:
    def test_matches_run_experiment(self, scratch_registry):
        _register_plain("_t-plain")
        results, report = ExperimentRunner(jobs=1).run(["_t-plain"], 0.5, 3)
        assert results[0].ok
        assert outputs_match(results[0].output, run_experiment("_t-plain", 0.5, 3))
        assert not report.failures
        assert len(report.units) == 1 and report.units[0].unit_key == "__whole__"

    def test_failure_contained(self, scratch_registry):
        _register_plain("_t-good")
        _register_failing("_t-bad")
        results, report = ExperimentRunner(jobs=1).run(["_t-bad", "_t-good"], 1.0, 1)
        assert not results[0].ok and "driver exploded" in results[0].error
        assert results[1].ok
        assert set(report.failures) == {"_t-bad"}

    def test_unknown_id_raises_upfront(self):
        with pytest.raises(KeyError):
            ExperimentRunner(jobs=1).run(["_no-such-experiment"], 1.0, 1)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ExperimentRunner(jobs=0)
        with pytest.raises(ValueError):
            ExperimentRunner(jobs=1).run(["fig7"], scale=0.0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(ValueError, match=f"finite positive number, got {scale}"):
            ExperimentRunner(jobs=1).run(["fig7"], scale=scale)


class TestParallelRunner:
    def test_sweep_decomposes_and_matches_serial(self, scratch_registry):
        _register_sweep("_t-sweep")
        serial = run_experiment("_t-sweep", 1.0, 4)
        results, report = ExperimentRunner(jobs=2).run(["_t-sweep"], 1.0, 4)
        assert outputs_match(results[0].output, serial)
        # telemetry arrives in completion order; one stat per sweep point
        assert sorted(u.unit_key for u in report.units) == [
            "point=0", "point=1", "point=2",
        ]
        assert report.events_processed() == 15

    def test_mixed_batch_with_failure(self, scratch_registry):
        _register_plain("_t-good")
        _register_failing("_t-bad")
        _register_sweep("_t-sweep")
        ids = ["_t-good", "_t-bad", "_t-sweep"]
        results, report = ExperimentRunner(jobs=2).run(ids, 1.0, 1)
        assert [r.experiment_id for r in results] == ids  # ids order kept
        assert results[0].ok and results[2].ok and not results[1].ok
        assert set(report.failures) == {"_t-bad"}

    def test_on_result_fires_per_experiment(self, scratch_registry):
        _register_plain("_t-a")
        _register_plain("_t-b")
        seen = []
        ExperimentRunner(jobs=2).run(
            ["_t-a", "_t-b"], 1.0, 1, on_result=lambda r: seen.append(r.experiment_id)
        )
        assert sorted(seen) == ["_t-a", "_t-b"]

    def test_fig15_parallel_identical_to_serial(self):
        """The headline determinism contract, on the real driver."""
        serial = run_experiment("fig15", scale=0.01, seed=7)
        results, report = ExperimentRunner(jobs=2).run(["fig15"], scale=0.01, seed=7)
        assert results[0].output.data == serial.data
        assert outputs_match(results[0].output, serial)
        assert len(report.units) == 7  # one per RTT/2 point


#: A non-default value for every option any experiment declares.
NON_DEFAULT_OPTIONS = {
    "classes": "urllc:0.4,embb:0.6",
    "fleet_cells": "6",
    "nodes": "5",
    "loads": "0.9",
    "schedulers": "partitioned,global",
    "placer": "greedy",
}


class TestEveryOption:
    def test_table_covers_every_declared_option(self):
        declared = {o for exp in list_experiments() for o in exp.options}
        assert set(NON_DEFAULT_OPTIONS) == declared

    def test_serial_and_parallel_identical_with_every_option_set(self):
        ids = sorted(
            exp.experiment_id for exp in list_experiments() if exp.options
        )
        serial, _ = ExperimentRunner(jobs=1).run(
            ids, scale=0.02, seed=7, options=NON_DEFAULT_OPTIONS
        )
        parallel, _ = ExperimentRunner(jobs=2).run(
            ids, scale=0.02, seed=7, options=NON_DEFAULT_OPTIONS
        )
        for a, b in zip(serial, parallel):
            assert a.ok and b.ok, (a.error, b.error)
            assert a.output.text == b.output.text
            assert json.dumps(a.output.data, sort_keys=True) == json.dumps(
                b.output.data, sort_keys=True
            )


class TestCaching:
    def test_warm_rerun_executes_nothing(self, scratch_registry, tmp_path):
        touch_dir = tmp_path / "touch"
        touch_dir.mkdir()
        _register_sweep("_t-sweep", touch_dir=touch_dir)
        _register_plain("_t-plain")
        cache = ResultCache(tmp_path / "cache", fingerprint="fp")
        runner = ExperimentRunner(jobs=2, cache=cache)

        cold, cold_report = runner.run(["_t-sweep", "_t-plain"], 1.0, 9)
        executions = len(list(touch_dir.iterdir()))
        assert executions == 3
        assert cold_report.cache_hits == 0

        warm, warm_report = runner.run(["_t-sweep", "_t-plain"], 1.0, 9)
        assert len(list(touch_dir.iterdir())) == executions  # nothing re-ran
        assert all(r.cached for r in warm)
        assert warm_report.cache_hits == 2  # both whole-experiment entries
        assert all(r.ok for r in warm)
        for before, after in zip(cold, warm):
            assert before.output.data == after.output.data

    def test_unit_cache_serves_partial_sweeps(self, scratch_registry, tmp_path):
        touch_dir = tmp_path / "touch"
        touch_dir.mkdir()
        _register_sweep("_t-sweep", touch_dir=touch_dir)
        cache = ResultCache(tmp_path / "cache", fingerprint="fp")
        runner = ExperimentRunner(jobs=2, cache=cache)
        runner.run(["_t-sweep"], 1.0, 9)

        # Drop the whole-experiment entry; unit entries must still serve.
        whole = cache._path(cache.key("_t-sweep", "__whole__", 1.0, 9))
        whole.unlink()
        results, report = runner.run(["_t-sweep"], 1.0, 9)
        assert results[0].ok and results[0].cached
        assert len(list(touch_dir.iterdir())) == 3  # no new executions
        assert all(u.cached for u in report.units)

    def test_fingerprint_invalidates(self, scratch_registry, tmp_path):
        _register_plain("_t-plain")
        root = tmp_path / "cache"
        ExperimentRunner(jobs=1, cache=ResultCache(root, fingerprint="v1")).run(
            ["_t-plain"], 1.0, 9
        )
        results, report = ExperimentRunner(
            jobs=1, cache=ResultCache(root, fingerprint="v2")
        ).run(["_t-plain"], 1.0, 9)
        assert not results[0].cached
        assert report.cache_hits == 0

    def test_options_are_in_every_unit_key(self, scratch_registry, tmp_path):
        # units() leaves `beta` out of params; the runtime must still
        # key each unit on it, so a new value is a miss, not a stale hit.
        touch_dir = tmp_path / "touch"
        touch_dir.mkdir()
        _register_option_sweep("_t-opt", touch_dir)
        cache = ResultCache(tmp_path / "cache", fingerprint="fp")
        runner = ExperimentRunner(jobs=2, cache=cache)
        unit = WorkUnit("_t-opt", "point=0", {"point": 0}, 9)
        exp = _REGISTRY["_t-opt"]

        runner.run(["_t-opt"], 1.0, 9, options={"beta": "1"})
        key_1 = runner._unit_key(exp, unit, 1.0)
        results, report = runner.run(["_t-opt"], 1.0, 9, options={"beta": "2"})
        key_2 = runner._unit_key(exp, unit, 1.0)
        assert key_1 != key_2
        assert report.cache_hits == 0 and report.cache_misses == 3  # whole + 2 units
        assert not results[0].cached
        assert len(list(touch_dir.iterdir())) == 4  # both points ran twice

        # Dropping the whole-run entry leaves the unit entries, which
        # still serve the first value.
        cache._path(cache.key("_t-opt", "__whole__", 1.0, 9, options={"beta": "1"})).unlink()
        results, report = runner.run(["_t-opt"], 1.0, 9, options={"beta": "1"})
        assert results[0].cached and report.cache_hits == 2
        assert len(list(touch_dir.iterdir())) == 4

    def test_failures_are_not_cached(self, scratch_registry, tmp_path):
        _register_failing("_t-bad")
        cache = ResultCache(tmp_path / "cache", fingerprint="fp")
        runner = ExperimentRunner(jobs=1, cache=cache)
        runner.run(["_t-bad"], 1.0, 1)
        assert cache.entry_count() == 0


class TestTelemetry:
    def test_report_json_round_trips(self, scratch_registry, tmp_path):
        _register_sweep("_t-sweep")
        _, report = ExperimentRunner(jobs=2).run(["_t-sweep"], 1.0, 2)
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["jobs"] == 2
        assert payload["events_processed"] == 15
        assert len(payload["units"]) == 3
        assert payload["failures"] == {}

    def test_summary_text_mentions_failures(self, scratch_registry):
        _register_failing("_t-bad")
        _, report = ExperimentRunner(jobs=1).run(["_t-bad"], 1.0, 1)
        assert "_t-bad" in report.summary_text()


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        a = derive_unit_seed(2016, "fig15", "rtt=500")
        assert a == derive_unit_seed(2016, "fig15", "rtt=500")
        assert a != derive_unit_seed(2016, "fig15", "rtt=550")
        assert a != derive_unit_seed(2017, "fig15", "rtt=500")
        assert a != derive_unit_seed(2016, "fig17", "rtt=500")
        assert 0 <= a < 2**32
