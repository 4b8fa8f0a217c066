"""Tests for mixed-service traffic classes, burst envelopes, builders."""

import numpy as np
import pytest

from repro.constants import RX_BUDGET_US
from repro.sched import CRanConfig, build_workload
from repro.sim.rng import RngStreams
from repro.workload.bursty import (
    FLASH_CROWD_FLOOR,
    FLASH_CROWD_PEAK,
    burst_envelope,
    diurnal_ramp_envelope,
    flash_crowd_envelope,
    shape_loads,
    steady_envelope,
)
from repro.workload.classes import (
    DEFAULT_MIXED_SPEC,
    STANDARD_CLASSES,
    ServiceClass,
    ServiceMix,
    parse_class_spec,
    single_class_mix,
)
from repro.workload.mixed import build_mixed_workload, mixed_loads


class TestServiceClass:
    def test_standard_budget_ordering(self):
        # The class taxonomy's raison d'etre: budgets differ and order.
        assert (
            STANDARD_CLASSES["urllc"].delay_budget_us
            < STANDARD_CLASSES["embb"].delay_budget_us
            < STANDARD_CLASSES["mmtc"].delay_budget_us
        )
        assert STANDARD_CLASSES["embb"].delay_budget_us == RX_BUDGET_US

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceClass("", delay_budget_us=1000.0, share=0.5)
        with pytest.raises(ValueError):
            ServiceClass("x", delay_budget_us=0.0, share=0.5)
        with pytest.raises(ValueError):
            ServiceClass("x", delay_budget_us=1000.0, share=1.5)
        with pytest.raises(ValueError):
            ServiceClass("x", delay_budget_us=1000.0, share=0.5, burst="nope")
        with pytest.raises(ValueError):
            ServiceClass("x", delay_budget_us=1000.0, share=0.5, load_scale=0.0)


class TestServiceMix:
    def test_shares_must_sum_to_one(self):
        a = ServiceClass("a", 1000.0, 0.5)
        b = ServiceClass("b", 2000.0, 0.2)
        with pytest.raises(ValueError, match="sum to 1"):
            ServiceMix((a, b))

    def test_duplicate_names_rejected(self):
        a = ServiceClass("a", 1000.0, 0.5)
        a2 = ServiceClass("a", 2000.0, 0.5)
        with pytest.raises(ValueError, match="duplicate"):
            ServiceMix((a, a2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ServiceMix(())

    def test_accessors(self):
        mix = parse_class_spec("urllc:0.25,embb:0.75")
        assert mix.names == ("urllc", "embb")
        assert not mix.is_single_class
        assert mix.by_name("urllc").burst == "flash-crowd"
        assert mix.budgets()["embb"] == RX_BUDGET_US
        with pytest.raises(KeyError):
            mix.by_name("mmtc")

    def test_spec_round_trips(self):
        mix = parse_class_spec("urllc:0.2,embb:0.5,mmtc:0.3")
        assert parse_class_spec(mix.spec()) == mix

    def test_single_class_mix(self):
        mix = single_class_mix()
        assert mix.is_single_class
        assert mix.classes[0].name == "embb"
        assert mix.classes[0].share == 1.0
        with pytest.raises(ValueError):
            single_class_mix("volte")


class TestAssign:
    def test_single_class_consumes_no_randomness(self):
        # The byte-identity guarantee: a degenerate mix must leave the
        # stream exactly where it found it.
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        single_class_mix().assign(4, 100, rng_a)
        assert rng_a.integers(0, 1 << 30) == rng_b.integers(0, 1 << 30)

    def test_assignment_shape_and_range(self):
        mix = parse_class_spec(DEFAULT_MIXED_SPEC)
        out = mix.assign(4, 500, np.random.default_rng(1))
        assert out.shape == (4, 500)
        assert set(np.unique(out)) <= {0, 1, 2}

    def test_assignment_tracks_shares(self):
        mix = parse_class_spec("urllc:0.2,embb:0.5,mmtc:0.3")
        out = mix.assign(4, 5000, np.random.default_rng(1))
        freqs = np.bincount(out.ravel(), minlength=3) / out.size
        assert freqs == pytest.approx([0.2, 0.5, 0.3], abs=0.02)

    def test_assignment_deterministic(self):
        mix = parse_class_spec(DEFAULT_MIXED_SPEC)
        a = mix.assign(4, 200, np.random.default_rng(9))
        b = mix.assign(4, 200, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestParseClassSpec:
    def test_whitespace_and_case_tolerant(self):
        mix = parse_class_spec(" URLLC:0.5 , embb:0.5 ")
        assert mix.names == ("urllc", "embb")

    def test_zero_share_entries_dropped(self):
        mix = parse_class_spec("urllc:0,embb:1.0")
        assert mix.names == ("embb",)

    @pytest.mark.parametrize(
        "spec, needle",
        [
            ("", "empty"),
            ("   ", "empty"),
            ("embb:0.5,,urllc:0.5", "position 1"),
            ("embb", "not <class>:<share>"),
            ("volte:1.0", "unknown service class 'volte'"),
            ("embb:lots", "non-numeric share"),
            ("embb:-0.5", "negative share"),
            ("embb:0,urllc:0", "no class with a positive share"),
        ],
    )
    def test_malformed_specs_name_the_problem(self, spec, needle):
        with pytest.raises(ValueError, match=needle):
            parse_class_spec(spec)

    def test_error_carries_entry_position(self):
        with pytest.raises(ValueError, match="position 2"):
            parse_class_spec("urllc:0.5,embb:0.4,volte:0.1")


class TestEnvelopes:
    def test_steady_is_identity(self):
        assert np.array_equal(steady_envelope(50), np.ones(50))

    def test_steady_consumes_no_randomness(self):
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        burst_envelope("steady", 100, rng_a)
        assert rng_a.integers(0, 1 << 30) == rng_b.integers(0, 1 << 30)

    def test_flash_crowd_bounds(self):
        env = flash_crowd_envelope(5000, np.random.default_rng(2))
        assert env.min() == FLASH_CROWD_FLOOR
        assert FLASH_CROWD_FLOOR <= env.max() <= FLASH_CROWD_PEAK
        # With 5000 subframes and a 200-sf period, bursts do occur.
        assert env.max() > 1.0

    def test_flash_crowd_spikes_are_local(self):
        env = flash_crowd_envelope(5000, np.random.default_rng(2))
        # Bursty by construction: most of the time is quiet floor.
        assert np.mean(env == FLASH_CROWD_FLOOR) > 0.5

    def test_diurnal_bounds_and_smoothness(self):
        env = diurnal_ramp_envelope(2000, np.random.default_rng(4))
        assert env.min() >= 1.0 - 0.6 - 1e-9
        assert env.max() <= 1.0 + 0.6 + 1e-9
        assert np.abs(np.diff(env)).max() < 0.01  # slow ramp, no jumps

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            burst_envelope("tidal", 10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            flash_crowd_envelope(0, np.random.default_rng(0))

    def test_shape_loads_clips_and_broadcasts(self):
        base = np.full((2, 4), 0.5)
        env = np.array([0.5, 1.0, 2.0, 4.0])
        shaped = shape_loads(base, env, load_scale=1.0)
        assert shaped.shape == (2, 4)
        assert np.array_equal(shaped[0], [0.25, 0.5, 1.0, 1.0])  # clipped
        with pytest.raises(ValueError):
            shape_loads(base, np.ones(3), 1.0)
        with pytest.raises(ValueError):
            shape_loads(base[0], env, 1.0)


class TestMixedWorkload:
    @pytest.fixture(scope="class")
    def config(self):
        return CRanConfig(transport_latency_us=500.0)

    def test_single_class_mix_is_byte_identical(self, config):
        # The acceptance bar: the degenerate mix takes the fast path and
        # produces the exact jobs the classic builder makes.
        plain = build_workload(config, 80, seed=7)
        mixed = build_mixed_workload(
            config, 80, mix=single_class_mix(), seed=7
        )
        assert mixed == plain

    def test_default_mix_is_single_class(self, config):
        assert build_mixed_workload(config, 40, seed=7) == build_workload(
            config, 40, seed=7
        )

    def test_jobs_carry_class_tags_and_budgets(self, config):
        mix = parse_class_spec(DEFAULT_MIXED_SPEC)
        jobs = build_mixed_workload(config, 120, mix=mix, seed=7)
        seen = set()
        for job in jobs:
            seen.add(job.service)
            cls = mix.by_name(job.service)
            assert job.deadline_us == pytest.approx(
                job.subframe.air_time_us + cls.delay_budget_us
            )
        assert seen == {"urllc", "embb", "mmtc"}

    def test_deterministic(self, config):
        mix = parse_class_spec(DEFAULT_MIXED_SPEC)
        a = build_mixed_workload(config, 60, mix=mix, seed=5)
        b = build_mixed_workload(config, 60, mix=mix, seed=5)
        assert a == b

    def test_budget_must_clear_transport(self, config):
        tight = ServiceMix((ServiceClass("urllc", 400.0, 1.0),))
        with pytest.raises(ValueError, match="transport latency"):
            build_mixed_workload(config, 10, mix=tight, seed=1)

    def test_loads_shape_validated(self, config):
        with pytest.raises(ValueError, match="shaped"):
            build_mixed_workload(
                config, 10, mix=single_class_mix(), seed=1,
                loads=np.zeros((2, 10)),
            )

    def test_mixed_loads_stream_isolation(self):
        # Shaping draws only from its own streams: the iteration stream
        # is untouched whether or not a mix is applied.
        streams_before = RngStreams(11).stream("iterations")
        ref = streams_before.integers(0, 1 << 30)
        mix = parse_class_spec(DEFAULT_MIXED_SPEC)
        mixed_loads(mix, np.full((4, 50), 0.5), seed=11)
        streams_after = RngStreams(11).stream("iterations")
        assert streams_after.integers(0, 1 << 30) == ref

    def test_mixed_loads_shapes_per_class(self):
        mix = parse_class_spec("urllc:0.5,mmtc:0.5")
        base = np.full((4, 400), 0.8)
        assignment, shaped = mixed_loads(mix, base, seed=3)
        assert assignment.shape == shaped.shape == base.shape
        # Both classes carry small payloads (load_scale << 1), so the
        # shaped matrix is lighter than the broadband base on average
        # even though flash-crowd peaks can exceed it locally.
        assert shaped.mean() < base.mean()
        assert not np.array_equal(shaped, base)
        assert (shaped >= 0.0).all() and (shaped <= 1.0).all()
