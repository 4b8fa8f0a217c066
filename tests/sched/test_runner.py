"""Tests for workload construction and the scheduler entry points."""

import re

import numpy as np
import pytest

from repro.obs import Tracer, tracing
from repro.sched import CRanConfig, build_workload, run_scheduler
from repro.sched.runner import compare_schedulers
from repro.workload.soa import build_workload_arrays


class TestBuildWorkload:
    def test_job_count(self, small_config):
        jobs = build_workload(small_config, 100, seed=1)
        assert len(jobs) == 4 * 100

    def test_reproducible(self, small_config):
        a = build_workload(small_config, 50, seed=1)
        b = build_workload(small_config, 50, seed=1)
        assert [j.work.iterations for j in a] == [j.work.iterations for j in b]
        assert [j.noise_us for j in a] == [j.noise_us for j in b]

    def test_seed_changes_workload(self, small_config):
        a = build_workload(small_config, 50, seed=1)
        b = build_workload(small_config, 50, seed=2)
        assert [j.subframe.grant.mcs for j in a] != [j.subframe.grant.mcs for j in b]

    def test_arrival_times(self, small_config):
        jobs = build_workload(small_config, 10, seed=1)
        for job in jobs:
            expected = job.subframe.index * 1000.0 + small_config.transport_latency_us
            assert job.arrival_us == expected

    def test_explicit_loads(self, small_config):
        loads = np.full((4, 20), 1.0)
        jobs = build_workload(small_config, 20, seed=1, loads=loads)
        assert all(j.subframe.grant.mcs == 27 for j in jobs)

    def test_loads_shape_validated(self, small_config):
        with pytest.raises(ValueError):
            build_workload(small_config, 20, loads=np.ones((2, 20)))

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    def test_bad_load_rejected(self, small_config, bad):
        loads = np.full((4, 10), 0.5)
        loads[1, 6] = bad
        with pytest.raises(ValueError, match=re.escape("(bs=1, subframe=6)")):
            build_workload(small_config, 10, loads=loads)

    def test_transport_jitter(self, small_config):
        jitter = np.full((4, 10), 25.0)
        jobs = build_workload(small_config, 10, seed=1, transport_jitter=jitter)
        for job in jobs:
            assert job.subframe.transport_latency_us == pytest.approx(
                small_config.transport_latency_us + 25.0
            )

    def test_jitter_shape_validated(self, small_config):
        with pytest.raises(ValueError):
            build_workload(small_config, 10, transport_jitter=np.ones((4, 5)))

    # The check sits in the columns builder, so it fires before any job
    # is materialized.
    @pytest.mark.parametrize("builder", [build_workload, build_workload_arrays])
    @pytest.mark.parametrize(
        "bad, shown",
        [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"), (-500.5, "-0.5")],
    )
    def test_bad_effective_latency_rejected(self, small_config, builder, bad, shown):
        # RTT/2 + jitter must be finite and >= 0 at every (bs, subframe):
        # NaN arrivals never miss, negative ones precede their air time.
        jitter = np.zeros((4, 10))
        jitter[2, 7] = bad
        with pytest.raises(ValueError, match=re.escape(f"(bs=2, subframe=7) is {shown} us")):
            builder(small_config, 10, seed=1, transport_jitter=jitter)

    def test_zero_latency_accepted(self):
        # Jitter that cancels the fixed RTT/2 exactly still means "arrives
        # at the end of its air time", which is valid.
        cfg = CRanConfig(transport_latency_us=400.0)
        jitter = np.full((4, 10), -400.0)
        jobs = build_workload(cfg, 10, seed=1, transport_jitter=jitter)
        assert all(j.subframe.transport_latency_us == 0.0 for j in jobs)

    def test_iterations_match_code_blocks(self, small_config):
        jobs = build_workload(small_config, 30, seed=1)
        for job in jobs:
            assert len(job.work.iterations) == job.subframe.grant.code_blocks

    def test_noise_nonnegative(self, small_config):
        jobs = build_workload(small_config, 30, seed=1)
        assert all(j.noise_us >= 0 for j in jobs)


class TestRunScheduler:
    def test_unknown_scheduler(self, small_config, small_workload):
        # Rejected before an ambient tracer opens a run for it.
        tracer = Tracer()
        with tracing(tracer), pytest.raises(ValueError, match="round-robin"):
            run_scheduler("round-robin", small_config, small_workload)
        assert len(tracer) == 0

    def test_all_names_resolve(self, small_config, small_workload):
        for name in ("partitioned", "global", "rt-opex", "rtopex"):
            result = run_scheduler(name, small_config, small_workload)
            assert len(result.records) == len(small_workload)

    def test_compare_is_paired(self, small_config, small_workload):
        results = compare_schedulers(small_config, small_workload)
        sizes = {len(r.records) for r in results.values()}
        assert sizes == {len(small_workload)}

    def test_paper_ordering_holds(self, small_config, small_workload):
        # partitioned >= rt-opex in misses; global >= partitioned.
        results = compare_schedulers(small_config, small_workload)
        assert results["rt-opex"].miss_count() <= results["partitioned"].miss_count()
        assert results["global"].miss_count() >= results["partitioned"].miss_count() - 2
