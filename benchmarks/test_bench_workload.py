"""Benchmarks for the array-native workload pipeline.

One group, **workload**, matching the pipeline's two layers: the
columnar build alone (trace -> MCS -> iteration draws -> noise and
RTT/2 columns), job materialization from those columns (one shared
task graph per distinct subframe), and the retained scalar reference
(``build_workload_legacy``) as the control.

The asserts pin equivalence invariants (fast path == legacy job lists)
so a faster pipeline cannot silently drift.
"""

import pytest

from repro.sched import CRanConfig
from repro.sched.runner import build_workload, build_workload_legacy
from repro.workload.soa import build_workload_arrays, materialize_jobs

#: Subframes per basestation for the build benchmarks (4 basestations).
BUILD_SUBFRAMES = 500
BENCH_SEED = 2016


@pytest.mark.benchmark(group="workload")
def test_bench_workload_arrays(benchmark):
    """Columnar build alone: trace -> MCS -> draws -> noise/RTT columns."""
    cfg = CRanConfig(transport_latency_us=500.0)
    arrays = benchmark.pedantic(
        lambda: build_workload_arrays(cfg, BUILD_SUBFRAMES, seed=BENCH_SEED),
        rounds=3, iterations=1,
    )
    assert arrays.num_jobs == cfg.num_basestations * BUILD_SUBFRAMES


@pytest.mark.benchmark(group="workload")
def test_bench_workload_materialize(benchmark):
    """Job materialization from a prebuilt columnar workload."""
    cfg = CRanConfig(transport_latency_us=500.0)
    arrays = build_workload_arrays(cfg, BUILD_SUBFRAMES, seed=BENCH_SEED)
    jobs = benchmark.pedantic(lambda: materialize_jobs(arrays), rounds=3, iterations=1)
    assert len(jobs) == arrays.num_jobs


@pytest.mark.benchmark(group="workload")
def test_bench_workload_build_legacy(benchmark):
    """The scalar reference builder — the SoA pipeline's control."""
    cfg = CRanConfig(transport_latency_us=500.0)
    legacy = benchmark.pedantic(
        lambda: build_workload_legacy(cfg, BUILD_SUBFRAMES, seed=BENCH_SEED),
        rounds=3, iterations=1,
    )
    # Equivalence pin: the fast path must agree job for job.
    fast = build_workload(cfg, BUILD_SUBFRAMES, seed=BENCH_SEED)
    assert legacy == fast
