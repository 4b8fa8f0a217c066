"""Property-based fuzzing of the schedulers over random job sets.

These tests generate arbitrary (but valid) workloads and check the
invariants every scheduler must uphold regardless of load pattern:
conservation, causality, deadline enforcement, busy time within the
horizon, one traced deadline verdict per job, and RT-OPEX's
no-worse-than-baseline guarantee.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sched import (
    CRanConfig,
    PartitionedScheduler,
    RtOpexScheduler,
    run_scheduler,
)

from tests.helpers import make_job

# A workload: per (bs, subframe) an (mcs, iteration) pair.
job_specs = st.lists(
    st.tuples(
        st.integers(0, 3),  # bs
        st.integers(0, 9),  # subframe index
        st.integers(0, 27),  # mcs
        st.integers(1, 4),  # iterations for every code block
    ),
    min_size=1,
    max_size=40,
    unique_by=lambda s: (s[0], s[1]),
)

rtts = st.sampled_from([400.0, 550.0, 700.0])

#: Every ``run_scheduler`` policy; the shared-queue ones get a pool of
#: 8 cores, the others the default per-basestation layout.
POLICIES = ("partitioned", "global", "rt-opex", "pran", "cloudiq", "das")
POOLED = ("global", "das")


def build_jobs(specs, rtt):
    return [make_job(bs, idx, mcs, [l], rtt=rtt) for bs, idx, mcs, l in specs]


def check_invariants(result, jobs):
    assert len(result.records) == len(jobs)
    keys = sorted((r.bs_id, r.index) for r in result.records)
    assert keys == sorted((j.subframe.bs_id, j.subframe.index) for j in jobs)
    for r in result.records:
        if not np.isnan(r.finish_us):
            assert r.finish_us >= r.start_us - 1e-9
            assert r.finish_us <= r.deadline_us + 1e-6
        if not (r.missed or r.dropped):
            assert r.finish_us <= r.deadline_us + 1e-6
    finishes = [r.finish_us for r in result.records if not np.isnan(r.finish_us)]
    horizon = max(finishes, default=0.0)
    for core, busy in result.core_busy_us.items():
        assert busy <= horizon + 1e-6, (core, busy, horizon)
    if result.trace_run is not None:
        verdicts = Counter(
            (e.bs_id, e.sf_index)
            for e in result.trace_run.events
            if e.kind == "deadline"
        )
        assert verdicts == Counter((r.bs_id, r.index) for r in result.records)


class TestSchedulerFuzz:
    @pytest.mark.parametrize("policy", POLICIES)
    @given(specs=job_specs, rtt=rtts)
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, policy, specs, rtt):
        jobs = build_jobs(specs, rtt)
        cfg = CRanConfig(
            transport_latency_us=rtt, num_cores=8 if policy in POOLED else 0
        )
        result = run_scheduler(policy, cfg, jobs, seed=0, capture_trace=True)
        check_invariants(result, jobs)

    @given(job_specs, rtts)
    @settings(max_examples=40, deadline=None)
    def test_rtopex_never_worse_than_partitioned(self, specs, rtt):
        # The paper's central guarantee, fuzzed: across arbitrary
        # workloads RT-OPEX must not miss more than the partitioned
        # baseline it builds on (modulo its noisier helpers: allow the
        # rare single extra miss from a recovery landing on the line).
        jobs = build_jobs(specs, rtt)
        cfg = CRanConfig(transport_latency_us=rtt)
        part = PartitionedScheduler(cfg).run(jobs)
        opex = RtOpexScheduler(cfg, rng=np.random.default_rng(0)).run(jobs)
        assert opex.miss_count() <= part.miss_count() + 1

    @given(job_specs)
    @settings(max_examples=20, deadline=None)
    def test_helpers_never_delayed_by_migration(self, specs):
        jobs = build_jobs(specs, 500.0)
        cfg = CRanConfig(transport_latency_us=500.0)
        result = RtOpexScheduler(cfg, rng=np.random.default_rng(0)).run(jobs)
        for r in result.records:
            assert r.queue_delay_us == 0.0
