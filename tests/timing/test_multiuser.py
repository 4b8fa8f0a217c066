"""Tests for multi-user subframe task graphs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lte.subframe import UplinkGrant
from repro.timing.model import LinearTimingModel
from repro.timing.multiuser import build_multiuser_work
from repro.timing.tasks import build_subframe_work


@pytest.fixture
def model():
    return LinearTimingModel()


def grants_for(prb_shares, mcs=20):
    return [UplinkGrant(mcs=mcs, num_prbs=p, num_antennas=2) for p in prb_shares]


class TestMultiUserWork:
    def test_single_full_user_matches_eq1(self, model):
        # One user at 100% PRBs must reduce exactly to Eq. (1).
        grant = UplinkGrant(mcs=27, num_prbs=50, num_antennas=2)
        iters = [3] * grant.code_blocks
        multi = build_multiuser_work(model, [grant], [iters], max_iterations=4)
        single = build_subframe_work(model, grant, iters, max_iterations=4)
        assert multi.total_serial_us == pytest.approx(single.total_serial_us, rel=1e-9)

    def test_decode_subtasks_are_per_user_code_blocks(self, model):
        grants = grants_for([25, 25], mcs=20)
        iters = [[2] * g.code_blocks for g in grants]
        work = build_multiuser_work(model, grants, iters, max_iterations=4)
        expected = sum(g.code_blocks for g in grants)
        assert work.task("decode").num_subtasks == expected

    def test_more_users_finer_subtasks(self, model):
        one = build_multiuser_work(
            model, grants_for([50], 24), [[2] * grants_for([50], 24)[0].code_blocks],
            max_iterations=4,
        )
        grants = grants_for([13, 13, 12, 12], 24)
        four = build_multiuser_work(
            model, grants, [[2] * g.code_blocks for g in grants], max_iterations=4
        )
        max_one = max(s.duration_us for s in one.task("decode").subtasks)
        max_four = max(s.duration_us for s in four.task("decode").subtasks)
        assert max_four < max_one

    def test_total_time_split_invariant(self, model):
        # Splitting the same PRBs/MCS across users conserves the decode
        # bits, so the total time stays within the TBS-quantization slop.
        whole = grants_for([50], 16)
        halves = grants_for([25, 25], 16)
        w_whole = build_multiuser_work(
            model, whole, [[2] * whole[0].code_blocks], max_iterations=4
        )
        w_half = build_multiuser_work(
            model, halves, [[2] * g.code_blocks for g in halves], max_iterations=4
        )
        assert w_half.total_serial_us == pytest.approx(w_whole.total_serial_us, rel=0.05)

    def test_validation(self, model):
        grants = grants_for([30, 30])
        with pytest.raises(ValueError):
            build_multiuser_work(model, grants, [[2], [2]], max_iterations=4)  # PRBs > 50
        with pytest.raises(ValueError):
            build_multiuser_work(model, [], [], max_iterations=4)
        mixed = [UplinkGrant(mcs=5, num_prbs=10, num_antennas=1),
                 UplinkGrant(mcs=5, num_prbs=10, num_antennas=2)]
        with pytest.raises(ValueError):
            build_multiuser_work(model, mixed, [[2], [2]], max_iterations=4)

    def test_iteration_list_mismatch(self, model):
        grants = grants_for([25, 25])
        with pytest.raises(ValueError):
            build_multiuser_work(model, grants, [[2]], max_iterations=4)


class TestMultiUserWorkload:
    def test_build_and_schedule(self):
        from repro.sched import CRanConfig, run_scheduler
        from repro.workload.multiuser import build_multiuser_workload

        cfg = CRanConfig(transport_latency_us=600.0)
        jobs = build_multiuser_workload(cfg, 200, seed=3)
        assert len(jobs) == 800
        result = run_scheduler("rt-opex", cfg, jobs)
        assert len(result.records) == len(jobs)

    def test_work_list_is_pinned(self):
        # Golden for ext_multiuser's workload: sha256 over repr of every
        # job's task graph and platform noise, 4 cells x 400 subframes.
        import hashlib

        from repro.sched import CRanConfig
        from repro.workload.multiuser import build_multiuser_workload

        jobs = build_multiuser_workload(
            CRanConfig(transport_latency_us=500.0), 400, seed=2016
        )
        digest = hashlib.sha256()
        for job in jobs:
            digest.update(repr(job.work).encode())
            digest.update(repr(job.noise_us).encode())
        assert len(jobs) == 1600
        assert digest.hexdigest() == (
            "1179a6692be111c435f72a4ff3f1fb753b0464fcc99e7c4d0f41b740493c4388"
        )

    def test_full_prb_mode_occupies_everything(self):
        from repro.sched import CRanConfig
        from repro.workload.multiuser import build_multiuser_workload

        cfg = CRanConfig(transport_latency_us=600.0)
        jobs = build_multiuser_workload(cfg, 50, seed=3, full_prb=True, max_users=1)
        for job in jobs:
            assert job.subframe.grant.num_prbs == 50


class TestPrbSplit:
    @given(st.integers(8, 50), st.integers(1, 4), st.integers(0, 500))
    @settings(max_examples=200, deadline=None)
    def test_split_partitions_total(self, total, users, seed):
        import numpy as np

        from repro.workload.multiuser import MIN_USER_PRBS, split_prbs

        rng = np.random.default_rng(seed)
        shares = split_prbs(total, users, rng)
        assert sum(shares) == total
        assert all(s >= MIN_USER_PRBS for s in shares)

    @given(st.integers(1, 50), st.integers(1, 8), st.integers(0, 500))
    @settings(max_examples=300, deadline=None)
    def test_min_share_invariant_full_domain(self, total, users, seed):
        # Regression: tiny grants used to leak sub-minimum shares (or a
        # zero share) out of the composition.  Over the whole input
        # domain the invariant is: shares partition the total, and every
        # share meets MIN_USER_PRBS except the documented degenerate
        # case — a grant too small to host even one minimum allocation
        # goes whole to a single user.
        import numpy as np

        from repro.workload.multiuser import MIN_USER_PRBS, split_prbs

        rng = np.random.default_rng(seed)
        shares = split_prbs(total, users, rng)
        assert sum(shares) == total
        assert all(s >= 1 for s in shares)
        if total >= MIN_USER_PRBS:
            assert all(s >= MIN_USER_PRBS for s in shares)
        else:
            assert shares == [total]

    def test_degenerate_small_grant_goes_whole(self, rng):
        from repro.workload.multiuser import MIN_USER_PRBS, split_prbs

        for total in range(1, MIN_USER_PRBS):
            assert split_prbs(total, 3, rng) == [total]

    def test_invalid_inputs_raise(self, rng):
        from repro.workload.multiuser import split_prbs

        with pytest.raises(ValueError, match="at least 1"):
            split_prbs(0, 2, rng)
        with pytest.raises(ValueError, match="at least 1"):
            split_prbs(-5, 2, rng)
        with pytest.raises(ValueError, match="num_users"):
            split_prbs(10, 0, rng)


class TestMultiUserMix:
    def test_mix_tags_users_and_tightens_deadline(self):
        from repro.sched import CRanConfig
        from repro.workload.classes import parse_class_spec
        from repro.workload.multiuser import build_multiuser_workload

        cfg = CRanConfig(transport_latency_us=600.0)
        mix = parse_class_spec("urllc:0.5,mmtc:0.5")
        jobs = build_multiuser_workload(cfg, 150, seed=3, mix=mix)
        services = {j.service for j in jobs}
        assert services == {"urllc", "mmtc"}
        for job in jobs:
            budget = mix.by_name(job.service).delay_budget_us
            assert job.deadline_us == pytest.approx(
                job.subframe.air_time_us + budget
            )

    def test_no_mix_stays_byte_identical(self):
        # The mix hook must not perturb the default workload: same
        # streams, same draws, same jobs.
        from repro.sched import CRanConfig
        from repro.workload.multiuser import build_multiuser_workload

        cfg = CRanConfig(transport_latency_us=600.0)
        assert build_multiuser_workload(cfg, 60, seed=3) == (
            build_multiuser_workload(cfg, 60, seed=3, mix=None)
        )

    def test_single_class_mix_keeps_timing(self):
        from repro.sched import CRanConfig
        from repro.workload.classes import single_class_mix
        from repro.workload.multiuser import build_multiuser_workload

        cfg = CRanConfig(transport_latency_us=600.0)
        plain = build_multiuser_workload(cfg, 60, seed=3)
        single = build_multiuser_workload(
            cfg, 60, seed=3, mix=single_class_mix()
        )
        # The explicit single-class mix materializes the same timing
        # (the embb budget IS the default 2 ms deadline) even though the
        # override field is now populated.
        assert [j.deadline_us for j in single] == [j.deadline_us for j in plain]
        assert [j.work for j in single] == [j.work for j in plain]
        assert all(j.service == "embb" for j in single)
