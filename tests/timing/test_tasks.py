"""Tests for the task-graph construction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lte.subframe import UplinkGrant
from repro.timing.downlink import DownlinkTimingModel, build_tx_work
from repro.timing.model import LinearTimingModel
from repro.timing.tasks import SubtaskSpec, TaskSpec, build_subframe_work


@pytest.fixture
def model():
    return LinearTimingModel()


def make_work(model, mcs=27, iters=None, **kwargs):
    grant = UplinkGrant(mcs=mcs)
    iters = iters if iters is not None else [2] * grant.code_blocks
    return grant, build_subframe_work(model, grant, iters, max_iterations=4, **kwargs)


class TestTaskGraph:
    def test_three_tasks_in_order(self, model):
        _, work = make_work(model)
        assert [t.name for t in work.tasks] == ["fft", "demod", "decode"]

    def test_total_matches_eq1(self, model):
        grant, work = make_work(model, iters=[3] * 6)
        assert work.total_serial_us == pytest.approx(model.total_time_for_grant(grant, 3))

    def test_total_with_mixed_iterations(self, model):
        grant, work = make_work(model, iters=[1, 2, 3, 4, 1, 2])
        mean_l = sum([1, 2, 3, 4, 1, 2]) / 6
        assert work.total_serial_us == pytest.approx(
            model.total_time_for_grant(grant, mean_l)
        )

    def test_fft_subtasks_per_antenna(self, model):
        _, work = make_work(model)
        fft = work.task("fft")
        assert fft.num_subtasks == 2  # N = 2 antennas
        assert fft.parallelizable

    def test_decode_subtasks_per_code_block(self, model):
        grant, work = make_work(model)
        assert work.task("decode").num_subtasks == grant.code_blocks

    def test_demod_is_serial(self, model):
        _, work = make_work(model)
        demod = work.task("demod")
        assert demod.num_subtasks == 0
        assert not demod.parallelizable

    def test_planned_durations_use_wcet(self, model):
        grant, work = make_work(model, iters=[1] * 6)
        decode = work.task("decode")
        for sub in decode.subtasks:
            # Planned with Lm = 4, actual with L = 1.
            assert sub.planned_us == pytest.approx(4 * sub.duration_us)

    def test_serial_variants(self, model):
        grant, work = make_work(model, parallelize_fft=False, parallelize_decode=False)
        assert work.task("fft").num_subtasks == 0
        assert work.task("decode").num_subtasks == 0
        assert work.total_serial_us == pytest.approx(model.total_time_for_grant(grant, 2))

    def test_iteration_count_mismatch_rejected(self, model):
        grant = UplinkGrant(mcs=27)
        with pytest.raises(ValueError):
            build_subframe_work(model, grant, [2, 2], max_iterations=4)

    def test_crc_flag_propagates(self, model):
        _, work = make_work(model, crc_pass=False)
        assert not work.crc_pass

    def test_unknown_task_raises(self, model):
        _, work = make_work(model)
        with pytest.raises(KeyError):
            work.task("fourier")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 27), st.lists(st.integers(1, 4), min_size=1, max_size=8))
    def test_property_total_positive_and_consistent(self, mcs, iters):
        model = LinearTimingModel()
        grant = UplinkGrant(mcs=mcs)
        iters = (iters * 8)[: grant.code_blocks]
        work = build_subframe_work(model, grant, iters, max_iterations=4)
        assert work.total_serial_us > 0
        mean_l = sum(iters) / len(iters)
        assert work.total_serial_us == pytest.approx(
            model.total_time_for_grant(grant, mean_l), rel=1e-9
        )


class TestOptimisticBounds:
    """The slack-check lower bound: one turbo iteration per code block."""

    def test_decode_bound_is_decode_at_one_iteration(self, model):
        _, work = make_work(model, iters=[1, 2, 3, 4, 1, 2])
        _, best = make_work(model, iters=[1] * 6)
        assert work.optimistic_decode_us == pytest.approx(
            best.task("decode").serial_duration_us
        )
        assert work.optimistic_decode_us < work.task("decode").serial_duration_us

    def test_whole_job_bound_adds_the_other_tasks(self, model):
        _, work = make_work(model, iters=[1, 2, 3, 4, 1, 2])
        other = work.task("fft").serial_duration_us + work.task("demod").serial_duration_us
        assert work.optimistic_total_us == pytest.approx(other + work.optimistic_decode_us)

    def test_serial_decode_has_no_iteration_term(self, model):
        _, work = make_work(model, iters=[4] * 6, parallelize_decode=False)
        assert work.optimistic_decode_us == work.task("decode").serial_duration_us
        assert work.optimistic_total_us == pytest.approx(work.total_serial_us)

    def test_tx_graph_without_decode(self):
        work = build_tx_work(DownlinkTimingModel(), UplinkGrant(mcs=13), noise_us=5.0)
        assert work.optimistic_decode_us == work.tasks[0].serial_duration_us
        assert work.optimistic_total_us == work.total_serial_us


class TestSpecValidation:
    def test_negative_subtask_duration_rejected(self):
        with pytest.raises(ValueError):
            SubtaskSpec(name="x", duration_us=-1.0, planned_us=1.0)

    def test_task_serial_duration(self):
        task = TaskSpec(
            name="t",
            serial_us=10.0,
            subtasks=(
                SubtaskSpec("a", 5.0, 5.0),
                SubtaskSpec("b", 7.0, 7.0),
            ),
            parallelizable=True,
        )
        assert task.serial_duration_us == pytest.approx(22.0)
