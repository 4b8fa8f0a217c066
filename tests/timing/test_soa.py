"""Columnar workload pieces agree with their scalar definitions, bit for bit.

The workload builder draws and maps whole traces at once; each batch
form must match the per-subframe definition it replaces:

* :func:`build_subframe_work`'s shared specs must carry exactly the
  Eq. (1) values of their subframe (hypothesis-driven over the whole
  (MCS, iterations, CRC) space), and equal values must share one
  instance;
* :meth:`IterationModel.draw_trace` must consume the RNG bitstream
  exactly as per-subframe :meth:`draw_subframe` calls, leaving the
  generator in the same end state;
* :meth:`GrantMapper.mcs_for_trace` must agree elementwise with
  :meth:`mcs_for_load`.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.lte.subframe import interned_grant
from repro.sched.base import CRanConfig
from repro.timing.iterations import IterationModel
from repro.timing.model import LinearTimingModel
from repro.timing.tasks import build_subframe_work
from repro.workload.mapping import GrantMapper

MODEL = LinearTimingModel()
MAX_ITERATIONS = 8


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 27), st.data(), st.booleans())
def test_shared_specs_carry_model_durations(mcs, data, crc):
    """Shared specs hold exactly the Eq. (1) values for their subframe."""
    grant = interned_grant(mcs)
    iterations = data.draw(
        st.lists(
            st.integers(1, MAX_ITERATIONS),
            min_size=grant.code_blocks,
            max_size=grant.code_blocks,
        )
    )
    work = build_subframe_work(MODEL, grant, iterations, MAX_ITERATIONS, crc_pass=crc)
    again = build_subframe_work(MODEL, grant, list(iterations), MAX_ITERATIONS, crc_pass=crc)
    fft, demod, decode = work.tasks
    assert [s.name for s in fft.subtasks] == ["fft/ant0", "fft/ant1"]
    assert all(s.duration_us == MODEL.fft_subtask_time() for s in fft.subtasks)
    assert demod.serial_us == MODEL.demod_task_time(2, grant.modulation_order)
    assert decode.serial_us == MODEL.decode_prologue_time(grant.modulation_order)
    load, blocks = grant.subcarrier_load, grant.code_blocks
    planned = MODEL.decode_subtask_time(load, float(MAX_ITERATIONS), blocks)
    for cb, (spec, l) in enumerate(zip(decode.subtasks, iterations)):
        assert spec.name == f"decode/cb{cb}"
        assert spec.duration_us == MODEL.decode_subtask_time(load, float(l), blocks)
        assert spec.planned_us == planned
    assert work == again and work.crc_pass is crc
    # Equal graphs share their fft/demod tasks and every subtask.
    assert again.tasks[0] is fft and again.tasks[1] is demod
    assert all(a is b for a, b in zip(again.tasks[2].subtasks, decode.subtasks))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(0, 27), min_size=1, max_size=40),
    st.integers(0, 2**31 - 1),
    st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
)
def test_draw_trace_matches_scalar_stream(mcs_list, seed, snr_db):
    """draw_trace == per-subframe draw_subframe calls, same end state."""
    model = IterationModel(max_iterations=MAX_ITERATIONS)
    mcs = np.asarray(mcs_list, dtype=np.int64)
    blocks = np.array([interned_grant(m).code_blocks for m in mcs_list], dtype=np.int64)
    offsets = np.zeros(mcs.size + 1, dtype=np.int64)
    np.cumsum(blocks, out=offsets[1:])

    batch_rng = np.random.default_rng(seed)
    scalar_rng = np.random.default_rng(seed)
    draw = model.draw_trace(mcs, snr_db, batch_rng, offsets)

    scalar_iterations, scalar_crc = [], []
    for i, m in enumerate(mcs_list):
        d = model.draw_subframe(m, snr_db, scalar_rng, num_blocks=int(blocks[i]))
        scalar_iterations.extend(d.iterations)
        scalar_crc.append(d.crc_pass)
    assert draw.iterations.tolist() == scalar_iterations
    assert draw.crc_pass.tolist() == scalar_crc
    # The generators consumed the exact same bitstream.
    assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=1, max_size=64))
def test_mcs_for_trace_matches_scalar(loads):
    mapper = GrantMapper()
    vec = mapper.mcs_for_trace(np.array(loads))
    assert vec.tolist() == [mapper.mcs_for_load(l) for l in loads]


def test_mcs_for_trace_rejects_out_of_range():
    mapper = GrantMapper()
    for bad in ([-0.1], [1.1], [0.5, float("nan")]):
        try:
            mapper.mcs_for_trace(np.array(bad))
        except ValueError as exc:
            assert "load must be in [0, 1]" in str(exc)
        else:
            raise AssertionError(f"{bad} should have raised")


def test_workload_fast_path_interns_value_objects():
    """Equal subframes share grant/work instances."""
    from repro.sched.runner import build_workload

    cfg = CRanConfig(transport_latency_us=500.0)
    jobs = build_workload(cfg, 200, seed=2016)
    grants = {id(j.subframe.grant) for j in jobs}
    mcs_values = {j.subframe.grant.mcs for j in jobs}
    assert len(grants) == len(mcs_values)  # one instance per MCS
    works = {id(j.work) for j in jobs}
    assert len(works) < len(jobs)  # repeated draws collapse
    # One shared instance per distinct SubtaskSpec value.
    specs = [s for j in jobs for t in j.work.tasks for s in t.subtasks]
    assert len({id(s) for s in specs}) == len(set(specs))


def test_mapper_override_reaches_the_jobs():
    """A mapper subclass overriding ``mcs_for_trace`` sets the jobs' MCS."""
    from repro.sched.runner import build_workload

    class SlowMapper(GrantMapper):
        def mcs_for_trace(self, loads):
            return np.maximum(super().mcs_for_trace(loads) - 1, 0)

    cfg = CRanConfig(transport_latency_us=500.0)
    slow = build_workload(cfg, 40, seed=2016, mapper=SlowMapper())
    plain = build_workload(cfg, 40, seed=2016)
    assert [j.subframe.grant.mcs for j in slow] == [
        max(j.subframe.grant.mcs - 1, 0) for j in plain
    ]
