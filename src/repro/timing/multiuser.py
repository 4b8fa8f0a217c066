"""Multi-user subframe task graphs.

The paper's evaluation assumes "a single user uplink transmission and
100% PRB utilization" and notes this "constitutes a conservative
scenario ... This reduces, on average, the opportunities of migrations
(resulting in lower performance gains) as compared to a realistic
scenario with multiple users and varying PRB utilization" (sec. 4.2).
They could not locate decodable multi-user traces; the simulation has
no such constraint, so this module builds the realistic variant.

A multi-user subframe carries several grants, each over its own PRB
slice.  Eq. (1) generalizes per user with each user's terms weighted by
its share of the subframe's resource elements:

``Trxproc = w0 + w1*N + sum_u frac_u * (w2*K_u + w3*D_u*L_u)``

which reduces exactly to Eq. (1) for one user at 100% PRBs.  Each
user's transport block segments into its own code blocks, so the decode
task has *more, smaller* subtasks — precisely the granularity RT-OPEX
packs into gaps.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.timing.model import LinearTimingModel
from repro.timing.tasks import SubframeWork, SubtaskSpec, TaskSpec


def _check_grants(grants) -> int:
    if not grants:
        raise ValueError("need at least one grant")
    antennas = {g.num_antennas for g in grants}
    if len(antennas) != 1:
        raise ValueError("all users share the basestation's antenna count")
    total_prbs = sum(g.num_prbs for g in grants)
    if total_prbs > 110:
        raise ValueError(f"PRB allocations sum to {total_prbs} > 110")
    return total_prbs


def build_multiuser_work(
    model: LinearTimingModel,
    grants: Sequence,
    per_user_iterations: Sequence[Sequence[int]],
    max_iterations: int,
    subframe_prbs: int = 50,
    crc_pass: bool = True,
) -> SubframeWork:
    """Task graph for a subframe shared by several users.

    ``per_user_iterations[u]`` holds user ``u``'s per-code-block turbo
    iteration counts.  FFT stays per-antenna (the samples are shared);
    demod and the decode prologue carry each user's constellation terms
    weighted by its PRB fraction; the decode task has one subtask per
    (user, code block).
    """
    total_prbs = _check_grants(grants)
    if total_prbs > subframe_prbs:
        raise ValueError(
            f"allocations ({total_prbs} PRBs) exceed the subframe ({subframe_prbs})"
        )
    if len(per_user_iterations) != len(grants):
        raise ValueError("need one iteration list per grant")

    num_antennas = grants[0].num_antennas
    fft_sub = model.fft_subtask_time()
    fft = TaskSpec(
        name="fft",
        serial_us=0.0,
        subtasks=tuple(
            SubtaskSpec(f"fft/ant{a}", fft_sub, fft_sub) for a in range(num_antennas)
        ),
        parallelizable=True,
    )

    # Effective modulation-order term: per-user K weighted by PRB share.
    effective_k = sum(
        g.modulation_order * (g.num_prbs / subframe_prbs) for g in grants
    )
    demod = TaskSpec(
        name="demod",
        serial_us=model.demod_task_time(num_antennas, 0)
        + 0.5 * model.coefficients.w2 * effective_k,
    )
    # demod_task_time(·, 0) contributed w0 + non-FFT antenna time; the
    # constellation half-share is added with the effective K above.

    prologue = model.decode_prologue_time(1) * effective_k
    # decode_prologue_time is linear in K, so evaluate at K=1 and scale.

    subtasks: List[SubtaskSpec] = []
    all_iterations: List[int] = []
    for u, (grant, iterations) in enumerate(zip(grants, per_user_iterations)):
        blocks = grant.code_blocks
        if len(iterations) != blocks:
            raise ValueError(
                f"user {u}: need {blocks} iteration counts, got {len(iterations)}"
            )
        # Bits per RE over the user's own PRBs, weighted by its PRB share.
        load = grant.subcarrier_load * (grant.num_prbs / subframe_prbs)
        planned = model.decode_subtask_time(load, float(max_iterations), blocks)
        for cb, l in enumerate(iterations):
            subtasks.append(
                SubtaskSpec(
                    name=f"decode/u{u}cb{cb}",
                    duration_us=model.decode_subtask_time(load, float(l), blocks),
                    planned_us=planned,
                )
            )
            all_iterations.append(int(l))

    decode = TaskSpec(
        name="decode", serial_us=prologue, subtasks=tuple(subtasks), parallelizable=True
    )
    return SubframeWork(
        tasks=(fft, demod, decode),
        iterations=tuple(all_iterations),
        crc_pass=crc_pass,
    )
