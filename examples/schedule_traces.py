#!/usr/bin/env python
"""Render the paper's schedule examples (Figs. 9-11) from real runs.

Drives the simulator over a tiny two-basestation scenario and prints
ASCII timelines: the partitioned schedule with its idle gaps and a
deadline miss (Fig. 9), the global schedule with queueing (Fig. 10),
and RT-OPEX migrating a decode subtask into another core's gap
(Fig. 11).

Run:  python examples/schedule_traces.py
"""

from repro import CRanConfig, run_scheduler
from repro.lte.subframe import Subframe, UplinkGrant
from repro.sched.base import SubframeJob
from repro.timing.model import LinearTimingModel
from repro.timing.tasks import build_subframe_work

US_PER_CHAR = 50.0
SPAN_US = 8000.0


def make_job(bs: int, index: int, mcs: int, iters, rtt: float) -> SubframeJob:
    grant = UplinkGrant(mcs=mcs, num_prbs=50, num_antennas=2)
    work = build_subframe_work(
        LinearTimingModel(), grant, list(iters)[: grant.code_blocks] or [1], max_iterations=4
    )
    sf = Subframe(bs_id=bs, index=index, grant=grant, transport_latency_us=rtt)
    return SubframeJob(
        subframe=sf, work=work, noise_us=5.0, load=mcs / 27.0,
        arrival_us=sf.arrival_us, deadline_us=sf.deadline_us,
    )


def timeline(records, num_cores: int, title: str) -> str:
    chars = int(SPAN_US / US_PER_CHAR)
    rows = [[" "] * chars for _ in range(num_cores)]
    for r in records:
        if r.core_id < 0 or r.finish_us != r.finish_us:
            continue
        a = int(r.start_us / US_PER_CHAR)
        b = max(a + 1, int(r.finish_us / US_PER_CHAR))
        glyph = "X" if (r.missed or r.dropped) else str(r.bs_id)
        for col in range(a, min(b, chars)):
            rows[r.core_id][col] = glyph
    lines = [title]
    axis = "".join("|" if i % 20 == 0 else "-" for i in range(chars))
    lines.append("time    " + axis + "  (| = 1 ms)")
    for c in range(num_cores):
        lines.append(f"core {c}  " + "".join(rows[c]))
    return "\n".join(lines)


def main() -> None:
    rtt = 600.0
    # Basestation 0 alternates heavy subframes; basestation 1 stays light.
    jobs = []
    for j in range(6):
        heavy = j % 2 == 0
        mcs = 27 if heavy else 6
        iters = [4, 4, 3, 4, 3, 4] if heavy else [1]
        jobs.append(make_job(0, j, mcs, iters, rtt))
        jobs.append(make_job(1, j, 6, [1], rtt))

    cfg = CRanConfig(num_basestations=2, cores_per_bs=2, transport_latency_us=rtt)

    part = run_scheduler("partitioned", cfg, jobs)
    print(timeline(part.records, 4, "Fig. 9-style: partitioned (X = deadline miss)"))
    print(f"  misses: {part.miss_count()} of {len(part)}\n")

    cfg_g = CRanConfig(num_basestations=2, cores_per_bs=2, transport_latency_us=rtt, num_cores=2)
    glob = run_scheduler("global", cfg_g, jobs)
    print(timeline(glob.records, 2, "Fig. 10-style: global on 2 cores (queueing visible)"))
    print(f"  misses: {glob.miss_count()} of {len(glob)}\n")

    opex = run_scheduler("rt-opex", cfg, jobs)
    print(timeline(opex.records, 4, "Fig. 11-style: RT-OPEX (same workload as Fig. 9)"))
    migrations = sum(len(r.migrations) for r in opex.records)
    print(f"  misses: {opex.miss_count()} of {len(opex)}; migration batches: {migrations}")
    for r in opex.records:
        for m in r.migrations:
            if m.task == "decode" and m.num_subtasks:
                print(
                    f"  subframe ({r.bs_id},{r.index}) migrated {m.num_subtasks} decode "
                    f"subtask(s) to core {m.target_core}"
                )


if __name__ == "__main__":
    main()
