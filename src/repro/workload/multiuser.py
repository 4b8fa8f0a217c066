"""Multi-user workload construction.

Splits each subframe's offered load across 1-4 users with random PRB
allocations — the "realistic scenario with multiple users and varying
PRB utilization" the paper's sec. 4.2 describes but could not capture
off the air.  The offered bits match the single-user mapping (every
user runs at the spectral efficiency the load calls for, and unused
PRBs stay idle below full load), so single- vs multi-user runs compare
the *same* traffic through different task granularities.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.lte.grid import GridConfig
from repro.lte.subframe import Subframe, interned_grant
from repro.sched.base import CRanConfig, SubframeJob
from repro.sim.rng import RngStreams
from repro.timing.iterations import IterationModel
from repro.timing.model import LinearTimingModel
from repro.timing.multiuser import build_multiuser_work
from repro.timing.platform import PlatformNoiseModel
from repro.workload.mapping import GrantMapper
from repro.workload.traces import CellularTraceGenerator

if TYPE_CHECKING:
    from repro.workload.classes import ServiceMix

#: Smallest per-user allocation worth scheduling (PRBs).
MIN_USER_PRBS = 4


def split_prbs(total: int, num_users: int, rng: np.random.Generator) -> List[int]:
    """Random composition of ``total`` PRBs with a minimum share each.

    Every returned share is ``>= MIN_USER_PRBS`` and the shares sum to
    ``total``, shrinking ``num_users`` when the request cannot satisfy
    the minimum.  Degenerate case, explicitly allowed: when
    ``0 < total < MIN_USER_PRBS`` the grid cannot host even one
    minimum-sized allocation, so the single user takes the whole
    (sub-minimum) grant — ``[total]`` — rather than pretending at PRBs
    that do not exist.  ``total < 1`` or ``num_users < 1`` is a caller
    bug and raises.
    """
    if total < 1:
        raise ValueError(f"cannot split {total} PRBs: need at least 1")
    if num_users < 1:
        raise ValueError(f"num_users must be >= 1, got {num_users}")
    if total < num_users * MIN_USER_PRBS:
        num_users = max(1, total // MIN_USER_PRBS)
    if num_users == 1:
        return [total]
    cuts = np.sort(
        rng.choice(
            np.arange(1, total - num_users * (MIN_USER_PRBS - 1)),
            size=num_users - 1,
            replace=False,
        )
    )
    parts = np.diff(np.concatenate([[0], cuts, [total - num_users * (MIN_USER_PRBS - 1)]]))
    return [int(p) + MIN_USER_PRBS - 1 for p in parts]


def build_multiuser_workload(
    config: CRanConfig,
    num_subframes: int,
    seed: int = 2016,
    loads: Optional[np.ndarray] = None,
    max_users: int = 4,
    full_prb: bool = True,
    timing_model: Optional[LinearTimingModel] = None,
    iteration_model: Optional[IterationModel] = None,
    noise_model: Optional[PlatformNoiseModel] = None,
    mix: Optional["ServiceMix"] = None,
) -> List[SubframeJob]:
    """Materialize a multi-user workload over the standard traces.

    With ``full_prb=True`` (default) every subframe occupies all 50
    PRBs split across a random number of users at the load's spectral
    efficiency — byte-comparable to the single-user workload, only the
    task granularity differs.  With ``full_prb=False`` the occupied PRB
    count itself scales with load ("varying PRB utilization").

    ``mix`` optionally assigns each *user* a traffic class by share
    (drawn from the dedicated ``mu-class`` stream, so passing no mix
    leaves the workload byte-identical to before).  The subframe-level
    job is as urgent as its most critical user: its deadline is the
    minimum per-user budget and its class tag that user's class.
    """
    if max_users < 1:
        raise ValueError("max_users must be >= 1")
    streams = RngStreams(seed)
    timing = timing_model if timing_model is not None else LinearTimingModel()
    iters = iteration_model if iteration_model is not None else IterationModel(
        max_iterations=config.max_iterations
    )
    noise = noise_model if noise_model is not None else PlatformNoiseModel()
    mapper = GrantMapper(num_antennas=config.num_antennas)

    if loads is None:
        generator = CellularTraceGenerator(seed=seed)
        loads = generator.generate(num_subframes)[: config.num_basestations]
    loads = np.asarray(loads, dtype=np.float64)
    if loads.shape != (config.num_basestations, num_subframes):
        raise ValueError(
            f"loads must be shaped {(config.num_basestations, num_subframes)}"
        )

    grid = GridConfig(10.0)
    split_rng = streams.stream("mu-split")
    iter_rng = streams.stream("mu-iterations")
    noise_rng = streams.stream("mu-noise")
    class_rng = streams.stream("mu-class") if mix is not None else None
    mix_shares = None
    if mix is not None:
        mix_shares = np.array([c.share for c in mix.classes], dtype=np.float64)
        mix_shares = mix_shares / mix_shares.sum()

    # One vectorized pass over the whole trace instead of a per-subframe
    # table walk; elementwise identical to mcs_for_load (see mapping.py).
    mcs_all = mapper.mcs_for_trace(loads).tolist()
    load_all = loads.tolist()

    jobs: List[SubframeJob] = []
    for bs in range(config.num_basestations):
        for j in range(num_subframes):
            load = load_all[bs][j]
            mcs = mcs_all[bs][j]
            if full_prb:
                occupied = 50
            else:
                occupied = max(MIN_USER_PRBS, int(round(load * 50)))
            num_users = int(split_rng.integers(1, max_users + 1))
            shares = split_prbs(occupied, num_users, split_rng)
            if mix is None:
                user_classes = None
            elif mix.is_single_class:
                user_classes = [mix.classes[0]] * len(shares)
            else:
                draws = class_rng.choice(
                    len(mix.classes), size=len(shares), p=mix_shares
                )
                user_classes = [mix.classes[int(d)] for d in draws]
            grants = [interned_grant(mcs, p, config.num_antennas) for p in shares]
            per_user_iters = []
            crc_ok = True
            for grant in grants:
                draw = iters.draw_subframe(
                    grant.mcs, config.snr_db, iter_rng, num_blocks=grant.code_blocks
                )
                per_user_iters.append(draw.iterations)
                crc_ok = crc_ok and draw.crc_pass
            work = build_multiuser_work(
                timing,
                grants,
                per_user_iters,
                max_iterations=config.max_iterations,
                crc_pass=crc_ok,
            )
            # Identity subframe: keep the first grant for bookkeeping.
            subframe = Subframe(
                bs_id=bs,
                index=j,
                grant=grants[0],
                snr_db=config.snr_db,
                transport_latency_us=config.transport_latency_us,
                grid=grid,
            )
            if user_classes:
                # The subframe finishes when its slowest user decodes, so
                # the job inherits the *tightest* user budget present.
                critical = min(user_classes, key=lambda c: c.delay_budget_us)
                deadline_override = subframe.air_time_us + critical.delay_budget_us
                service = critical.name
            else:
                deadline_override = None
                service = "embb"
            jobs.append(
                SubframeJob(
                    subframe=subframe,
                    work=work,
                    noise_us=noise.draw_one(noise_rng),
                    load=load,
                    deadline_override_us=deadline_override,
                    service=service,
                )
            )
    return jobs
