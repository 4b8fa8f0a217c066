"""Mixed-service workload construction.

``build_mixed_workload`` layers a :class:`~repro.workload.classes.ServiceMix`
over the standard trace-driven workload: each (basestation, subframe)
slot is assigned a traffic class by share, its load is scaled and
burst-shaped per the class profile, and the materialized job carries
the class tag plus the class's packet-delay-budget deadline.

Determinism contract: class assignment and burst envelopes draw from
their own named RNG streams (``service-class``, ``burst``), so the
iteration and platform-noise streams see exactly the sequence the
single-class builder gives them for the same load values.  A
single-class eMBB mix takes the fast path straight through
:func:`~repro.sched.runner.build_workload` — byte-identical jobs,
which is what the golden-trace suite pins.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

import numpy as np

from repro.constants import RX_BUDGET_US
from repro.sched.base import CRanConfig, SubframeJob
from repro.sim.rng import RngStreams
from repro.workload.bursty import burst_envelope, shape_loads
from repro.workload.classes import DEFAULT_SERVICE, ServiceMix, single_class_mix


def _is_plain_embb(mix: ServiceMix) -> bool:
    if not mix.is_single_class:
        return False
    cls = mix.classes[0]
    return (
        cls.name == DEFAULT_SERVICE
        and cls.delay_budget_us == RX_BUDGET_US
        and cls.burst == "steady"
        and cls.load_scale == 1.0
    )


def mixed_loads(
    mix: ServiceMix,
    base_loads: np.ndarray,
    seed: int,
) -> tuple:
    """Assign classes and shape loads; returns ``(assignment, shaped)``.

    ``assignment[bs, sf]`` indexes into ``mix.classes``; ``shaped`` is
    the burst-shaped load matrix the workload builder consumes.  Both
    are functions of (mix, base_loads, seed) only.
    """
    base_loads = np.asarray(base_loads, dtype=np.float64)
    num_bs, num_sf = base_loads.shape
    streams = RngStreams(seed)
    assignment = mix.assign(num_bs, num_sf, streams.stream("service-class"))
    burst_rng = streams.stream("burst")
    shaped = np.empty_like(base_loads)
    # Envelopes are drawn in class order so the stream consumption is
    # independent of the (random) assignment matrix.
    for ci, cls in enumerate(mix.classes):
        env = burst_envelope(cls.burst, num_sf, burst_rng)
        class_view = shape_loads(base_loads, env, cls.load_scale)
        mask = assignment == ci
        shaped[mask] = class_view[mask]
    return assignment, shaped


def build_mixed_workload(
    config: CRanConfig,
    num_subframes: int,
    mix: Optional[ServiceMix] = None,
    seed: int = 2016,
    loads: Optional[np.ndarray] = None,
) -> List[SubframeJob]:
    """Materialize the per-subframe jobs of a mixed-service scenario.

    Each job is tagged with its class and carries
    ``deadline_override_us = air_time + delay_budget`` so every
    scheduler — none of which know about classes — enforces the
    per-class budget through the ordinary deadline field.
    """
    # Imported here: repro.sched.runner itself imports repro.workload.
    from repro.sched.runner import build_workload, resolve_loads
    if mix is None:
        mix = single_class_mix()
    for cls in mix.classes:
        if cls.delay_budget_us <= config.transport_latency_us:
            raise ValueError(
                f"class {cls.name!r} budget {cls.delay_budget_us:g}us does not "
                f"clear the transport latency {config.transport_latency_us:g}us"
            )
    loads = resolve_loads(config, num_subframes, seed, loads)

    if _is_plain_embb(mix):
        # Fast path: today's workload, bit for bit.
        return build_workload(config, num_subframes, seed=seed, loads=loads)

    assignment, shaped = mixed_loads(mix, loads, seed)
    jobs = build_workload(config, num_subframes, seed=seed, loads=shaped)

    assign_list = assignment.tolist()
    tagged: List[SubframeJob] = []
    for job in jobs:
        sf = job.subframe
        cls = mix.classes[assign_list[sf.bs_id][sf.index]]
        tagged.append(
            replace(
                job,
                service=cls.name,
                deadline_override_us=sf.air_time_us + cls.delay_budget_us,
            )
        )
    return tagged
