"""Array-native workload pipeline: columns first, task graphs shared.

Two layers.  ``build_workload_arrays`` runs the per-subframe part of the
evaluation workload — load trace → MCS → per-code-block iteration draws
→ platform noise and RTT/2 — as numpy columns, producing a
:class:`WorkloadArrays` whose only per-subframe Python work is the
stream-exact RNG replay (:meth:`IterationModel.draw_trace`) and the
platform-noise draw (whose conditional uniforms preclude batching).
``materialize_jobs`` then builds the
:class:`~repro.sched.base.SubframeJob` list, calling
:func:`~repro.timing.tasks.build_subframe_work` — the one task-graph
builder — once per distinct (MCS, iteration vector, CRC) and sharing
the result, with one interned grant per MCS.

The contract is byte-identity: for the default model types the job list
compares equal, field for field, with the scalar builder retained as
``build_workload_legacy`` in :mod:`repro.sched.runner` — both start from
:func:`~repro.sched.runner.resolve_workload_inputs`, consume the RNG
streams bit-for-bit identically and build task graphs with the same
function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.lte.grid import GridConfig
from repro.lte.subframe import Subframe, interned_grant
from repro.sched.base import CRanConfig, SubframeJob
from repro.sched.runner import resolve_workload_inputs
from repro.sim.rng import RngStreams
from repro.timing.iterations import IterationModel
from repro.timing.model import LinearTimingModel
from repro.timing.platform import PlatformNoiseModel
from repro.timing.tasks import SubframeWork, build_subframe_work
from repro.workload.mapping import GrantMapper


@dataclass(frozen=True)
class WorkloadArrays:
    """Columnar form of one experiment's workload.

    Per-subframe columns are ordered basestation-major — exactly the
    legacy builder's ``(bs, subframe)`` loop order, so materialized
    jobs come out in the same sequence.  ``iterations`` is the flat
    per-code-block draw; ``block_offsets[i]:block_offsets[i + 1]`` is
    subframe ``i``'s slice of it.
    """

    snr_db: float
    num_prbs: int
    num_antennas: int
    max_iterations: int
    timing_model: LinearTimingModel
    bs_id: np.ndarray
    subframe_index: np.ndarray
    load: np.ndarray
    mcs: np.ndarray
    transport_latency_us: np.ndarray
    noise_us: np.ndarray
    crc_pass: np.ndarray
    iterations: np.ndarray
    block_offsets: np.ndarray

    @property
    def num_jobs(self) -> int:
        return len(self.mcs)


def build_workload_arrays(
    config: CRanConfig,
    num_subframes: int,
    seed: int = 2016,
    loads: Optional[np.ndarray] = None,
    timing_model: Optional[LinearTimingModel] = None,
    iteration_model: Optional[IterationModel] = None,
    noise_model: Optional[PlatformNoiseModel] = None,
    mapper: Optional[GrantMapper] = None,
    transport_jitter: Optional[np.ndarray] = None,
) -> WorkloadArrays:
    """Columnar equivalent of :func:`repro.sched.runner.build_workload`.

    Accepts the same parameters and consumes the same RNG streams in
    the same order; see the module docstring for the identity contract.
    """
    streams = RngStreams(seed)
    timing, iters, noise, grants, loads, transport_us = resolve_workload_inputs(
        config, num_subframes, seed, loads, timing_model, iteration_model,
        noise_model, mapper, transport_jitter,
    )

    load_flat = loads.ravel()  # C order == the legacy (bs, subframe) loop
    n = load_flat.size
    mcs = grants.mcs_for_trace(load_flat)

    distinct_mcs, inverse = np.unique(mcs, return_inverse=True)
    code_blocks = np.array(
        [
            interned_grant(int(m), grants.num_prbs, grants.num_antennas).code_blocks
            for m in distinct_mcs
        ],
        dtype=np.int64,
    )
    block_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(code_blocks[inverse], out=block_offsets[1:])

    draw = iters.draw_trace(mcs, config.snr_db, streams.stream("iterations"), block_offsets)

    # The noise model's conditional spike/tail uniforms consume a
    # data-dependent number of stream doubles, so this stays a scalar
    # loop — three cheap rng calls per subframe.
    noise_rng = streams.stream("platform-noise")
    noise_us = np.array([noise.draw_one(noise_rng) for _ in range(n)], dtype=np.float64)

    return WorkloadArrays(
        snr_db=config.snr_db,
        num_prbs=grants.num_prbs,
        num_antennas=grants.num_antennas,
        max_iterations=config.max_iterations,
        timing_model=timing,
        bs_id=np.repeat(np.arange(config.num_basestations, dtype=np.int64), num_subframes),
        subframe_index=np.tile(
            np.arange(num_subframes, dtype=np.int64), config.num_basestations
        ),
        load=load_flat,
        mcs=mcs,
        transport_latency_us=transport_us.ravel(),
        noise_us=noise_us,
        crc_pass=draw.crc_pass,
        iterations=draw.iterations,
        block_offsets=block_offsets,
    )


def materialize_jobs(arrays: WorkloadArrays) -> List[SubframeJob]:
    """Materialize the job list from the columnar workload.

    One grant per MCS and one :class:`~repro.timing.tasks.SubframeWork`
    per distinct (MCS, iteration vector, CRC) are built and shared, so
    the job list allocates O(distinct) value objects instead of
    O(subframes).
    """
    grid = GridConfig(10.0)
    mcs = arrays.mcs.tolist()
    bs_id = arrays.bs_id.tolist()
    index = arrays.subframe_index.tolist()
    latency = arrays.transport_latency_us.tolist()
    noise = arrays.noise_us.tolist()
    load = arrays.load.tolist()
    crc = arrays.crc_pass.tolist()
    iterations = arrays.iterations.tolist()
    bounds = arrays.block_offsets.tolist()
    snr_db = arrays.snr_db
    grants = {
        m: interned_grant(m, arrays.num_prbs, arrays.num_antennas) for m in set(mcs)
    }
    works: Dict[Tuple[int, Tuple[int, ...], bool], SubframeWork] = {}
    jobs = []
    for i, m in enumerate(mcs):
        drawn = tuple(iterations[bounds[i]:bounds[i + 1]])
        key = (m, drawn, crc[i])
        work = works.get(key)
        if work is None:
            work = works[key] = build_subframe_work(
                arrays.timing_model,
                grants[m],
                drawn,
                max_iterations=arrays.max_iterations,
                crc_pass=crc[i],
            )
        jobs.append(
            SubframeJob(
                subframe=Subframe(
                    bs_id=bs_id[i],
                    index=index[i],
                    grant=grants[m],
                    snr_db=snr_db,
                    transport_latency_us=latency[i],
                    grid=grid,
                ),
                work=work,
                noise_us=noise[i],
                load=load[i],
            )
        )
    return jobs
