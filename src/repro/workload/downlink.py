"""Downlink (Tx) job construction for the Tx-aware extension.

Builds the encode job stream that accompanies an uplink workload: one
Tx job per basestation per subframe, arriving one subframe before its
over-the-air transmission (Fig. 8) and due at the transmission instant
minus the transport latency to the radio.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.constants import SUBFRAME_US
from repro.lte.subframe import Subframe
from repro.sched.base import CRanConfig, SubframeJob
from repro.sched.runner import resolve_loads
from repro.sim.rng import RngStreams
from repro.timing.downlink import DownlinkTimingModel, build_tx_work
from repro.timing.platform import PlatformNoiseModel
from repro.workload.mapping import GrantMapper


def build_tx_jobs(
    config: CRanConfig,
    num_subframes: int,
    seed: int = 2016,
    loads: Optional[np.ndarray] = None,
    timing_model: Optional[DownlinkTimingModel] = None,
    noise_model: Optional[PlatformNoiseModel] = None,
    mapper: Optional[GrantMapper] = None,
) -> List[SubframeJob]:
    """One downlink encode job per (basestation, subframe).

    ``loads`` drives the downlink MCS the same way the uplink builder
    works; by default an independent trace (seed offset) is generated,
    since downlink and uplink traffic are not the same.
    """
    streams = RngStreams(seed + 7)
    timing = timing_model if timing_model is not None else DownlinkTimingModel()
    noise = noise_model if noise_model is not None else PlatformNoiseModel()
    grants = mapper if mapper is not None else GrantMapper(num_antennas=config.num_antennas)
    loads = resolve_loads(config, num_subframes, seed + 7, loads)

    noise_rng = streams.stream("tx-noise")
    jobs: List[SubframeJob] = []
    for bs in range(config.num_basestations):
        for k in range(1, num_subframes):
            load = float(loads[bs, k])
            grant = grants.grant_for_load(load)
            work = build_tx_work(timing, grant, noise_us=noise.draw_one(noise_rng))
            subframe = Subframe(
                bs_id=bs,
                index=k,
                grant=grant,
                snr_db=config.snr_db,
                transport_latency_us=config.transport_latency_us,
            )
            jobs.append(
                SubframeJob(
                    subframe=subframe,
                    work=work,
                    noise_us=0.0,  # already folded into the tx task
                    load=load,
                    kind="tx",
                    # Encoding starts 1 ms before over-the-air Tx ...
                    arrival_us=(k - 1) * SUBFRAME_US,
                    # ... and the samples must reach the radio in time.
                    deadline_us=k * SUBFRAME_US - config.transport_latency_us,
                )
            )
    return jobs
