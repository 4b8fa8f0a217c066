"""Shared test helpers: hand-built subframe jobs with known durations."""

import dataclasses

from repro.lte.grid import GridConfig
from repro.lte.subframe import Subframe, UplinkGrant
from repro.sched.base import SubframeJob
from repro.timing.model import LinearTimingModel
from repro.timing.tasks import build_subframe_work


def make_job(bs, index, mcs, iters, rtt=500.0, noise=0.0, antennas=2):
    """A SubframeJob with explicit per-code-block iteration counts.

    ``iters`` is cycled/truncated to the grant's code-block count, so
    ``make_job(0, 0, 27, [4])`` gives six blocks at four iterations.
    """
    grant = UplinkGrant(mcs=mcs, num_prbs=50, num_antennas=antennas)
    iters = (list(iters) * 8)[: grant.code_blocks]
    work = build_subframe_work(LinearTimingModel(), grant, iters, max_iterations=4)
    sf = Subframe(
        bs_id=bs, index=index, grant=grant, transport_latency_us=rtt, grid=GridConfig(10.0)
    )
    return SubframeJob(subframe=sf, work=work, noise_us=noise, load=mcs / 27.0)


def same_instant_cases():
    """Shared-queue scenarios where core releases and arrivals coincide.

    Returns ``{name: (jobs, num_cores, queue_capacity)}``.  Heavy MCS-27
    frames run past their deadline override, so each one frees its core
    exactly at that deadline; light MCS-5 frames arrive at the same
    instant.

    * ``release_with_room`` — one release at an arrival instant with one
      more core already idle and room in the queue;
    * ``release_with_full_queue`` — the same, but a 2-slot ring buffer is
      already holding a waiting frame, so the arrivals evict before the
      freed core dispatches;
    * ``two_releases_two_arrivals`` — two cores freed and two frames
      arriving at one instant, one more core idle throughout.
    """
    def at(job, arrival_us, deadline_us):
        return dataclasses.replace(
            job, arrival_override_us=arrival_us, deadline_override_us=deadline_us
        )

    def heavy(bs, deadline_us):
        return at(make_job(bs, 0, 27, [4]), 500.0, deadline_us)

    def light(bs, index, arrival_us, deadline_us=None):
        deadline = arrival_us + 1500.0 if deadline_us is None else deadline_us
        return at(make_job(bs, index, 5, [1]), arrival_us, deadline)

    # A heavy frame dispatched at t=500 starts at 512 (after the 12 us
    # dispatch overhead), overruns, and is terminated at this deadline.
    release = 1612.0

    return {
        "release_with_room": (
            [
                heavy(0, release),
                heavy(1, 2500.0),
                light(2, 1, release),
                light(3, 1, release),
                light(0, 1, release),
            ],
            3,
            256,
        ),
        "release_with_full_queue": (
            [
                heavy(0, release),
                heavy(1, 2500.0),
                light(2, 0, 600.0, 2300.0),
                light(3, 1, release),
                light(0, 1, release),
            ],
            2,
            2,
        ),
        "two_releases_two_arrivals": (
            [
                heavy(0, release),
                heavy(1, release),
                heavy(2, 2500.0),
                light(3, 1, release),
                light(0, 1, release),
            ],
            4,
            256,
        ),
    }
