"""Deterministic discrete-event simulation engine.

The reproduction's substitute for the paper's pthread-pinned cores: a
microsecond-resolution virtual clock with a stable event queue.  RT-OPEX
(Algorithm 1) expresses its arrivals and decode starts as events; the
shared-queue schedulers merge their arrivals and core releases in a
loop of their own.  Determinism comes from seeded RNG streams
(:mod:`repro.sim.rng`) and a total event order (time, priority,
sequence number).
"""

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

__all__ = ["Simulator", "RngStreams"]
