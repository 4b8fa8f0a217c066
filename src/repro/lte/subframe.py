"""Subframe and grant dataclasses — the unit of work in the scheduler.

A :class:`Subframe` is what the transport component hands to the
processing component every 1 ms per basestation (paper sec. 3).  It
carries everything the timing model and the schedulers need: the uplink
grant (MCS, PRBs, antennas), the channel state (SNR), and the arrival
time at the compute node (subframe boundary + transport latency).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from dataclasses import dataclass

from repro.constants import RX_BUDGET_US, SUBFRAME_US
from repro.lte.mcs import modulation_order, subcarrier_load, transport_block_size
from repro.lte.segmentation import num_code_blocks


@dataclass(frozen=True)
class UplinkGrant:
    """Uplink scheduling grant for a single-user subframe.

    The paper's evaluation assumes a single user at 100% PRB utilization,
    varying MCS according to the load trace; multi-user subframes are
    expressed as multiple grants in :mod:`repro.workload`.  The traffic
    class lives on the job (``SubframeJob.service``), not on the grant.
    """

    mcs: int
    num_prbs: int = 50
    num_antennas: int = 2

    def __post_init__(self) -> None:
        if self.num_antennas < 1:
            raise ValueError("num_antennas must be >= 1")
        if self.num_prbs < 1:
            raise ValueError("num_prbs must be >= 1")
        # Validate MCS eagerly so bad grants fail at construction.
        modulation_order(self.mcs)

    @property
    def tbs_bits(self) -> int:
        """Transport block size in bits."""
        return transport_block_size(self.mcs, self.num_prbs)

    @property
    def modulation_order(self) -> int:
        """Q_m — the ``K`` term of Eq. (1)."""
        return modulation_order(self.mcs)

    @property
    def subcarrier_load(self) -> float:
        """``D`` — data bits per resource element."""
        return subcarrier_load(self.mcs, self.num_prbs)

    @property
    def code_blocks(self) -> int:
        """Number of independently decodable turbo code blocks."""
        return num_code_blocks(self.tbs_bits)


@lru_cache(maxsize=None)
def interned_grant(mcs: int, num_prbs: int = 50, num_antennas: int = 2) -> UplinkGrant:
    """A shared :class:`UplinkGrant` instance for a grant shape.

    Grants are frozen value objects, so workload builders that create
    one per (basestation, subframe) slot can share a single instance per
    distinct (mcs, prbs, antennas) tuple — the key space the
    evaluation exercises is tiny, while the construction (with its
    eager MCS validation) is not free at fleet scale.
    """
    return UplinkGrant(mcs=mcs, num_prbs=num_prbs, num_antennas=num_antennas)


@dataclass(frozen=True)
class Subframe:
    """One uplink subframe awaiting decode on the compute node.

    Attributes
    ----------
    bs_id:
        Basestation index (the paper's notation ``(i, j)`` is
        ``(bs_id, index)``).
    index:
        Subframe number; subframe ``j`` is received over the air at
        ``j * 1000`` us.
    grant:
        The uplink grant describing the workload.
    snr_db:
        Post-combining SNR; drives the turbo iteration count.
    transport_latency_us:
        RTT/2 — fronthaul plus cloud latency for this subframe.
    """

    bs_id: int
    index: int
    grant: UplinkGrant
    snr_db: float = 30.0
    transport_latency_us: float = 0.0

    @cached_property
    def air_time_us(self) -> float:
        """Time the subframe is fully received at the radio (end of SF)."""
        return self.index * SUBFRAME_US

    @cached_property
    def arrival_us(self) -> float:
        """Time the subframe becomes available at the compute node."""
        return self.air_time_us + self.transport_latency_us

    @cached_property
    def deadline_us(self) -> float:
        """Absolute processing deadline.

        Rx processing plus transport must fit in 2 ms (Eq. (2)); the
        processing itself must therefore finish by
        ``air_time + RX_BUDGET_US``.
        """
        return self.air_time_us + RX_BUDGET_US

    @property
    def processing_budget_us(self) -> float:
        """Tmax = 2 ms - RTT/2 (Eq. (3))."""
        return RX_BUDGET_US - self.transport_latency_us

    def key(self) -> tuple:
        """Stable identity used in logs and miss records."""
        return (self.bs_id, self.index)
