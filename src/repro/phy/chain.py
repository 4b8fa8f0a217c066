"""End-to-end uplink transmitter/receiver chain.

This composes the PHY blocks into the paper's three-task pipeline
(sec. 2.2):

* **FFT task** — per-antenna, per-symbol OFDM demodulation;
* **demod task** — channel estimation, MRC equalization, LLR demapping;
* **decode task** — descrambling, rate dematching, per-code-block turbo
  decoding with CRC-gated early stopping.

The receiver reports per-code-block iteration counts — the stochastic
``L`` that drives Eq. (1) — and exposes the subtask structure
(antenna x symbol FFTs, per-code-block decodes) that RT-OPEX migrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.constants import DEFAULT_MAX_TURBO_ITERATIONS
from repro.lte.grid import GridConfig
from repro.lte.segmentation import SegmentationResult, segment_transport_block
from repro.lte.subframe import UplinkGrant
from repro.phy.crc import attach_crc, crc_check
from repro.phy.equalizer import estimate_flat_gains, mrc_combine
from repro.phy.ofdm import (
    OfdmDemodulator,
    OfdmModulator,
    extract_symbols_from_grid,
    map_symbols_to_grid,
)
from repro.phy.qam import qam_demap_llr, qam_map
from repro.phy.ratematch import RateMatchConfig, bits_per_code_block, rate_dematch, rate_match
from repro.phy.sequences import descramble_llrs, pusch_c_init, scramble
from repro.phy.turbo import turbo_codec


def _segment_payload(payload_crc: np.ndarray, seg: SegmentationResult) -> List[np.ndarray]:
    """Split TB+CRC bits into code blocks with fillers and CB CRCs."""
    blocks: List[np.ndarray] = []
    cursor = 0
    first = True
    for size in seg.block_sizes:
        data_bits = size - (24 if seg.num_code_blocks > 1 else 0)
        filler = seg.filler_bits if first else 0
        take = data_bits - filler
        chunk = payload_crc[cursor : cursor + take]
        cursor += take
        body = np.concatenate([np.zeros(filler, dtype=np.uint8), chunk])
        if seg.num_code_blocks > 1:
            body = attach_crc(body, "24b")
        blocks.append(body)
        first = False
    if cursor != payload_crc.size:
        raise AssertionError("segmentation did not consume the whole transport block")
    return blocks


def _reassemble_payload(blocks: List[np.ndarray], seg: SegmentationResult) -> np.ndarray:
    """Inverse of :func:`_segment_payload` (drops fillers and CB CRCs)."""
    parts = []
    first = True
    for block in blocks:
        body = block[:-24] if seg.num_code_blocks > 1 else block
        if first:
            body = body[seg.filler_bits :]
            first = False
        parts.append(body)
    return np.concatenate(parts)


@dataclass(frozen=True)
class EncodedSubframe:
    """Transmitter output: the waveform plus ground truth for testing."""

    waveform: np.ndarray  # (14, fft+cp) time-domain subframe
    payload: np.ndarray  # original information bits
    grant: UplinkGrant
    num_symbols: int  # QAM symbols actually carried


@dataclass(frozen=True)
class ChainResult:
    """Receiver output for one subframe.

    ``iterations`` has one entry per code block — the decode subtask
    granularity; ``crc_ok`` is the transport-block ACK/NACK decision.
    """

    bits: np.ndarray
    crc_ok: bool
    iterations: List[int]
    code_blocks: int
    cb_crc_pass: List[bool]


@dataclass
class UplinkTransmitter:
    """Builds the uplink waveform for a single-user grant."""

    grid: GridConfig = field(default_factory=GridConfig)
    rnti: int = 0x003D
    cell_id: int = 1
    max_iterations: int = DEFAULT_MAX_TURBO_ITERATIONS

    def encode(
        self,
        grant: UplinkGrant,
        subframe_index: int = 0,
        payload: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> EncodedSubframe:
        """Encode ``payload`` (random if omitted) into a time-domain subframe."""
        rng = rng or np.random.default_rng(0)
        tbs = grant.tbs_bits
        if payload is None:
            payload = rng.integers(0, 2, tbs).astype(np.uint8)
        payload = np.asarray(payload, dtype=np.uint8)
        if payload.size != tbs:
            raise ValueError(f"payload must be TBS={tbs} bits, got {payload.size}")

        seg = segment_transport_block(tbs)
        blocks = _segment_payload(attach_crc(payload, "24a"), seg)

        n_re = self.grid.resource_elements_for(grant.num_prbs)
        q_m = grant.modulation_order
        total_bits = n_re * q_m
        shares = bits_per_code_block(total_bits, seg.num_code_blocks, q_m)

        coded_parts = []
        for block, e_bits in zip(blocks, shares):
            codec = turbo_codec(block.size, self.max_iterations)
            coded = codec.encode(block)
            coded_parts.append(rate_match(coded, RateMatchConfig(block.size, e_bits)))
        coded_bits = np.concatenate(coded_parts)

        scrambled = scramble(coded_bits, pusch_c_init(self.rnti, subframe_index, self.cell_id))
        symbols = qam_map(scrambled, q_m)
        grid_syms = map_symbols_to_grid(symbols, self.grid.num_subcarriers)
        waveform = OfdmModulator(self.grid).modulate(grid_syms)
        return EncodedSubframe(
            waveform=waveform, payload=payload, grant=grant, num_symbols=symbols.size
        )


@dataclass
class UplinkReceiver:
    """Decodes a multi-antenna observation of an uplink subframe."""

    grid: GridConfig = field(default_factory=GridConfig)
    rnti: int = 0x003D
    cell_id: int = 1
    max_iterations: int = DEFAULT_MAX_TURBO_ITERATIONS

    def decode(
        self,
        observations: np.ndarray,
        grant: UplinkGrant,
        noise_var: float,
        subframe_index: int = 0,
        channel_gains: Optional[np.ndarray] = None,
        reference_grid: Optional[np.ndarray] = None,
    ) -> ChainResult:
        """Run FFT -> demod -> decode on ``(antennas, 14, fft+cp)`` samples.

        ``channel_gains`` may be supplied (genie) or estimated from
        ``reference_grid`` pilots; with neither, a unit-gain channel is
        assumed (pure AWGN).
        """
        observations = np.asarray(observations, dtype=np.complex128)
        if observations.ndim != 3:
            raise ValueError("observations must be (antennas, symbols, samples)")

        # ---- FFT task: independent per antenna (and per symbol). --------
        # One batched FFT over (antennas, symbols); bit-identical to the
        # per-antenna loop (each 1-D transform is computed independently).
        demod = OfdmDemodulator(self.grid)
        grids = demod.demodulate_batch(observations)

        # ---- demod task: estimate, combine, demap. -----------------------
        if channel_gains is None:
            if reference_grid is not None:
                channel_gains = estimate_flat_gains(grids, reference_grid)
            else:
                channel_gains = np.ones(observations.shape[0], dtype=np.complex128)
        combined, noise_gain = mrc_combine(grids, channel_gains)

        seg = segment_transport_block(grant.tbs_bits)
        n_re = self.grid.resource_elements_for(grant.num_prbs)
        q_m = grant.modulation_order
        num_symbols = n_re
        symbols = extract_symbols_from_grid(combined, num_symbols)
        eff_noise_var = noise_var / noise_gain
        llrs = qam_demap_llr(symbols, q_m, eff_noise_var)

        # ---- decode task: descramble, dematch, turbo per code block. ----
        llrs = descramble_llrs(llrs, pusch_c_init(self.rnti, subframe_index, self.cell_id))
        shares = bits_per_code_block(n_re * q_m, seg.num_code_blocks, q_m)

        blocks: List[np.ndarray] = []
        iterations: List[int] = []
        cb_pass: List[bool] = []
        # Array-computed slice bounds instead of a running cursor.
        offsets = np.zeros(len(shares) + 1, dtype=np.int64)
        np.cumsum(shares, out=offsets[1:])
        crc_kind = "24b" if seg.num_code_blocks > 1 else "24a"

        def checker(bits: np.ndarray) -> bool:
            return crc_check(bits, crc_kind)

        for i, (size, e_bits) in enumerate(zip(seg.block_sizes, shares)):
            chunk = llrs[offsets[i] : offsets[i + 1]]
            codec = turbo_codec(size, self.max_iterations)
            soft = rate_dematch(chunk, RateMatchConfig(size, e_bits))
            result = codec.decode(soft, crc_checker=checker)
            blocks.append(result.bits)
            iterations.append(result.iterations)
            cb_pass.append(result.crc_pass)

        payload_crc = _reassemble_payload(blocks, seg)
        crc_ok = crc_check(payload_crc, "24a")
        return ChainResult(
            bits=payload_crc[:-24],
            crc_ok=crc_ok,
            iterations=iterations,
            code_blocks=seg.num_code_blocks,
            cb_crc_pass=cb_pass,
        )
