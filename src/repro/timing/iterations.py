"""Turbo iteration-count model: the stochastic ``L`` of Eq. (1).

The paper observes that ``L`` "is in general non-deterministic (even for
fixed SNR) and may take any value in [1, Lm]" and that its distribution
shifts with SNR and MCS (Fig. 3(a)/(b)).  Two published anchors calibrate
this model:

* decreasing SNR from 20 dB to 10 dB increases processing time by more
  than 50% between MCS 13 and 25 (Fig. 3(b)) — i.e. mid/high MCS move
  from ~2 to ~3.5 iterations over that SNR range;
* at the evaluation point (30 dB, Lm = 4) subframes with MCS > 20
  frequently need 3–4 iterations — sec. 4.3 attributes the partitioned
  scheduler's misses at Tmax < 1600 us to exactly these subframes.

The model separates *decode effort* (how many iterations the max-log-MAP
decoder runs) from *decode success* (whether the CRC finally passes):
effort saturates near Lm as the SNR margin shrinks, while success only
requires the margin to be positive.  This mirrors the behaviour of the
paper's OAI decoder, which runs up to Lm iterations with CRC-gated early
stopping.  Parameters are exposed so ablations can explore other decoder
profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.constants import DEFAULT_MAX_TURBO_ITERATIONS


def _sigmoid(x: float) -> float:
    if x >= 0:
        z = math.exp(-x)
        return 1.0 / (1.0 + z)
    z = math.exp(x)
    return z / (1.0 + z)


@dataclass(frozen=True)
class IterationModel:
    """Stochastic turbo iteration count as a function of (MCS, SNR).

    Parameters
    ----------
    max_iterations:
        Lm — the decoder's iteration cap (paper: 4).
    effort_offset, effort_slope:
        SNR (dB) at which MCS ``m`` decodes quickly:
        ``effort_threshold = effort_offset + effort_slope * m``.
    effort_scale, effort_midpoint:
        Shape of the sigmoid mapping SNR margin to mean iterations.
    success_offset, success_slope:
        Decode-success SNR threshold per MCS (CRC pass).
    spike_probability:
        Chance of one extra iteration regardless of margin — the paper's
        fixed-SNR non-determinism.
    """

    max_iterations: int = DEFAULT_MAX_TURBO_ITERATIONS
    effort_offset: float = -10.0
    effort_slope: float = 1.33
    #: Extra per-step threshold increase above MCS 24: the highest code
    #: rates lose coding gain much faster than the linear trend, which is
    #: what makes MCS 25-27 iteration-hungry even at 30 dB (sec. 4.3).
    effort_steepening: float = 1.2
    effort_steepening_start: int = 24
    effort_scale: float = 3.0
    effort_midpoint: float = 4.0
    success_offset: float = -7.0
    success_slope: float = 0.95
    spike_probability: float = 0.03
    jitter_scale: float = 0.45

    def effort_threshold(self, mcs: int) -> float:
        """SNR (dB) above which MCS ``mcs`` decodes in ~1 iteration."""
        base = self.effort_offset + self.effort_slope * mcs
        extra = max(0, mcs - self.effort_steepening_start) * self.effort_steepening
        return base + extra

    def effort_margin(self, mcs: int, snr_db: float) -> float:
        """SNR headroom over the fast-decode threshold (dB)."""
        return snr_db - self.effort_threshold(mcs)

    def mean_iterations(self, mcs: int, snr_db: float) -> float:
        """Expected L: 1 at large margins, saturating to Lm as it shrinks."""
        margin = self.effort_margin(mcs, snr_db)
        frac = _sigmoid(-(margin - self.effort_midpoint) / self.effort_scale)
        return 1.0 + (self.max_iterations - 1) * frac

    def success_probability(self, mcs: int, snr_db: float) -> float:
        """Probability the transport block finally passes CRC."""
        margin = snr_db - (self.success_offset + self.success_slope * mcs)
        return _sigmoid(margin / 0.8)

    def draw(
        self,
        mcs: int,
        snr_db: float,
        rng: np.random.Generator,
        num_blocks: int = 1,
    ) -> List[int]:
        """Draw per-code-block iteration counts.

        Each code block decodes independently (the basis of the paper's
        decode parallelism), so each gets its own draw around the mean.
        """
        if num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        mean = self.mean_iterations(mcs, snr_db)
        draws: List[int] = []
        for _ in range(num_blocks):
            jitter = rng.logistic(loc=0.0, scale=self.jitter_scale)
            value = mean + jitter
            if rng.random() < self.spike_probability:
                value += 1.0
            value = int(round(value))
            draws.append(max(1, min(self.max_iterations, value)))
        return draws

    def draw_array(
        self,
        mcs: np.ndarray,
        snr_db: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Vectorized draw: one iteration count per (mcs, snr) pair.

        Used by the Table 1 regression, which needs millions of samples;
        semantically identical to :meth:`draw` with ``num_blocks=1``.
        """
        mcs = np.asarray(mcs, dtype=np.float64)
        snr_db = np.asarray(snr_db, dtype=np.float64)
        base = self.effort_offset + self.effort_slope * mcs
        extra = np.maximum(0.0, mcs - self.effort_steepening_start) * self.effort_steepening
        margin = snr_db - (base + extra)
        frac = 1.0 / (
            1.0 + np.exp(np.clip((margin - self.effort_midpoint) / self.effort_scale, -60, 60))
        )
        mean = 1.0 + (self.max_iterations - 1) * frac
        jitter = rng.logistic(loc=0.0, scale=self.jitter_scale, size=mean.shape)
        value = mean + jitter
        value += (rng.random(mean.shape) < self.spike_probability).astype(np.float64)
        return np.clip(np.round(value), 1, self.max_iterations).astype(np.int64)

    def draw_subframe(
        self,
        mcs: int,
        snr_db: float,
        rng: np.random.Generator,
        num_blocks: int = 1,
    ) -> "IterationDraw":
        """Draw iterations plus the ACK/NACK outcome for one subframe."""
        iterations = self.draw(mcs, snr_db, rng, num_blocks)
        success = rng.random() < self.success_probability(mcs, snr_db)
        if not success:
            # A failing block burns the full iteration budget.
            worst = rng.integers(0, num_blocks)
            iterations[worst] = self.max_iterations
        return IterationDraw(iterations=iterations, crc_pass=success)

    def draw_trace(
        self,
        mcs: np.ndarray,
        snr_db: float,
        rng: np.random.Generator,
        block_offsets: np.ndarray,
    ) -> "TraceDraw":
        """Stream-exact batch of :meth:`draw_subframe` over an MCS trace.

        Consumes ``rng``'s bitstream exactly as the per-subframe scalar
        calls would — each subframe's ``2 * B + 1`` uniforms are drawn
        as one array (numpy's scalar ``logistic``/``random`` consume one
        double each off the same stream, and the logistic transform is
        ``scale * log(u / (1 - u))``), and the CRC-failure path draws the
        same bounded integer.  The per-MCS mean/success probabilities are
        computed once instead of per subframe, and ``math.log`` keeps the
        libm scalar semantics (``np.log`` may vectorize differently), so
        the draws — and the generator state afterwards — are
        bit-identical to the per-subframe calls.
        """
        mcs_list = np.asarray(mcs, dtype=np.int64).tolist()
        offsets = np.asarray(block_offsets, dtype=np.int64).tolist()
        means: dict = {}
        success_p: dict = {}
        scale = self.jitter_scale
        p_spike = self.spike_probability
        cap = self.max_iterations
        log = math.log
        iterations: List[int] = []
        crc: List[bool] = []
        for i, m in enumerate(mcs_list):
            mean = means.get(m)
            if mean is None:
                mean = self.mean_iterations(m, snr_db)
                means[m] = mean
                success_p[m] = self.success_probability(m, snr_db)
            num_blocks = offsets[i + 1] - offsets[i]
            u = rng.random(2 * num_blocks + 1).tolist()
            draws: List[int] = []
            for k in range(num_blocks):
                uu = u[2 * k]
                value = mean + scale * log(uu / (1.0 - uu))
                if u[2 * k + 1] < p_spike:
                    value += 1.0
                value = int(round(value))
                draws.append(max(1, min(cap, value)))
            success = u[2 * num_blocks] < success_p[m]
            if not success:
                worst = rng.integers(0, num_blocks)
                draws[worst] = cap
            iterations.extend(draws)
            crc.append(success)
        return TraceDraw(
            iterations=np.asarray(iterations, dtype=np.int64),
            crc_pass=np.asarray(crc, dtype=bool),
        )


@dataclass(frozen=True)
class IterationDraw:
    """Per-code-block iteration counts and the final CRC outcome."""

    iterations: List[int]
    crc_pass: bool

    @property
    def mean(self) -> float:
        return sum(self.iterations) / len(self.iterations)

    @property
    def total(self) -> int:
        return sum(self.iterations)


@dataclass(frozen=True)
class TraceDraw:
    """Batched :class:`IterationDraw`: flat per-code-block iterations.

    ``iterations`` concatenates every subframe's per-block draws in
    trace order (the caller's ``block_offsets`` delimit subframes);
    ``crc_pass`` holds one ACK/NACK outcome per subframe.
    """

    iterations: np.ndarray
    crc_pass: np.ndarray
