"""The paper's linear processing-time model (Eq. (1)) and its regression.

``Trxproc = w0 + w1*N + w2*K + w3*D*L + E``

Table 1 gives the GPP coefficients (31.4, 169.1, 49.7, 93.0) us with
r^2 = 0.992 over 4e6 measurements.  :class:`LinearTimingModel` evaluates
the model and decomposes it into the three-task chain of sec. 2.2:

* **FFT** — per-antenna subtasks; the paper's Fig. 18 median FFT task
  time of 108 us at N = 2 fixes the per-antenna share at 54 us, with the
  remainder of ``w1*N`` (equalization, memory copies) assigned to demod.
* **demod** — the constant ``w0``, the non-FFT antenna share, and half of
  the constellation term ``w2*K`` (the demapper).
* **decode** — the other half of ``w2*K`` (rate dematcher, descrambler)
  as a serial prologue plus the turbo term ``w3*D*L`` split evenly across
  code blocks (the migratable subtasks).

The decomposition sums back to Eq. (1) exactly, which the tests assert.
:func:`fit_linear_model` recovers the coefficients from (N, K, D*L,
Trxproc) samples by least squares — the Table 1 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.constants import W0_US, W1_US, W2_US, W3_US
from repro.lte.subframe import UplinkGrant

#: Per-antenna FFT share of w1 (us): Fig. 18's 108 us FFT task at N = 2.
FFT_PER_ANTENNA_US = 54.0
#: Fraction of the w2*K constellation term spent in the demapper (demod
#: task); the rest (dematcher + descrambler) opens the decode task.
DEMAP_FRACTION = 0.5


@dataclass(frozen=True)
class ModelCoefficients:
    """Coefficients of Eq. (1), in microseconds."""

    w0: float = W0_US
    w1: float = W1_US
    w2: float = W2_US
    w3: float = W3_US


@dataclass(frozen=True)
class LinearTimingModel:
    """Evaluates Eq. (1) and its per-task decomposition."""

    coefficients: ModelCoefficients = ModelCoefficients()

    # -- Eq. (1) ----------------------------------------------------------

    def total_time(
        self, num_antennas: int, modulation_order: int, load: float, iterations: float
    ) -> float:
        """Noise-free Trxproc in us for the given workload parameters."""
        c = self.coefficients
        return c.w0 + c.w1 * num_antennas + c.w2 * modulation_order + c.w3 * load * iterations

    def total_time_for_grant(self, grant: UplinkGrant, iterations: float) -> float:
        """Eq. (1) evaluated for an uplink grant."""
        return self.total_time(
            grant.num_antennas, grant.modulation_order, grant.subcarrier_load, iterations
        )

    def worst_case_time(self, grant: UplinkGrant, max_iterations: int) -> float:
        """WCET bound: Eq. (1) with L = Lm (paper sec. 2.1)."""
        return self.total_time_for_grant(grant, float(max_iterations))

    def best_case_time(self, grant: UplinkGrant) -> float:
        """Optimistic bound with a single decoder iteration.

        Used by the slack check before launching a task ("we check if the
        execution time is less than the slack time, else we drop",
        sec. 4.1): a subframe is dropped only when even the best case
        cannot meet the deadline.
        """
        return self.total_time_for_grant(grant, 1.0)

    # -- task decomposition ------------------------------------------------

    def fft_task_time(self, num_antennas: int) -> float:
        """Serial FFT-task time: per-antenna subtasks."""
        return FFT_PER_ANTENNA_US * num_antennas

    def fft_subtask_time(self) -> float:
        """One FFT subtask = all 14 symbols of one antenna (Fig. 5)."""
        return FFT_PER_ANTENNA_US

    def demod_task_time(self, num_antennas: int, modulation_order: int) -> float:
        """Channel estimation + equalization + demapping (serial)."""
        c = self.coefficients
        non_fft_antenna = (c.w1 - FFT_PER_ANTENNA_US) * num_antennas
        return c.w0 + non_fft_antenna + DEMAP_FRACTION * c.w2 * modulation_order

    def decode_prologue_time(self, modulation_order: int) -> float:
        """Serial decode prologue: rate dematcher + descrambler."""
        return (1.0 - DEMAP_FRACTION) * self.coefficients.w2 * modulation_order

    def decode_subtask_time(self, load: float, iterations: float, num_blocks: int) -> float:
        """Turbo decode time of one code block at ``iterations``."""
        if num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        return self.coefficients.w3 * load * iterations / num_blocks

    def decode_task_time(
        self,
        load: float,
        modulation_order: int,
        per_block_iterations: Sequence[float],
    ) -> float:
        """Serial decode-task time given each block's iteration count."""
        num_blocks = len(per_block_iterations)
        turbo = sum(
            self.decode_subtask_time(load, l, num_blocks) for l in per_block_iterations
        )
        return self.decode_prologue_time(modulation_order) + turbo


@dataclass(frozen=True)
class FitResult:
    """Recovered Eq. (1) coefficients and goodness of fit."""

    coefficients: ModelCoefficients
    r_squared: float
    residuals: np.ndarray


def fit_linear_model(
    antennas: np.ndarray,
    modulation_orders: np.ndarray,
    load_iterations: np.ndarray,
    times_us: np.ndarray,
) -> FitResult:
    """Least-squares fit of Eq. (1) — the Table 1 experiment.

    Parameters mirror the regressors: ``N``, ``K``, and the product
    ``D * L``; ``times_us`` are the measured totals.
    """
    antennas = np.asarray(antennas, dtype=np.float64)
    modulation_orders = np.asarray(modulation_orders, dtype=np.float64)
    load_iterations = np.asarray(load_iterations, dtype=np.float64)
    times_us = np.asarray(times_us, dtype=np.float64)
    n = times_us.size
    if not (antennas.size == modulation_orders.size == load_iterations.size == n):
        raise ValueError("all regressor arrays must have the same length")
    if n < 4:
        raise ValueError("need at least 4 samples to fit 4 coefficients")
    design = np.column_stack(
        [np.ones(n), antennas, modulation_orders, load_iterations]
    )
    solution, _, rank, _ = np.linalg.lstsq(design, times_us, rcond=None)
    if rank < 4:
        raise ValueError("design matrix is rank-deficient; vary all regressors")
    predicted = design @ solution
    residuals = times_us - predicted
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((times_us - times_us.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    coeffs = ModelCoefficients(*[float(v) for v in solution])
    return FitResult(coefficients=coeffs, r_squared=r2, residuals=residuals)
