"""Coverage for smaller utility paths not exercised elsewhere."""

import numpy as np
import pytest

from repro.experiments.base import (
    ExperimentOutput,
    get_experiment,
    list_experiments,
    register,
    scaled_subframes,
)
from repro.lte.subframe import Subframe, UplinkGrant
from repro.phy.ofdm import OfdmDemodulator, OfdmModulator
from repro.sched.base import SubframeJob
from repro.timing.model import LinearTimingModel
from repro.timing.tasks import build_subframe_work


class TestExperimentBase:
    def test_scaled_subframes_floor(self):
        assert scaled_subframes(1.0) == 30_000
        assert scaled_subframes(0.001) == 500  # clamped at the minimum

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register("table1", "again")(lambda scale, seed: None)

    def test_experiment_output_str(self):
        output = ExperimentOutput("x1", "demo", "body")
        assert "x1" in str(output)
        assert "body" in str(output)

    def test_listing_is_sorted(self):
        ids = [e.experiment_id for e in list_experiments()]
        assert ids == sorted(ids)

    def test_get_experiment_returns_registered(self):
        exp = get_experiment("fig15")
        assert exp.experiment_id == "fig15"


class TestOfdmSingleSymbol:
    def test_demodulate_symbol_matches_full(self, grid_small, rng):
        mod = OfdmModulator(grid_small)
        demod = OfdmDemodulator(grid_small)
        grid = rng.normal(size=(14, grid_small.num_subcarriers)) + 0j
        time = mod.modulate(grid)
        one = demod.demodulate_symbol(time[5])
        # The per-symbol path exists for subtask-level use; it must agree
        # with the batch demodulation of the same samples.
        assert np.allclose(one, demod.demodulate(np.tile(time[5], (14, 1)))[0])

    def test_symbol_samples_property(self, grid_small):
        demod = OfdmDemodulator(grid_small)
        assert demod.symbol_samples == grid_small.fft_size + grid_small.fft_size // 16


class TestJobBounds:
    def make_job(self, iters):
        grant = UplinkGrant(mcs=27)
        work = build_subframe_work(LinearTimingModel(), grant, iters, max_iterations=4)
        sf = Subframe(bs_id=0, index=0, grant=grant, transport_latency_us=500.0)
        return SubframeJob(
            subframe=sf, work=work, noise_us=12.0, load=1.0,
            arrival_us=sf.arrival_us, deadline_us=sf.deadline_us,
        )

    def test_optimistic_below_serial(self):
        job = self.make_job([4] * 6)
        assert job.work.optimistic_total_us < job.serial_time_us

    def test_optimistic_equals_serial_at_one_iteration(self):
        job = self.make_job([1] * 6)
        # Best case realized: the bound is tight up to the noise term.
        assert job.work.optimistic_total_us == pytest.approx(job.serial_time_us - 12.0)

    def test_serial_time_includes_noise(self):
        job = self.make_job([2] * 6)
        assert job.serial_time_us == pytest.approx(job.work.total_serial_us + 12.0)

    def test_job_override_roundtrip(self):
        job = self.make_job([2] * 6)
        assert job.kind == "rx"
        assert job.arrival_us == job.subframe.arrival_us
        import dataclasses

        tx_like = dataclasses.replace(
            job, kind="tx", arrival_us=123.0, deadline_us=456.0
        )
        assert tx_like.arrival_us == 123.0
        assert tx_like.deadline_us == 456.0


class TestTableFormatting:
    def test_huge_numbers_scientific(self):
        from repro.analysis.report import Table

        table = Table(["v"])
        table.add_row([1.5e7])
        assert "1.50e+07" in table.render()

    def test_mid_range_floats(self):
        from repro.analysis.report import Table

        table = Table(["v"])
        table.add_row([123.456])
        assert "123.5" in table.render()
