"""Smoke and shape tests for the experiment drivers.

Each experiment runs at a tiny scale and is checked against the *shape*
criteria of DESIGN.md — not the paper's absolute numbers.
"""

import pytest

from repro.experiments import get_experiment, list_experiments, run_experiment

SCALE = 0.01
SEED = 7


@pytest.fixture(scope="module")
def outputs():
    """Run every registered experiment once at a small scale."""
    return {
        exp.experiment_id: run_experiment(exp.experiment_id, scale=SCALE, seed=SEED)
        for exp in list_experiments()
    }


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = {e.experiment_id for e in list_experiments()}
        expected = {
            "table1", "fig1", "fig3", "fig4", "fig6", "fig7",
            "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
        }
        assert expected <= ids

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            run_experiment("table1", scale=0.0)
        for scale in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite positive"):
                run_experiment("table1", scale=scale)

    def test_outputs_render(self, outputs):
        for output in outputs.values():
            assert output.text
            assert str(output).startswith("==")


class TestTable1:
    def test_coefficients_close_to_paper(self, outputs):
        w = outputs["table1"].data["w"]
        paper = outputs["table1"].data["paper_w"]
        for ours, theirs in zip(w, paper):
            assert ours == pytest.approx(theirs, rel=0.15, abs=8.0)

    def test_fit_quality(self, outputs):
        assert outputs["table1"].data["r_squared"] > 0.99


class TestFig3:
    def test_processing_time_spread(self, outputs):
        # MCS 0 -> 27 spans roughly 0.5 -> 1.4 ms at L = 2.
        by_l = outputs["fig3"].data["vs_iterations"]
        l2 = by_l[2]
        assert l2[0] == pytest.approx(500, abs=40)
        assert l2[-1] == pytest.approx(1400, abs=60)

    def test_lower_snr_is_slower(self, outputs):
        by_snr = outputs["fig3"].data["vs_snr"]
        assert sum(by_snr["10.0"]) > sum(by_snr["30.0"])

    def test_error_order_statistics(self, outputs):
        assert outputs["fig3"].data["error_p999"] < 160.0


class TestFig4:
    def test_decode_saving_near_paper(self, outputs):
        decode = outputs["fig4"].data["decode"]
        saved = decode["serial"] - decode["two_core"]
        assert saved == pytest.approx(310, abs=60)

    def test_fft_nearly_halves(self, outputs):
        fft = outputs["fig4"].data["fft"]
        assert fft["two_core"] <= 0.62 * fft["serial"]


class TestFig6:
    def test_means(self, outputs):
        for key in ("1gbe", "10gbe"):
            assert outputs["fig6"].data[key]["mean"] == pytest.approx(150, rel=0.08)


class TestFig7:
    def test_limits(self, outputs):
        limits = outputs["fig7"].data["limits"]
        assert limits["10.0"] == 8


class TestFig14:
    def test_cdfs_monotone(self, outputs):
        for cdf in outputs["fig14"].data["cdfs"]:
            assert all(a <= b + 1e-12 for a, b in zip(cdf, cdf[1:]))


class TestFig15:
    def test_rtopex_beats_partitioned_everywhere(self, outputs):
        data = outputs["fig15"].data
        for opex, part in zip(data["rt-opex"], data["partitioned"]):
            assert opex <= part

    def test_rtopex_near_zero_below_500(self, outputs):
        data = outputs["fig15"].data
        for rtt, rate in zip(data["rtt_us"], data["rt-opex"]):
            if rtt <= 500.0:
                assert rate < 2e-3

    def test_global_does_not_improve_with_cores(self, outputs):
        data = outputs["fig15"].data
        for g8, g16 in zip(data["global-8"], data["global-16"]):
            assert g16 >= g8 - 0.01

    def test_partitioned_rises_with_rtt(self, outputs):
        rates = outputs["fig15"].data["partitioned"]
        assert rates[-1] > rates[0]


class TestFig16:
    def test_gaps_shrink_with_rtt(self, outputs):
        tail = outputs["fig16"].data["gap_tail_500us"]
        assert tail[0] >= tail[-1] - 0.05

    def test_fft_migrations_persist(self, outputs):
        fracs = outputs["fig16"].data["fft_migration_fraction"]
        assert min(fracs) > 0.75

    def test_trace_derived_gap_stats_match_records(self):
        """The fig16 gap CDF now comes from the trace; it must agree with
        the scheduler records it replaced to well under 1e-6."""
        import numpy as np

        from repro.analysis.stats import tail_fraction
        from repro.analysis.tracestats import gap_cdf
        from repro.experiments.fig16_gaps import _cdf_tail_fraction
        from repro.sched import CRanConfig, build_workload, run_scheduler

        cfg = CRanConfig(transport_latency_us=500.0)
        jobs = build_workload(cfg, 60, seed=SEED)
        part = run_scheduler("partitioned", cfg, jobs, capture_trace=("gap",))
        xs, ps = gap_cdf(part.trace_run)
        samples = np.sort(
            np.asarray([r.gap_us for r in part.records if r.gap_us > 0])
        )
        assert xs == pytest.approx(samples, abs=1e-9)
        trace_tail = _cdf_tail_fraction(xs, ps, 500.0)
        assert trace_tail == pytest.approx(
            tail_fraction(samples, 500.0), abs=1e-9
        )
        assert float(np.median(xs)) == pytest.approx(
            float(np.median(samples)), abs=1e-9
        )


class TestFig17:
    def test_rtopex_supports_higher_load(self, outputs):
        supported = outputs["fig17"].data["supported"]
        assert supported["rt-opex"] >= supported["partitioned"]

    def test_misses_concentrate_at_high_loads(self, outputs):
        # At this tiny scale only the mid-load buckets clear the
        # reporting threshold; the highest reported bucket must not
        # miss less than the lowest (full saturation shows at scale 1).
        part = outputs["fig17"].data["partitioned"]
        assert part[-1] >= part[0]


class TestFig18:
    def test_overhead_near_20us(self, outputs):
        for task in ("fft", "decode"):
            d = outputs["fig18"].data[task]
            overhead = d["migrated_median"] - d["local_median"]
            assert overhead == pytest.approx(20.0, abs=5.0)


class TestFig19:
    def test_saturation_beyond_8_cores(self, outputs):
        data = outputs["fig19"].data
        by_cores = dict(zip(data["cores"], data["miss_rates"]))
        assert by_cores[16] >= by_cores[8] - 0.01

    def test_few_cores_much_worse(self, outputs):
        data = outputs["fig19"].data
        by_cores = dict(zip(data["cores"], data["miss_rates"]))
        assert by_cores[2] > by_cores[8]

    def test_16_core_cache_penalty_higher(self, outputs):
        mcs27 = outputs["fig19"].data["high_mcs"]
        assert mcs27["16"]["mean_penalty"] >= mcs27["8"]["mean_penalty"]
