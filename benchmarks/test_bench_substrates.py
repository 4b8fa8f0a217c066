"""Throughput benchmarks for the substrates the simulation rests on.

Not paper artifacts, but the knobs that determine how large an
experiment the harness can regenerate per second: the functional PHY,
the workload builder, the DES engine, and Algorithm 1 itself.
"""

import numpy as np
import pytest

from repro.lte.grid import GridConfig
from repro.lte.subframe import UplinkGrant
from repro.phy.chain import UplinkReceiver, UplinkTransmitter
from repro.phy.channel import AwgnChannel
from repro.phy.turbo import TurboCodec, bpsk_llrs
from repro.sched import CRanConfig, build_workload
from repro.sched.migration import plan_migration
from repro.sim.engine import Simulator

from benchmarks.conftest import BENCH_SEED


@pytest.mark.benchmark(group="substrate-phy")
def test_bench_turbo_decode(benchmark):
    rng = np.random.default_rng(BENCH_SEED)
    codec = TurboCodec(256, max_iterations=4)
    bits = rng.integers(0, 2, 256).astype(np.uint8)
    llrs = bpsk_llrs(codec.encode(bits), 2.0, rng)

    result = benchmark(codec.decode, llrs)
    assert np.array_equal(result.bits, bits)


@pytest.mark.benchmark(group="substrate-phy")
def test_bench_uplink_chain_loopback(benchmark):
    rng = np.random.default_rng(BENCH_SEED)
    grid = GridConfig(1.4)
    grant = UplinkGrant(mcs=8, num_prbs=grid.num_prbs, num_antennas=2)
    tx = UplinkTransmitter(grid=grid)
    rx = UplinkReceiver(grid=grid)
    enc = tx.encode(grant, rng=rng)
    channel = AwgnChannel(snr_db=25.0, num_antennas=2, rng=rng)
    obs = channel.apply(enc.waveform)
    power = float(np.mean(np.abs(enc.waveform) ** 2))
    nvar = channel.noise_variance(power)

    result = benchmark(rx.decode, obs, grant, nvar)
    assert result.crc_ok


@pytest.mark.benchmark(group="substrate-workload")
def test_bench_build_workload(benchmark):
    cfg = CRanConfig(transport_latency_us=500.0)
    jobs = benchmark.pedantic(
        build_workload, args=(cfg, 500), kwargs={"seed": BENCH_SEED}, rounds=3, iterations=1
    )
    assert len(jobs) == 2000


@pytest.mark.benchmark(group="substrate-sim")
def test_bench_event_engine(benchmark):
    def run_events():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 20_000:
                sim.schedule(sim.now + 1.0, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    assert benchmark(run_events) == 20_000


@pytest.mark.benchmark(group="substrate-alg1")
def test_bench_algorithm_one(benchmark):
    windows = [(c, 500.0 + 100.0 * c) for c in range(8)]

    def plan_many():
        total = 0
        for _ in range(1000):
            total += plan_migration(6, 230.0, 25.0, windows).migrated_subtasks
        return total

    assert benchmark(plan_many) > 0
