"""Microbenchmarks for the discrete-event engine hot path.

RT-OPEX is the engine's only scheduler: its arrivals and decode starts
are events, popped one at a time from a heap of plain tuples.  These
benchmarks isolate the patterns it generates so the baseline comparator
(``benchmarks/baseline.py``) can catch regressions in each one:

* **churn** — schedule-then-run over a pseudo-random arrival pattern;
* **tie-groups** — many same-instant events (subframe boundaries where
  every basestation's arrival lands on the same microsecond);
* **feed-forward** — callbacks that schedule more work, the
  arrive -> start_decode chain.

Asserts pin behavioural contracts (event counts, final clock) so the
benchmarks double as correctness checks at full speed.
"""

import pytest

from repro.sim.engine import Simulator

#: Events per benchmark round; small enough for CI, large enough that
#: per-event costs dominate fixture overhead.
N_EVENTS = 20_000
#: Tie-group width for the same-instant benchmark (16 radios' arrivals
#: landing on one subframe boundary).
TIE_WIDTH = 16


@pytest.mark.benchmark(group="engine")
def test_bench_engine_churn(benchmark):
    def churn():
        sim = Simulator()
        count = [0]
        for i in range(N_EVENTS):
            sim.schedule(float((i * 7919) % N_EVENTS), lambda: count.__setitem__(0, count[0] + 1))
        sim.run()
        return sim, count[0]

    sim, executed = benchmark(churn)
    assert executed == N_EVENTS
    assert sim.stats()["executed"] == N_EVENTS


@pytest.mark.benchmark(group="engine")
def test_bench_engine_tie_groups(benchmark):
    def tie_groups():
        sim = Simulator()
        count = [0]
        bump = lambda: count.__setitem__(0, count[0] + 1)  # noqa: E731
        for boundary in range(N_EVENTS // TIE_WIDTH):
            for radio in range(TIE_WIDTH):
                sim.schedule(boundary * 1000.0, bump, priority=radio % 3)
        sim.run()
        return sim, count[0]

    sim, executed = benchmark(tie_groups)
    assert executed == (N_EVENTS // TIE_WIDTH) * TIE_WIDTH
    assert sim.now == (N_EVENTS // TIE_WIDTH - 1) * 1000.0


@pytest.mark.benchmark(group="engine")
def test_bench_engine_feed_forward(benchmark):
    def feed_forward():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < N_EVENTS:
                sim.schedule(sim.now + 1.0, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return sim, count[0]

    sim, executed = benchmark(feed_forward)
    assert executed == N_EVENTS
    assert sim.now == float(N_EVENTS - 1)
