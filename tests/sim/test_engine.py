"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(30.0, lambda: log.append("c"))
        sim.schedule(10.0, lambda: log.append("a"))
        sim.schedule(20.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_now_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(5.0, lambda: times.append(sim.now))
        sim.schedule(15.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [5.0, 15.0]

    def test_ties_broken_by_priority_then_seq(self):
        sim = Simulator()
        log = []
        sim.schedule(10.0, lambda: log.append("late"), priority=5)
        sim.schedule(10.0, lambda: log.append("early"), priority=0)
        sim.schedule(10.0, lambda: log.append("early2"), priority=0)
        sim.run()
        assert log == ["early", "early2", "late"]

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: sim.schedule(5.0, lambda: None))
        with pytest.raises(ValueError):
            sim.run()

    def test_callbacks_can_schedule_more(self):
        sim = Simulator()
        log = []

        def chain(n):
            log.append(n)
            if n < 5:
                sim.schedule(sim.now + 1.0, lambda: chain(n + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert log == [0, 1, 2, 3, 4, 5]
        assert sim.now == 5.0

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def bad():
            try:
                sim.run()
            except RuntimeError as exc:
                errors.append(exc)

        sim.schedule(1.0, bad)
        sim.run()
        assert len(errors) == 1

    def test_deterministic_across_runs(self):
        def run_once():
            sim = Simulator()
            log = []
            for i in range(100):
                sim.schedule((i * 7) % 13, lambda i=i: log.append(i))
            sim.run()
            return log

        assert run_once() == run_once()


class TestPastScheduleTolerance:
    def test_tolerance_scales_with_now(self):
        # At now ~ 1e9 us (a ~17 min simulated horizon) one float ulp is
        # ~1.2e-7 — far beyond the old absolute 1e-9 guard.  Scheduling
        # "now minus a few ulps" must be accepted as same-instant.
        sim = Simulator()
        log = []
        base = 1e9

        def at_base():
            earlier = sim.now - sim.now * 1e-13  # a few ulps back
            assert earlier < sim.now
            sim.schedule(earlier, lambda: log.append(sim.now))

        sim.schedule(base, at_base)
        sim.run()
        assert log == [base]  # clamped to now, not rejected

    def test_genuine_past_still_rejected_at_long_horizon(self):
        sim = Simulator()
        sim.schedule(1e9, lambda: sim.schedule(1e9 - 1.0, lambda: None))
        with pytest.raises(ValueError):
            sim.run()

    def test_long_horizon_chain_deterministic(self):
        # A subframe-style periodic chain deep into a long horizon: every
        # step also schedules a same-instant event computed by a float
        # detour ((now + step) - step lands a few ulps off now).  The
        # old absolute guard rejected these past ~1e7 us; the relative
        # guard must keep the chain alive and fully deterministic.
        def run_once():
            sim = Simulator()
            counts = [0, 0]
            step = 1000.0 / 3.0  # not representable: rounding accumulates

            def tick():
                counts[0] += 1
                if counts[0] < 2000:
                    same_instant = (sim.now + step) - step
                    sim.schedule(same_instant, lambda: counts.__setitem__(1, counts[1] + 1))
                    sim.schedule(sim.now + step, tick)

            sim.schedule(1e9, tick)  # start ~17 simulated minutes in
            sim.run()
            return tuple(counts)

        first = run_once()
        assert first == (2000, 1999)
        assert run_once() == first


class TestSameInstant:
    def test_same_instant_work_from_callback_runs_in_key_order(self):
        # Work a callback schedules at the current instant runs within
        # that instant, in (priority, seq) order among what is left of
        # it: a priority-0 spawn overtakes a queued priority-1 peer, a
        # priority-2 spawn runs after it, and later instants wait.
        sim = Simulator()
        log = []

        def spawn():
            log.append("first")
            sim.schedule(sim.now, lambda: log.append("spawned-late"), priority=2)
            sim.schedule(sim.now, lambda: log.append("spawned-early"))

        sim.schedule(10.0, spawn)
        sim.schedule(10.0, lambda: log.append("peer"), priority=1)
        sim.schedule(20.0, lambda: log.append("later"))
        sim.run()
        assert log == ["first", "spawned-early", "peer", "spawned-late", "later"]

    def test_exception_leaves_unrun_events_queued(self):
        # A raising callback ends run(); the events it did not reach stay
        # queued, and a later run() runs them.
        sim = Simulator()
        log = []
        sim.schedule(10.0, lambda: log.append("ok"))

        def boom():
            raise RuntimeError("boom")

        sim.schedule(10.0, boom)
        sim.schedule(10.0, lambda: log.append("tail"))
        with pytest.raises(RuntimeError):
            sim.run()
        assert log == ["ok"]
        sim.run()
        assert log == ["ok", "tail"]


class TestStats:
    def test_stats_counts_events_and_shared_instants(self):
        # Six events, one of them spawned by a callback, over three
        # instants, two of which run more than one event.
        sim = Simulator()
        sim.schedule(0.0, lambda: None)
        sim.schedule(0.0, lambda: sim.schedule(sim.now, lambda: None))
        sim.schedule(5.0, lambda: None)
        sim.schedule(7.0, lambda: None)
        sim.schedule(7.0, lambda: None, priority=1)
        assert sim.stats() == {"executed": 0, "batch_pops": 0}
        assert sim.run() == 7.0
        assert sim.stats() == {"executed": 6, "batch_pops": 2}
