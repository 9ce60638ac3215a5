"""Unit tests for SimObject/Simulation plumbing."""

import pytest

from repro.sim.simobject import SimObject, Simulation


class Ticker(SimObject):
    """Fires an event every `period` ticks, counting fires."""

    def __init__(self, sim, name, period):
        super().__init__(sim, name)
        self.period = period
        self.fires = 0
        self._event = self.make_event(self._tick, "tick")

    def start(self):
        self.schedule_after(self._event, self.period)

    def _tick(self):
        self.fires += 1
        self.schedule_after(self._event, self.period)


def test_register_and_lookup():
    sim = Simulation()
    obj = Ticker(sim, "t0", 10)
    assert sim.object("t0") is obj


def test_duplicate_names_rejected():
    sim = Simulation()
    Ticker(sim, "t0", 10)
    with pytest.raises(ValueError):
        Ticker(sim, "t0", 10)


def test_periodic_events():
    sim = Simulation()
    ticker = Ticker(sim, "t0", 10)
    ticker.start()
    sim.run(until=100)
    assert ticker.fires == 10


def test_now_tracks_queue():
    sim = Simulation()
    obj = Ticker(sim, "t0", 7)
    obj.start()
    sim.run(until=21)
    assert obj.now == 21


def test_rng_is_seeded():
    a = Simulation(seed=42).rng.random()
    b = Simulation(seed=42).rng.random()
    c = Simulation(seed=43).rng.random()
    assert a == b
    assert a != c


def test_call_after_names_event():
    sim = Simulation()
    obj = Ticker(sim, "t0", 10)
    fired = []
    obj.call_after(5, lambda: fired.append(obj.now), name="probe")
    sim.run()
    assert fired == [5]
