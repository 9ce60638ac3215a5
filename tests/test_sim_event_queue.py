"""Unit tests for the deterministic event queue."""

import pytest

from repro.sim.event_queue import Event, EventQueue


@pytest.fixture
def queue():
    return EventQueue()


def test_starts_at_tick_zero(queue):
    assert queue.now == 0
    assert queue.peek() is None


def test_schedule_and_step(queue):
    fired = []
    queue.schedule(Event(lambda: fired.append(queue.now)), 100)
    assert queue.step()
    assert fired == [100]
    assert queue.now == 100


def test_events_fire_in_time_order(queue):
    order = []
    queue.schedule(Event(lambda: order.append("b")), 200)
    queue.schedule(Event(lambda: order.append("a")), 100)
    queue.schedule(Event(lambda: order.append("c")), 300)
    queue.run()
    assert order == ["a", "b", "c"]


def test_same_tick_fifo_order(queue):
    order = []
    for name in "abc":
        queue.schedule(Event(lambda n=name: order.append(n)), 50)
    queue.run()
    assert order == ["a", "b", "c"]


def test_priority_breaks_ties(queue):
    order = []
    queue.schedule(Event(lambda: order.append("low"), priority=10), 50)
    queue.schedule(Event(lambda: order.append("high"), priority=-10), 50)
    queue.run()
    assert order == ["high", "low"]


def test_schedule_in_past_rejected(queue):
    queue.schedule(Event(lambda: None), 100)
    queue.run()
    with pytest.raises(ValueError):
        queue.schedule(Event(lambda: None), 50)


def test_double_schedule_rejected(queue):
    event = Event(lambda: None)
    queue.schedule(event, 10)
    with pytest.raises(RuntimeError):
        queue.schedule(event, 20)


def test_deschedule_cancels(queue):
    fired = []
    event = Event(lambda: fired.append(1))
    queue.schedule(event, 10)
    queue.deschedule(event)
    queue.run()
    assert fired == []
    assert not event.scheduled


def test_reschedule_moves_event(queue):
    fired = []
    event = Event(lambda: fired.append(queue.now))
    queue.schedule(event, 10)
    queue.reschedule(event, 500)
    queue.run()
    assert fired == [500]


def test_event_is_single_shot(queue):
    fired = []
    event = Event(lambda: fired.append(queue.now))
    queue.schedule(event, 10)
    queue.run()
    assert not event.scheduled
    queue.schedule(event, 20)   # may be rescheduled after firing
    queue.run()
    assert fired == [10, 20]


def test_run_until_is_inclusive(queue):
    fired = []
    queue.schedule(Event(lambda: fired.append("at")), 100)
    queue.schedule(Event(lambda: fired.append("after")), 101)
    queue.run(until=100)
    assert fired == ["at"]
    assert queue.now == 100


def test_run_until_advances_time_without_events(queue):
    queue.run(until=12345)
    assert queue.now == 12345


def test_run_until_ends_at_until_after_the_queue_drains(queue):
    """Shards rely on this: each chunk ends at its target tick in every
    shard, whether or not that shard ran out of events first."""
    queue.schedule(Event(lambda: None), 10)
    queue.run(until=100)
    assert queue.now == 100


def test_run_max_events(queue):
    fired = []
    for i in range(10):
        queue.schedule(Event(lambda i=i: fired.append(i)), i + 1)
    queue.run(max_events=3)
    assert fired == [0, 1, 2]


def test_events_scheduled_during_run_execute(queue):
    order = []

    def first():
        order.append("first")
        queue.schedule(Event(lambda: order.append("nested")), queue.now + 5)

    queue.schedule(Event(first), 10)
    queue.run()
    assert order == ["first", "nested"]


def test_schedule_after_relative(queue):
    queue.run(until=100)
    fired = []
    queue.schedule_after(Event(lambda: fired.append(queue.now)), 50)
    queue.run()
    assert fired == [150]


def test_negative_delay_rejected(queue):
    with pytest.raises(ValueError):
        queue.schedule_after(Event(lambda: None), -1)


def test_call_after_convenience(queue):
    fired = []
    queue.call_after(25, lambda: fired.append(queue.now))
    queue.run()
    assert fired == [25]


def test_fired_counter(queue):
    for i in range(5):
        queue.call_after(i + 1, lambda: None)
    queue.run()
    assert queue.fired == 5


def test_pending_count_excludes_cancelled(queue):
    keep = Event(lambda: None)
    drop = Event(lambda: None)
    queue.schedule(keep, 10)
    queue.schedule(drop, 20)
    queue.deschedule(drop)
    assert queue.pending == 1


def test_peek_skips_cancelled(queue):
    drop = Event(lambda: None)
    queue.schedule(drop, 5)
    queue.schedule(Event(lambda: None), 10)
    queue.deschedule(drop)
    assert queue.peek() == 10


def test_determinism_two_queues_same_schedule():
    def build():
        q = EventQueue()
        log = []
        for i in range(20):
            q.schedule(Event(lambda i=i: log.append(i)), (i * 7) % 5 + 1)
        q.run()
        return log

    assert build() == build()
