"""Unit tests for the deterministic event queue."""

import pytest

from repro.sim.checkpoint import CheckpointError
from repro.sim.event_queue import Event, EventPool, EventQueue


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


# ----------------------------------------------------------------------
# Pooled firings (EventPool): one order, count and error behaviour on
# the batched path (a bare queue entry per firing) and on the reference
# path (a fresh Event per firing).
# ----------------------------------------------------------------------

@pytest.fixture(params=[True, False], ids=["batched", "reference"])
def batched(request, monkeypatch):
    """Select the event path; queues and pools built in the test read
    it at construction."""
    monkeypatch.setenv("REPRO_EVENT_BATCH", "1" if request.param else "0")
    return request.param


def test_pooled_and_named_fire_in_schedule_order_on_the_heap(batched):
    queue = EventQueue()
    order = []
    pool = EventPool(order.append, "pool")
    queue.schedule(Event(lambda: order.append("named-1")), 10)
    pool.schedule_at(queue, 10, "pooled-1")
    queue.schedule(Event(lambda: order.append("named-2")), 10)
    pool.schedule_at(queue, 10, "pooled-2")
    pool.schedule_at(queue, 5, "pooled-early")
    queue.schedule(Event(lambda: order.append("named-urgent"),
                         priority=-1), 10)
    queue.run()
    assert order == ["pooled-early", "named-urgent", "named-1", "pooled-1",
                     "named-2", "pooled-2"]


def test_pooled_and_named_fire_in_schedule_order_on_the_fifo(batched):
    """Entries scheduled at the current tick join the same-tick FIFO on
    the batched path and still fire behind an earlier heap entry for
    the same tick."""
    queue = EventQueue()
    order = []
    pool = EventPool(order.append, "pool")
    fifo_depth = []

    def at_ten():
        order.append("named-heap")
        pool.schedule_at(queue, queue.now, "pooled-now-1")
        queue.schedule(Event(lambda: order.append("named-now")), queue.now)
        pool.schedule_at(queue, queue.now, "pooled-now-2")
        fifo_depth.append(len(queue._fifo))

    queue.schedule(Event(at_ten), 10)
    pool.schedule_at(queue, 10, "pooled-heap")
    queue.run()
    assert fifo_depth == [3 if batched else 0]
    assert order == ["named-heap", "pooled-heap", "pooled-now-1",
                     "named-now", "pooled-now-2"]


def test_pending_pooled_firing_is_counted_and_blocks_a_checkpoint(batched):
    queue = EventQueue()
    pool = EventPool(lambda payload: None, "nic0.rx_dma_done")
    assert repr(pool) == "<EventPool nic0.rx_dma_done>"
    pool.schedule_at(queue, 40, "frame")
    assert queue.pending == 1
    assert queue.peek() == 40
    with pytest.raises(CheckpointError, match=r"nic0\.rx_dma_done"):
        queue.serialize_state({})
    queue.run()
    assert queue.pending == 0
    assert queue.peek() is None
    assert queue.serialize_state({})["events"] == []


def test_pooled_firing_into_the_past_rejected(batched):
    queue = EventQueue()
    pool = EventPool(lambda payload: None, "pool")
    queue.run(until=100)
    with pytest.raises(ValueError):
        pool.schedule_at(queue, 99)
    assert queue.pending == 0
    assert queue.peek() is None


def test_on_event_names_each_pooled_firing_by_its_pool(batched):
    """The hook sees one object per pooled firing, carrying the pool's
    name and a callback that leads to the pool's dispatch function:
    what a tracer attributes the firing to."""
    queue = EventQueue()
    delivered = []

    def deliver(payload):
        delivered.append(payload)

    pool = EventPool(deliver, "link0.deliver")
    seen = []
    queue.on_event = seen.append
    pool.schedule_at(queue, 5, "a")
    queue.call_at(6, lambda: None, name="named")
    pool.schedule_at(queue, 7, "b")
    queue.run()
    assert delivered == ["a", "b"]
    assert [obj.name for obj in seen] == ["link0.deliver", "named",
                                          "link0.deliver"]
    for obj, payload in ((seen[0], "a"), (seen[2], "b")):
        if batched:
            assert obj.callback is deliver
        else:
            assert obj.callback.func is deliver
            assert obj.callback.args == (payload,)
