"""Unit tests for the deterministic event queue."""

import os
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

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
    early = EventPool(order.append, "early")
    queue.schedule(Event(lambda: order.append("named-1")), 10)
    pool.schedule_at(queue, 10, "pooled-1")
    queue.schedule(Event(lambda: order.append("named-2")), 10)
    pool.schedule_at(queue, 10, "pooled-2")
    early.schedule_at(queue, 5, "pooled-early")
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
    other = EventPool(order.append, "other")
    heap_pool = EventPool(order.append, "heap")
    fifo_depth = []

    def at_ten():
        order.append("named-heap")
        pool.schedule_at(queue, queue.now, "pooled-now-1")
        queue.schedule(Event(lambda: order.append("named-now")), queue.now)
        other.schedule_at(queue, queue.now, "pooled-now-2")
        fifo_depth.append(len(queue._fifo))

    queue.schedule(Event(at_ten), 10)
    heap_pool.schedule_at(queue, 10, "pooled-heap")
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


# ----------------------------------------------------------------------
# Ordered streams: a pool's waiting firings stay in the pool, and only
# its next firing is queued.
# ----------------------------------------------------------------------

def test_a_stream_queues_only_its_next_firing():
    with mock.patch.dict(os.environ, {"REPRO_EVENT_BATCH": "1"}):
        queue = EventQueue()
        delivered = []
        pool = EventPool(delivered.append, "link0.deliver_a")
    for i in range(100):
        pool.schedule_at(queue, 10 + i // 3, i)
    assert (len(queue._heap), pool.pending, queue.pending) == (1, 100, 100)
    while queue.step():
        assert len(queue._heap) + len(queue._fifo) <= 1
        assert pool.pending == queue.pending
    assert delivered == list(range(100))


def test_stream_refuses_a_firing_before_its_previous_one(batched):
    queue = EventQueue()
    pool = EventPool(lambda payload: None, "link0.deliver_a")
    pool.schedule_at(queue, 10, "first")
    with pytest.raises(ValueError,
                       match=r"<EventPool link0\.deliver_a> at 9, before "
                             r"its previous firing at 10"):
        pool.schedule_at(queue, 9, "early")
    assert (queue.pending, pool.pending) == (1, 1)
    assert len(queue.live_events()) == 1
    pool.schedule_at(queue, 10, "same tick")
    queue.run()
    assert (queue.pending, pool.pending) == (0, 0)
    with pytest.raises(ValueError, match=r"link0\.deliver_a.*now is 10"):
        pool.schedule_at(queue, 9, "past")
    assert queue.pending == 0


def test_waiting_firings_are_live_and_block_a_checkpoint(batched):
    queue = EventQueue()
    pool = EventPool(lambda payload: None, "link0.deliver_a")
    poll = Event(lambda: None, name="nic0.poll")
    for tick in (5, 5, 8):
        pool.schedule_at(queue, tick, tick)
    queue.schedule(poll, 6)
    names = ["link0.deliver_a", "link0.deliver_a", "nic0.poll",
             "link0.deliver_a"]
    assert [event.name for event in queue.live_events()] == names
    assert queue.pending == 4
    with pytest.raises(CheckpointError) as refused:
        queue.serialize_state({id(poll): "nic0.poll"})
    message = str(refused.value)
    if batched:
        assert "<EventPool link0.deliver_a> x3" in message
    else:
        assert message.count("link0.deliver_a") == 3
    assert "nic0.poll" not in message
    queue.run(until=6)
    assert [event.name for event in queue.live_events()] == [
        "link0.deliver_a"]
    assert (queue.pending, pool.pending) == (1, 1)


def _fire_script(batched, pools, setup, follow_ups):
    """Run one drawn schedule on one event path; returns the firing
    order.  ``setup`` ops run at tick 0 and each firing runs the next
    op of ``follow_ups`` at its own tick: ("pool", p, dt) schedules on
    pool p at its previous tick (or now, if later) plus dt, ("named",
    priority, dt) a fresh named event at now plus dt, ("cancel", k)
    deschedules the k-th named event made so far."""
    with mock.patch.dict(os.environ,
                         {"REPRO_EVENT_BATCH": "1" if batched else "0"}):
        queue = EventQueue()
        order = []
        streams = [EventPool(order.append, f"pool{p}") for p in range(pools)]
    last = [0] * pools
    named = []
    ops = iter(follow_ups)

    def run_op(op):
        now = queue.now
        if op[0] == "pool":
            _kind, p, dt = op
            last[p] = max(last[p], now) + dt
            streams[p].schedule_at(queue, last[p], f"p{p}@{last[p]}")
        elif op[0] == "named":
            _kind, priority, dt = op
            label = f"n{len(named)}"
            event = Event(lambda: fire(label), name=label, priority=priority)
            named.append(event)
            queue.schedule(event, now + dt)
        elif named:
            queue.deschedule(named[op[1] % len(named)])

    def fire(label):
        order.append(label)
        op = next(ops, None)
        if op is not None:
            run_op(op)

    for stream in streams:
        stream.callback = fire
    for op in setup:
        run_op(op)
    assert queue.pending == len(queue.live_events())
    while queue.step():
        assert queue.pending == len(queue.live_events())
        assert queue.pending >= sum(stream.pending for stream in streams)
    assert all(stream.pending == 0 for stream in streams)
    return order, queue.fired


_OPS = st.one_of(
    st.tuples(st.just("pool"), st.integers(0, 2), st.integers(0, 3)),
    st.tuples(st.just("named"), st.integers(-1, 1), st.integers(0, 3)),
    st.tuples(st.just("cancel"), st.integers(0, 50)))


@settings(max_examples=150, deadline=None)
@given(setup=st.lists(_OPS, min_size=1, max_size=25),
       follow_ups=st.lists(_OPS, max_size=40))
def test_streams_fire_like_fresh_events(setup, follow_ups):
    """Several streams with non-decreasing ticks, named events with
    random priorities, deschedules, and same-tick schedules made inside
    callbacks fire in one sequence whether each pooled firing waits in
    its pool (batched) or sits in the heap as a fresh event
    (reference), and the queue's pending count is its live events
    after every step."""
    batched = _fire_script(True, 3, setup, follow_ups)
    reference = _fire_script(False, 3, setup, follow_ups)
    assert batched == reference
