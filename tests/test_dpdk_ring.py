"""Unit tests for rte_ring."""

import pytest

from repro.dpdk.ring import RteRing


def test_power_of_two_required():
    with pytest.raises(ValueError):
        RteRing("r", 3)
    with pytest.raises(ValueError):
        RteRing("r", 0)


def test_fifo_order():
    ring = RteRing("r", 8)
    for i in range(5):
        ring.enqueue(i)
    assert [ring.dequeue() for _ in range(5)] == [0, 1, 2, 3, 4]


def test_full_rejects():
    ring = RteRing("r", 2)
    assert ring.enqueue(1)
    assert ring.enqueue(2)
    assert not ring.enqueue(3)
    assert ring.enqueue_failures == 1


def test_dequeue_empty_returns_none():
    assert RteRing("r", 2).dequeue() is None


def test_burst_enqueue_partial():
    ring = RteRing("r", 4)
    accepted = ring.enqueue_burst(list(range(10)))
    assert accepted == 4
    assert ring.full


def test_burst_dequeue_partial():
    ring = RteRing("r", 8)
    ring.enqueue_burst([1, 2, 3])
    assert ring.dequeue_burst(10) == [1, 2, 3]
    assert ring.empty


def test_wraparound():
    ring = RteRing("r", 4)
    for i in range(20):
        assert ring.enqueue(i)
        assert ring.dequeue() == i


def test_counts():
    ring = RteRing("r", 8)
    ring.enqueue_burst([1, 2, 3])
    ring.dequeue()
    assert ring.held() == 2
    assert ring.free_count == 6
    assert ring.enqueued == 3
    assert ring.dequeued == 1


def test_negative_burst_rejected():
    with pytest.raises(ValueError):
        RteRing("r", 4).dequeue_burst(-1)


def test_interleaved_producer_consumer():
    ring = RteRing("r", 8)
    produced, consumed = 0, []
    for round_ in range(50):
        while ring.enqueue(produced):
            produced += 1
        consumed.extend(ring.dequeue_burst(3))
    consumed.extend(ring.dequeue_burst(8))
    assert consumed == list(range(len(consumed)))
