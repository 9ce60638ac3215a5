"""Unit tests for descriptor rings and the descriptor cache."""

import pytest

from repro.mem.address import AddressSpace
from repro.net.packet import Packet
from repro.nic.descriptors import DESC_SIZE, RxRing, TxRing


@pytest.fixture
def space():
    return AddressSpace()


def make_rx(space, size=8, threshold=4, cache=8):
    region = space.allocate("rx", size * DESC_SIZE)
    return RxRing(size, region, writeback_threshold=threshold,
                  desc_cache_size=cache)


def make_tx(space, size=8):
    region = space.allocate("tx", size * DESC_SIZE)
    return TxRing(size, region)


def pkt(size=64):
    return Packet(wire_len=size)


class TestRxRing:
    def test_starts_fully_posted(self, space):
        ring = make_rx(space)
        assert ring.nic_free_descriptors == 8
        assert not ring.full

    def test_fill_consumes_posted(self, space):
        ring = make_rx(space)
        ring.fill(0x1000, pkt())
        assert ring.nic_free_descriptors == 7
        assert ring.pending_writeback_count == 1

    def test_full_after_all_filled(self, space):
        ring = make_rx(space)
        for i in range(8):
            ring.fill(0x1000 + i, pkt())
        assert ring.full
        with pytest.raises(RuntimeError):
            ring.fill(0x2000, pkt())

    def test_writeback_due_at_threshold(self, space):
        ring = make_rx(space, threshold=4)
        for i in range(3):
            ring.fill(0x1000, pkt())
        assert not ring.writeback_due
        ring.fill(0x1000, pkt())
        assert ring.writeback_due

    def test_writeback_moves_to_completed(self, space):
        ring = make_rx(space, threshold=4)
        for _ in range(4):
            ring.fill(0x1000, pkt())
        batch = ring.writeback()
        assert len(batch) == 4
        assert ring.completed_count == 4
        assert ring.pending_writeback_count == 0
        assert ring.writebacks == 1

    def test_descriptor_cache_bound_forces_writeback(self, space):
        ring = make_rx(space, size=8, threshold=100, cache=4)
        for _ in range(4):
            ring.fill(0x1000, pkt())
        # Threshold 100 never reached, but the 4-entry cache is full.
        assert ring.writeback_due

    def test_harvest_and_replenish_cycle(self, space):
        ring = make_rx(space, threshold=2)
        ring.fill(0x1000, pkt())
        ring.fill(0x1001, pkt())
        ring.writeback()
        descs = ring.harvest(32)
        assert len(descs) == 2
        assert ring.completed_count == 0
        ring.replenish(2)
        assert ring.nic_free_descriptors == 8

    def test_harvest_respects_limit(self, space):
        ring = make_rx(space, threshold=1)
        for _ in range(3):
            ring.fill(0x1000, pkt())
            ring.writeback()
        assert len(ring.harvest(2)) == 2
        assert ring.completed_count == 1

    def test_overreplenish_rejected(self, space):
        ring = make_rx(space)
        with pytest.raises(RuntimeError):
            ring.replenish(1)   # all 8 already posted

    def test_descriptor_indices_wrap(self, space):
        ring = make_rx(space, size=4, threshold=1)
        indices = []
        for i in range(6):
            desc = ring.fill(0x1000, pkt())
            indices.append(desc.index)
            ring.writeback()
            ring.harvest(1)
            ring.replenish(1)
        assert indices == [0, 1, 2, 3, 0, 1]

    def test_desc_addr_layout(self, space):
        ring = make_rx(space)
        assert ring.desc_addr(1) - ring.desc_addr(0) == DESC_SIZE
        assert ring.desc_addr(8) == ring.desc_addr(0)   # wraps

    def test_threshold_validation(self, space):
        region = space.allocate("r2", 8 * DESC_SIZE)
        with pytest.raises(ValueError):
            RxRing(8, region, writeback_threshold=0)

    def test_region_size_validated(self, space):
        small = space.allocate("small", 4)
        with pytest.raises(ValueError):
            RxRing(8, small)


class TestTxRing:
    def test_enqueue_consume_order(self, space):
        ring = make_tx(space)
        a, b = pkt(), pkt()
        ring.enqueue(0x1000, a)
        ring.enqueue(0x2000, b)
        assert ring.consume() == (0x1000, a)
        assert ring.consume() == (0x2000, b)

    def test_full_rejects(self, space):
        ring = make_tx(space, size=2)
        assert ring.enqueue(0, pkt())
        assert ring.enqueue(0, pkt())
        assert ring.full
        assert not ring.enqueue(0, pkt())

    def test_free_slots(self, space):
        ring = make_tx(space, size=4)
        ring.enqueue(0, pkt())
        assert ring.free_slots == 3
        assert ring.held() == 1

    def test_consume_empty_raises(self, space):
        with pytest.raises(IndexError):
            make_tx(space).consume()

    def test_peek(self, space):
        ring = make_tx(space)
        a = pkt()
        ring.enqueue(0x10, a)
        assert ring.peek() == (0x10, a)
        assert ring.held() == 1
