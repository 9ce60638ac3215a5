"""Unit tests for the core timing models."""

import pytest

from repro.cpu import InOrderCore, OutOfOrderCore, make_core
from repro.cpu.core import CoreConfig, Work
from repro.mem.hierarchy import MemoryHierarchy


@pytest.fixture
def hierarchy():
    return MemoryHierarchy()


def ooo(hierarchy, **overrides):
    return OutOfOrderCore(CoreConfig(**overrides), hierarchy)


def inorder(hierarchy, **overrides):
    overrides.setdefault("ooo", False)
    return InOrderCore(CoreConfig(**overrides), hierarchy)


class TestFactory:
    def test_make_core_dispatch(self, hierarchy):
        assert isinstance(make_core(CoreConfig(ooo=True), hierarchy),
                          OutOfOrderCore)
        assert isinstance(make_core(CoreConfig(ooo=False), hierarchy),
                          InOrderCore)

    def test_ooo_class_requires_ooo_config(self, hierarchy):
        with pytest.raises(ValueError):
            OutOfOrderCore(CoreConfig(ooo=False), hierarchy)


class TestConfig:
    def test_period(self):
        assert CoreConfig(freq_hz=1e9).period_ns == pytest.approx(1.0)
        assert CoreConfig(freq_hz=4e9).period_ns == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            CoreConfig(freq_hz=0)
        with pytest.raises(ValueError):
            CoreConfig(rob_entries=0)
        with pytest.raises(ValueError):
            CoreConfig(efficiency=0)


class TestComputeTiming:
    def test_pure_compute_scales_with_frequency(self, hierarchy):
        slow = ooo(hierarchy, freq_hz=1e9)
        fast = ooo(hierarchy, freq_hz=4e9)
        work = Work(compute_cycles=400)
        assert slow.execute(work) == pytest.approx(4 * fast.execute(work))

    def test_efficiency_divides_compute(self, hierarchy):
        base = ooo(hierarchy)
        better = ooo(hierarchy, efficiency=2.0)
        work = Work(compute_cycles=1000)
        assert better.execute(work) == pytest.approx(base.execute(work) / 2)

    def test_busy_time_accumulates(self, hierarchy):
        core = ooo(hierarchy)
        core.execute(Work(compute_cycles=300))
        core.execute(Work(compute_cycles=300))
        assert core.work_units == 2
        assert core.busy_ns == pytest.approx(200.0)


class TestMemoryTiming:
    def test_l1_hits_nearly_free_on_ooo(self, hierarchy):
        core = ooo(hierarchy)
        addrs = [0x1000 + i * 64 for i in range(8)]
        core.execute(Work(reads=addrs))        # warm
        warm = core.execute(Work(reads=addrs))
        nothing = core.execute(Work())
        # Warm L1 hits cost only issue bandwidth.
        assert warm - nothing < 8 * 2 * core.config.period_ns

    def test_l1_hits_serialized_on_inorder(self, hierarchy):
        core = inorder(hierarchy)
        addrs = [0x1000 + i * 64 for i in range(8)]
        core.execute(Work(reads=addrs))        # warm
        warm = core.execute(Work(reads=addrs))
        # Each hit pays its 2-cycle L1 latency serially.
        assert warm >= 8 * 2 * core.config.period_ns

    def test_ooo_overlaps_misses(self):
        hier_a, hier_b = MemoryHierarchy(), MemoryHierarchy()
        fast = ooo(hier_a)
        slow = inorder(hier_b)
        addrs = [0x100000 + i * 4096 for i in range(16)]
        t_ooo = fast.execute(Work(reads=list(addrs)))
        t_ino = slow.execute(Work(reads=list(addrs)))
        assert t_ooo < t_ino / 2

    def test_dependent_reads_serialize_even_on_ooo(self, hierarchy):
        core = ooo(hierarchy)
        addrs = [0x200000 + i * 4096 for i in range(8)]
        t_indep = core.execute(Work(reads=list(addrs)))
        core2 = ooo(MemoryHierarchy())
        t_dep = core2.execute(Work(dependent_reads=list(addrs)))
        assert t_dep > t_indep

    def test_max_mlp_caps_overlap(self):
        addrs = [0x300000 + i * 4096 for i in range(16)]
        wide = ooo(MemoryHierarchy())
        narrow = ooo(MemoryHierarchy())
        t_wide = wide.execute(Work(reads=list(addrs)))
        t_narrow = narrow.execute(Work(reads=list(addrs), max_mlp=1))
        assert t_narrow > t_wide

    def test_l1_hit_counter(self, hierarchy):
        core = ooo(hierarchy)
        core.execute(Work(reads=[0x1000]))
        core.execute(Work(reads=[0x1000]))
        assert core.l1_hits == 1


class TestMlpLimit:
    def test_rob_bounds_mlp(self, hierarchy):
        small = ooo(hierarchy, rob_entries=16, insts_per_access=8)
        big = ooo(MemoryHierarchy(), rob_entries=128, insts_per_access=8)
        assert small.mlp_limit == 2
        assert big.mlp_limit > small.mlp_limit

    def test_mshrs_bound_mlp(self, hierarchy):
        core = ooo(hierarchy, rob_entries=10000)
        assert core.mlp_limit <= hierarchy.config.l2.mshrs

    def test_mlp_at_least_one(self, hierarchy):
        core = ooo(hierarchy, rob_entries=1, insts_per_access=64)
        assert core.mlp_limit == 1


class TestInOrderPenalty:
    def test_penalty_multiplies_compute(self, hierarchy):
        core = inorder(hierarchy)
        base = core.execute(Work(compute_cycles=300, inorder_penalty=1.0))
        heavy = core.execute(Work(compute_cycles=300, inorder_penalty=6.0))
        assert heavy == pytest.approx(6 * base)

    def test_penalty_ignored_by_ooo(self, hierarchy):
        core = ooo(hierarchy)
        a = core.execute(Work(compute_cycles=300, inorder_penalty=1.0))
        b = core.execute(Work(compute_cycles=300, inorder_penalty=6.0))
        assert a == pytest.approx(b)


class TestCounters:
    def test_reset(self, hierarchy):
        core = ooo(hierarchy)
        core.execute(Work(compute_cycles=10, reads=[0x40]))
        core.reset_measurement()
        assert core.busy_ns == 0
        assert core.work_units == 0
        assert core.accesses == 0
