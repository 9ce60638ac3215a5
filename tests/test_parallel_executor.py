"""Unit tests for the parallel sweep executor's building blocks.

Covers the point constructors, the label-derived per-point seeding, the
cache key, result encode/decode round-trips, dedupe of identical points,
and the serial execution path across all three point kinds.  Failure
injection and the parallel path live in test_parallel_failures.py; the
serial-vs-parallel determinism property in test_parallel_determinism.py.
"""

import dataclasses

import pytest

from repro.harness.msb import MsbResult
from repro.harness.parallel import (
    KIND_FIXED_LOAD,
    KIND_MEMCACHED,
    KIND_MSB,
    SweepExecutor,
    SweepPoint,
    cache_key,
    decode_result,
    encode_result,
    execute_point,
    fixed_load_point,
    memcached_point,
    msb_point,
)
from repro.harness.runner import FixedLoadResult, MemcachedRunResult
from repro.system.presets import altra, gem5_default


class TestPointConstructors:
    def test_fixed_load_point(self):
        p = fixed_load_point(gem5_default(), "testpmd", 256, 10.0,
                             n_packets=500, seed=3)
        assert p.kind == KIND_FIXED_LOAD
        assert p.app == "testpmd"
        assert p.packet_size == 256
        assert p.load == 10.0
        assert p.n_packets == 500
        assert p.seed == 3

    def test_memcached_point_flavours(self):
        kernel = memcached_point(gem5_default(), kernel=True,
                                 rate_rps=200_000.0)
        dpdk = memcached_point(gem5_default(), kernel=False,
                               rate_rps=200_000.0)
        assert kernel.kind == KIND_MEMCACHED
        assert kernel.app == "memcached_kernel"
        assert dpdk.app == "memcached_dpdk"

    def test_msb_point(self):
        p = msb_point(gem5_default(), "iperf", 1518, max_gbps=16.0)
        assert p.kind == KIND_MSB
        assert p.load == 16.0

    def test_points_are_frozen_and_hashable(self):
        p = fixed_load_point(gem5_default(), "testpmd", 256, 10.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.seed = 1
        assert p == fixed_load_point(gem5_default(), "testpmd", 256, 10.0)


class TestSeeding:
    def test_rng_label_identifies_the_point(self):
        a = fixed_load_point(gem5_default(), "testpmd", 256, 10.0)
        b = fixed_load_point(gem5_default(), "testpmd", 512, 10.0)
        assert a.rng_label != b.rng_label

    def test_rng_label_shared_across_loads(self):
        # Points differing only in offered load share one RNG stream,
        # so a load sweep passes through identical warm-up state and can
        # share a single warm-up checkpoint (docs/checkpointing.md).
        a = fixed_load_point(gem5_default(), "testpmd", 256, 10.0)
        b = fixed_load_point(gem5_default(), "testpmd", 256, 20.0)
        assert a.rng_label == b.rng_label
        assert a.effective_seed == b.effective_seed

    def test_effective_seed_is_stable(self):
        p = fixed_load_point(gem5_default(), "testpmd", 256, 10.0, seed=7)
        assert p.effective_seed == \
            fixed_load_point(gem5_default(), "testpmd", 256, 10.0,
                             seed=7).effective_seed

    def test_effective_seed_depends_on_base_seed_and_label(self):
        base = fixed_load_point(gem5_default(), "testpmd", 256, 10.0,
                                seed=0)
        reseeded = fixed_load_point(gem5_default(), "testpmd", 256, 10.0,
                                    seed=1)
        relabelled = fixed_load_point(gem5_default(), "touchfwd", 256,
                                      10.0, seed=0)
        assert base.effective_seed != reseeded.effective_seed
        assert base.effective_seed != relabelled.effective_seed

    def test_app_options_feed_the_label(self):
        plain = fixed_load_point(gem5_default(), "rxptx", 256, 10.0)
        tuned = fixed_load_point(gem5_default(), "rxptx", 256, 10.0,
                                 app_options={"proc_time_ns": 40.0})
        assert plain.rng_label != tuned.rng_label


class TestCacheKey:
    def test_key_is_stable(self):
        p = fixed_load_point(gem5_default(), "testpmd", 256, 10.0)
        assert cache_key(p) == cache_key(
            fixed_load_point(gem5_default(), "testpmd", 256, 10.0))

    def test_key_covers_seed(self):
        a = fixed_load_point(gem5_default(), "testpmd", 256, 10.0, seed=0)
        b = fixed_load_point(gem5_default(), "testpmd", 256, 10.0, seed=1)
        assert cache_key(a) != cache_key(b)

    def test_key_covers_config(self):
        a = fixed_load_point(gem5_default(), "testpmd", 256, 10.0)
        b = fixed_load_point(altra(), "testpmd", 256, 10.0)
        c = fixed_load_point(gem5_default().variant(link_delay_us=50.0),
                             "testpmd", 256, 10.0)
        assert len({cache_key(a), cache_key(b), cache_key(c)}) == 3

    def test_key_covers_kind_and_load(self):
        fixed = fixed_load_point(gem5_default(), "testpmd", 256, 10.0)
        msb = msb_point(gem5_default(), "testpmd", 256, max_gbps=10.0)
        assert cache_key(fixed) != cache_key(msb)


class TestEncodeDecode:
    def test_fixed_load_round_trip(self):
        result = execute_point(
            fixed_load_point(gem5_default(), "testpmd", 256, 5.0,
                             n_packets=200))
        assert isinstance(result, FixedLoadResult)
        decoded = decode_result(encode_result(result))
        assert dataclasses.asdict(decoded) == dataclasses.asdict(result)

    def test_memcached_round_trip(self):
        result = execute_point(
            memcached_point(gem5_default(), kernel=False,
                            rate_rps=100_000.0, n_requests=300))
        assert isinstance(result, MemcachedRunResult)
        decoded = decode_result(encode_result(result))
        assert dataclasses.asdict(decoded) == dataclasses.asdict(result)

    def test_msb_round_trip_preserves_curve_tuples(self):
        result = execute_point(
            msb_point(gem5_default(), "testpmd", 256, max_gbps=12.0,
                      n_packets=300))
        assert isinstance(result, MsbResult)
        decoded = decode_result(encode_result(result))
        assert dataclasses.asdict(decoded) == dataclasses.asdict(result)
        assert all(isinstance(pt, tuple) for pt in decoded.curve)

    def test_plain_dict_round_trip(self):
        payload = {"ok": True, "n": 3}
        assert decode_result(encode_result(payload)) == payload


class TestSerialExecution:
    def test_all_three_kinds(self):
        config = gem5_default()
        results = SweepExecutor(jobs=1).run([
            fixed_load_point(config, "testpmd", 256, 5.0, n_packets=200),
            memcached_point(config, kernel=True, rate_rps=80_000.0,
                            n_requests=300),
            msb_point(config, "iperf", 1518, max_gbps=8.0, n_packets=300),
        ])
        assert isinstance(results[0], FixedLoadResult)
        assert isinstance(results[1], MemcachedRunResult)
        assert isinstance(results[2], MsbResult)

    def test_results_keep_input_order(self):
        config = gem5_default()
        rates = [15.0, 5.0, 10.0]
        results = SweepExecutor(jobs=1).run([
            fixed_load_point(config, "testpmd", 256, r, n_packets=200)
            for r in rates])
        assert [round(r.offered_gbps, 1) for r in results] == rates

    def test_identical_points_are_deduped(self):
        config = gem5_default()
        point = fixed_load_point(config, "testpmd", 256, 5.0,
                                 n_packets=200)
        ex = SweepExecutor(jobs=1)
        a, b, c = ex.run([point, point, point])
        assert ex.stats.executed == 1
        assert ex.stats.deduped == 2
        assert dataclasses.asdict(a) == dataclasses.asdict(b)
        assert dataclasses.asdict(b) == dataclasses.asdict(c)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown sweep point kind"):
            execute_point(SweepPoint(kind="nonsense"))

    def test_empty_input(self):
        assert SweepExecutor(jobs=4).run([]) == []
