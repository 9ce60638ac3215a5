"""Unit/integration tests for the experiment harness."""

import pytest

from repro.harness import runner
from repro.harness.msb import MsbResult, bandwidth_sweep, find_msb
from repro.harness.report import format_series, format_table
from repro.harness.runner import (
    APP_REGISTRY,
    build_node,
    run_fixed_load,
    run_memcached,
)
from repro.system.presets import altra, gem5_default


class TestRegistry:
    def test_all_paper_apps_registered(self):
        for app in ("testpmd", "touchfwd", "touchdrop", "rxptx",
                    "memcached_dpdk", "memcached_kernel", "iperf"):
            assert app in APP_REGISTRY

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            build_node(gem5_default(), "nginx")

    def test_build_node_creates_store_for_memcached(self):
        node = build_node(gem5_default(), "memcached_dpdk")
        assert node.app.store is not None


class TestFixedLoad:
    def test_clean_run_no_drops(self):
        result = run_fixed_load(gem5_default(), "testpmd", 256, 2.0,
                                n_packets=400)
        assert result.drop_rate == pytest.approx(0.0, abs=0.01)
        assert result.sent >= 400
        assert result.latency_us["count"] > 0

    def test_overload_drops_and_classifies(self):
        result = run_fixed_load(gem5_default(), "testpmd", 64, 60.0,
                                n_packets=1500)
        assert result.drop_rate > 0.2
        assert sum(result.drop_breakdown.values()) == pytest.approx(1.0)

    def test_service_rate_reported(self):
        result = run_fixed_load(gem5_default(), "testpmd", 64, 60.0,
                                n_packets=1500)
        assert 0 < result.service_gbps < 60.0

    def test_touchdrop_uses_app_counter(self):
        result = run_fixed_load(gem5_default(), "touchdrop", 256, 1.0,
                                n_packets=300)
        assert result.delivered > 0
        assert result.drop_rate < 0.05

    def test_altra_clamps_to_client_ceiling(self):
        result = run_fixed_load(altra(), "testpmd", 64, 60.0,
                                n_packets=500)
        # 15.6 Mpps at 64B is ~8 Gbps: the client cannot offer 60.
        assert result.offered_gbps == pytest.approx(8.0, rel=0.05)

    @staticmethod
    def _forbid_builds(monkeypatch):
        def build_node(*args, **kwargs):
            raise AssertionError("a refused run built a node")
        monkeypatch.setattr(runner, "build_node", build_node)

    @pytest.mark.parametrize("app", ["memcached_dpdk", "memcached_kernel"])
    def test_memcached_apps_refused_before_any_build(self, app,
                                                     monkeypatch):
        """They absorb synthetic frames, so a fixed-rate run (or an MSB
        search made of them) would report a number for a run that
        served nothing."""
        self._forbid_builds(monkeypatch)
        with pytest.raises(ValueError, match="run_memcached"):
            run_fixed_load(gem5_default(), app, 256, 5.0)
        with pytest.raises(ValueError, match="run_memcached"):
            find_msb(gem5_default(), app, 256, max_gbps=5.0)

    @pytest.mark.parametrize("size,gbps", [(10, 5.0), (256, 0.0)])
    def test_bad_size_or_rate_fails_before_the_warm_up(self, size, gbps,
                                                       monkeypatch):
        self._forbid_builds(monkeypatch)
        with pytest.raises(ValueError):
            run_fixed_load(gem5_default(), "testpmd", size, gbps)


class TestMsb:
    def test_testpmd_msb_reasonable(self):
        result = find_msb(gem5_default(), "testpmd", 1518)
        assert isinstance(result, MsbResult)
        assert 40.0 < result.msb_gbps < 70.0
        assert len(result.curve) >= 1

    def test_touchdrop_msb_undefined(self):
        with pytest.raises(ValueError, match="TouchDrop"):
            find_msb(gem5_default(), "touchdrop", 64)

    def test_msb_monotone_in_packet_size_for_testpmd(self):
        small = find_msb(gem5_default(), "testpmd", 128).msb_gbps
        large = find_msb(gem5_default(), "testpmd", 1518).msb_gbps
        assert large > small

    def test_drop_at_returns_nearest_point(self):
        result = MsbResult(label="x", app="testpmd", packet_size=64,
                           msb_gbps=10.0, curve=[(5.0, 0.0), (15.0, 0.3)])
        assert result.drop_at(6.0) == 0.0
        assert result.drop_at(14.0) == 0.3


class TestBandwidthSweep:
    def test_drop_rises_with_rate(self):
        points = bandwidth_sweep(gem5_default(), "touchfwd", 256,
                                 rates_gbps=[2.0, 20.0], n_packets=600)
        assert points[0][1] < 0.05
        assert points[-1][1] > 0.2

    def test_altra_curve_truncated_at_ceiling(self):
        points = bandwidth_sweep(altra(), "testpmd", 64,
                                 rates_gbps=[4.0, 8.0, 20.0, 40.0],
                                 n_packets=300)
        # Offered rates beyond the client ceiling collapse onto it.
        assert max(x for x, _d in points) == pytest.approx(8.0, rel=0.05)
        assert len(points) <= 3


class TestMemcachedRuns:
    def test_low_rate_clean(self):
        result = run_memcached(gem5_default(), kernel=False,
                               rate_rps=100_000, n_requests=500)
        assert result.drop_rate < 0.02
        assert result.responses > 0
        assert result.get_hits > 0

    def test_kernel_slower_than_dpdk(self):
        # The measured window starts from quiescence, so the kernel
        # server's empty backlog absorbs the first ~hundred requests
        # before drops appear — the window must be long enough for the
        # steady-state drop rate to dominate that ramp.
        kernel = run_memcached(gem5_default(), kernel=True,
                               rate_rps=500_000, n_requests=2400)
        dpdk = run_memcached(gem5_default(), kernel=False,
                             rate_rps=500_000, n_requests=2400)
        assert kernel.drop_rate > dpdk.drop_rate + 0.1


class TestReport:
    def test_format_table(self):
        text = format_table("T", ["a", "b"], [[1, 2.5], ["x", 10000.0]])
        assert "T" in text
        assert "10,000" in text

    def test_format_series(self):
        text = format_series("S", {"curve": [(1, 0.5)]}, "gbps", "drop")
        assert "[curve]" in text
        assert "gbps" in text
