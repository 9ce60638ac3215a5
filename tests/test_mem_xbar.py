"""Unit tests for the bandwidth-server link model."""

import pytest

from repro.mem.xbar import BandwidthServer


def test_occupancy_matches_bandwidth():
    # 1 GB/s = 1 byte/ns = 1000 ticks per byte.
    server = BandwidthServer("bus", 1e9)
    assert server.occupancy_ticks(100) == 100_000


def test_transfer_advances_horizon():
    server = BandwidthServer("bus", 1e9)
    start1, finish1 = server.transfer(0, 100)
    start2, finish2 = server.transfer(0, 100)
    assert start1 == 0
    assert start2 == finish1   # queues behind the first (no latency)


def test_latency_added_to_finish_not_occupancy():
    server = BandwidthServer("bus", 1e9, latency_ticks=5000)
    _start, finish = server.transfer(0, 100)
    assert finish == 100_000 + 5000
    # The next transfer starts when the pipe is free, NOT after latency.
    start2, _ = server.transfer(0, 100)
    assert start2 == 100_000


def test_idle_gap_not_accumulated():
    server = BandwidthServer("bus", 1e9)
    server.transfer(0, 100)
    start, _finish = server.transfer(10**9, 100)
    assert start == 10**9


def test_counters():
    server = BandwidthServer("bus", 1e9)
    server.transfer(0, 100)
    server.transfer(0, 50)
    assert server.bytes_moved == 150
    assert server.transfers == 2


def test_utilization():
    server = BandwidthServer("bus", 1e9)
    server.transfer(0, 100)
    assert server.utilization(200_000) == pytest.approx(0.5)


def test_backlog():
    server = BandwidthServer("bus", 1e9)
    server.transfer(0, 100)
    assert server.backlog_ticks(0) == 100_000
    assert server.backlog_ticks(200_000) == 0


def test_validation():
    with pytest.raises(ValueError):
        BandwidthServer("bus", 0)
    with pytest.raises(ValueError):
        BandwidthServer("bus", 1e9, latency_ticks=-1)
    server = BandwidthServer("bus", 1e9)
    with pytest.raises(ValueError):
        server.occupancy_ticks(-5)


def test_reset_counters():
    server = BandwidthServer("bus", 1e9)
    server.transfer(0, 100)
    server.reset_measurement()
    assert server.bytes_moved == 0
