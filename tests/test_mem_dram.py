"""Unit tests for the DRAM model."""

import pytest

from repro.mem.dram import DramConfig, DramModel


def make_dram(channels=2, banks=4, row=2048, bw=19.2):
    return DramModel(DramConfig(channels=channels, banks_per_channel=banks,
                                row_size=row,
                                channel_bw_bytes_per_ns=bw))


def test_first_access_is_row_miss():
    dram = make_dram()
    latency = dram.access(0, 0.0)
    assert dram.row_misses == 1
    assert latency >= dram.config.t_row_miss_ns


def test_same_row_hits():
    dram = make_dram(channels=1)
    dram.access(0, 0.0)
    dram.access(64, 1000.0)
    assert dram.row_hits == 1


def test_row_hit_is_faster():
    dram = make_dram(channels=1)
    miss = dram.access(0, 0.0)
    hit = dram.access(64, 1e6)
    assert hit < miss


def test_different_rows_same_bank_conflict():
    dram = make_dram(channels=1, banks=4, row=2048)
    dram.access(0, 0.0)
    # Same bank = row number congruent mod banks; row stride is
    # row_size * channels bytes.
    conflict_addr = 2048 * 4
    dram.access(conflict_addr, 1e6)
    assert dram.row_misses == 2


def test_channel_interleave_at_line_granularity():
    dram = make_dram(channels=2)
    cfg = dram.config
    ch0 = dram._map(0)[0]
    ch1 = dram._map(cfg.line_size)[0]
    assert ch0 != ch1


def test_more_channels_spread_load():
    dram = make_dram(channels=4)
    channels = {dram._map(i * 64)[0] for i in range(4)}
    assert channels == {0, 1, 2, 3}


def test_queueing_under_back_to_back_load():
    dram = make_dram(channels=1, bw=1.0)   # 64ns per line transfer
    first = dram.access(0, 0.0)
    second = dram.access(64, 0.0)          # same instant: queues behind
    assert second > first - dram.config.t_row_miss_ns + dram.config.t_cas_ns


def test_queueing_bounded():
    dram = make_dram(channels=1, bw=1.0)
    for i in range(200):
        latency = dram.access(i * 64, 0.0)
    cfg = dram.config
    bound = (cfg.queue_depth * (cfg.t_cas_ns + 64.0)
             + cfg.t_row_miss_ns + 64.0 + 1)
    assert latency <= bound


def test_read_write_counters():
    dram = make_dram()
    dram.access(0, 0.0, is_write=True)
    dram.access(64, 0.0, is_write=False)
    assert dram.writes == 1
    assert dram.reads == 1


def test_peak_bandwidth_scales_with_channels():
    assert (make_dram(channels=4).peak_bandwidth_bytes_per_ns()
            == 2 * make_dram(channels=2).peak_bandwidth_bytes_per_ns())


def test_row_hit_rate():
    dram = make_dram(channels=1)
    dram.access(0, 0.0)
    dram.access(64, 1e6)
    dram.access(128, 2e6)
    assert dram.row_hit_rate == pytest.approx(2 / 3)


def test_reset_counters():
    dram = make_dram()
    dram.access(0, 0.0)
    dram.reset_measurement()
    assert dram.reads == 0
    assert dram.row_misses == 0


def test_config_validation():
    with pytest.raises(ValueError):
        DramConfig(channels=0)
    with pytest.raises(ValueError):
        DramConfig(banks_per_channel=0)
    with pytest.raises(ValueError):
        DramConfig(row_size=32, line_size=64)
    for field, value in (("channel_bw_bytes_per_ns", 0.0),
                         ("channel_bw_bytes_per_ns", -19.2),
                         ("line_size", 0),
                         ("line_size", -64),
                         ("t_cas_ns", -5.0),
                         ("t_row_miss_ns", -1.0),
                         ("queue_depth", -1)):
        with pytest.raises(ValueError, match=field):
            DramConfig(**{field: value})
