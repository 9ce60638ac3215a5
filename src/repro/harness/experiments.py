"""Per-figure experiment definitions.

One function per table/figure of the paper's evaluation.  Each returns
plain data structures (dicts/lists) that the corresponding benchmark
prints; EXPERIMENTS.md records the paper-vs-measured comparison.

Experiment scope knobs: most functions accept ``packet_sizes`` /
``n_packets`` style arguments so the benchmark suite can trade runtime
for resolution; defaults are sized to finish the whole suite in minutes.

Every figure is a sweep of independent simulation points, so each
function also accepts ``jobs`` / ``cache_dir`` and routes its points
through :class:`repro.harness.parallel.SweepExecutor`: with ``jobs=N``
the whole figure fans out across up to N child processes, and with a
cache directory re-runs of unchanged points replay from disk.  The
defaults (``jobs=1``, no cache) are the serial reference path and return
bit-identical results to the parallel one.
"""

from __future__ import annotations

import json as _json
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.msb import sweep_points
from repro.harness.parallel import (
    SweepExecutor,
    fixed_load_point,
    memcached_point,
    msb_point,
)
from repro.system.config import SystemConfig
from repro.system.presets import (
    altra,
    gem5_default,
    with_core,
    with_dca,
    with_dram_channels,
    with_frequency,
    with_l1_size,
    with_l2_size,
    with_llc_size,
    with_rob,
)

KIB = 1024
MIB = 1024 * 1024

# The six applications of the sensitivity figures (Figs 10-15) and their
# per-app saturation ceilings / options.
SENSITIVITY_APPS: List[Tuple[str, str, float, Optional[dict]]] = [
    ("testpmd", "TestPMD", 70.0, None),
    ("touchfwd", "TouchFwd", 20.0, None),
    ("iperf", "iperf", 16.0, None),
    ("rxptx-10ns", "RXpTX-10ns", 70.0, {"proc_time_ns": 10.0}),
    ("rxptx-1us", "RXpTX-1us", 70.0, {"proc_time_ns": 1000.0}),
]

SENSITIVITY_SIZES = [128, 256, 512, 1024, 1518]


def _app_name(key: str) -> str:
    return "rxptx" if key.startswith("rxptx") else key


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------

def table1_configs() -> Dict[str, Dict[str, object]]:
    """The simulated and real system configurations side by side."""
    rows = {}
    for config in (gem5_default(), altra()):
        hier = config.hierarchy
        rows[config.label] = {
            "Core freq": f"{config.core.freq_hz / 1e9:.0f}GHz",
            "Superscalar": f"{config.core.width} ways",
            "ROB/IQ entries": f"{config.core.rob_entries}/"
                              f"{config.core.iq_entries}",
            "LQ/SQ entries": f"{config.core.lq_entries}/"
                             f"{config.core.sq_entries}",
            "Branch predictor": config.core.branch_predictor,
            "BTB entries": config.core.btb_entries,
            "L1I/L1D": f"{hier.l1i.size // KIB}KB,{hier.l1i.assoc}/"
                       f"{hier.l1d.size // KIB}KB,{hier.l1d.assoc}",
            "L2": f"{hier.l2.size // MIB}MB,{hier.l2.assoc} ways",
            "L1I/L1D/L2 latency": f"{hier.l1i.latency_cycles}/"
                                  f"{hier.l1d.latency_cycles}/"
                                  f"{hier.l2.latency_cycles}",
            "L1I/L1D/L2 MSHRs": f"{hier.l1i.mshrs}/{hier.l1d.mshrs}/"
                                f"{hier.l2.mshrs}",
            "DRAM channels": hier.dram.channels,
            "DCA/DDIO": "enabled" if hier.dca_enabled else "disabled",
            "Network bandwidth": f"{config.link_bandwidth_bps / 1e9:.0f}Gbps",
            "Network latency": f"{config.link_delay_us:.0f}us",
            "Core type": "O3" if config.core.ooo else "in-order",
        }
    return rows


# ----------------------------------------------------------------------
# Fig 5 — drop-cause breakdown
# ----------------------------------------------------------------------

FIG5_WORKLOADS: List[Tuple[str, str, int, Optional[dict]]] = [
    ("TestPMD-64B", "testpmd", 64, None),
    ("TestPMD-256B", "testpmd", 256, None),
    ("TestPMD-1518B", "testpmd", 1518, None),
    ("TouchFwd-64B", "touchfwd", 64, None),
    ("TouchFwd-256B", "touchfwd", 256, None),
    ("TouchFwd-1518B", "touchfwd", 1518, None),
    ("TouchDrop-64B", "touchdrop", 64, None),
    ("TouchDrop-256B", "touchdrop", 256, None),
    ("TouchDrop-1518B", "touchdrop", 1518, None),
    ("RXpTX-10us", "rxptx", 256, {"proc_time_ns": 10000.0}),
    ("RXpTX-100ns", "rxptx", 256, {"proc_time_ns": 100.0}),
    ("RXpTX-10ns", "rxptx", 256, {"proc_time_ns": 10.0}),
]


def fig5_drop_breakdown(n_packets: int = 2000,
                        config: Optional[SystemConfig] = None,
                        jobs: int = 1, cache_dir=None
                        ) -> Dict[str, Dict[str, float]]:
    """Drop-cause fractions at the knee rate for each workload.

    "We set the network bandwidth to the knee of the bandwidth vs. packet
    drop rate curve, where we start seeing packet drops."

    Two fan-out batches: all knee searches first (deduplicated — the
    TouchDrop knee is taken from its forwarding twin, as TouchDrop has no
    response stream to measure drops against), then all overload runs.
    """
    config = config or gem5_default()
    ex = SweepExecutor(jobs=jobs, cache_dir=cache_dir)

    def knee_spec(app: str, size: int, options: Optional[dict]):
        if app == "touchdrop":
            app, options = "touchfwd", None
        ceiling = 20.0 if app in ("touchfwd", "touchdrop") else 70.0
        key = (app, size, _json.dumps(options or {}, sort_keys=True))
        return key, app, options, ceiling

    # Batch 1: unique knee (MSB) searches across all workloads.
    specs: Dict[tuple, tuple] = {}
    for _label, app, size, options in FIG5_WORKLOADS:
        key, knee_app, knee_opts, ceiling = knee_spec(app, size, options)
        specs.setdefault(key, (knee_app, size, knee_opts, ceiling))
    knee_results = ex.run([
        msb_point(config, app, size, max_gbps=ceiling, app_options=options)
        for app, size, options, ceiling in specs.values()])
    knees = {key: result.msb_gbps
             for key, result in zip(specs, knee_results)}

    # Batch 2: one sustained-overload run per workload, pushed far enough
    # past the knee that overload defeats the FIFO+ring buffering within
    # the measured window — plus the two memcached client drives.
    points = []
    for _label, app, size, options in FIG5_WORKLOADS:
        knee = knees[knee_spec(app, size, options)[0]]
        rate = max(knee * 1.3, 0.5)
        points.append(fixed_load_point(config, app, size, rate,
                                       n_packets=max(n_packets, 5000),
                                       app_options=options))
    memcached_drives = (("MemcachedDPDK", False, 900_000.0),
                        ("MemcachedKernel", True, 320_000.0))
    for _label, kernel, probe_rps in memcached_drives:
        points.append(memcached_point(config, kernel, probe_rps,
                                      n_requests=max(n_packets, 4000)))
    results = ex.run(points)

    out: Dict[str, Dict[str, float]] = {}
    for (label, app, size, options), result in zip(FIG5_WORKLOADS, results):
        out[label] = dict(result.drop_breakdown)
        out[label]["drop_rate"] = result.drop_rate
        out[label]["knee_gbps"] = knees[knee_spec(app, size, options)[0]]
    for (label, _kernel, _rps), result in zip(
            memcached_drives, results[len(FIG5_WORKLOADS):]):
        out[label] = dict(result.drop_breakdown)
        out[label]["drop_rate"] = result.drop_rate
        out[label]["knee_gbps"] = 0.0
    return out


# ----------------------------------------------------------------------
# Figs 6-9 — bandwidth vs drop rate, gem5 vs altra
# ----------------------------------------------------------------------

def _bw_drop_figure(app: str, app_options: Optional[dict],
                    packet_sizes: Sequence[int],
                    rates: Sequence[float],
                    n_packets: int,
                    ex: SweepExecutor) -> Dict[str, List[Tuple[float, float]]]:
    """All (platform x size x rate) points of one figure in a single
    fan-out batch, split back into per-series curves afterwards."""
    spans: List[Tuple[str, int, int]] = []   # (series key, start, count)
    all_points = []
    for config in (altra(), gem5_default()):
        for size in packet_sizes:
            pts = sweep_points(config, app, size, rates_gbps=list(rates),
                               n_packets=n_packets,
                               app_options=app_options)
            spans.append((f"{size}-{config.label}", len(all_points),
                          len(pts)))
            all_points.extend(pts)
    results = ex.run(all_points)
    return {key: [(r.offered_gbps, r.drop_rate)
                  for r in results[start:start + count]]
            for key, start, count in spans}


def fig6_testpmd_bw_drop(packet_sizes: Sequence[int] = (64, 256, 1518),
                         rates: Sequence[float] = (5, 15, 25, 35, 45, 55, 65),
                         n_packets: int = 1200, jobs: int = 1,
                         cache_dir=None):
    """TestPMD bandwidth vs drop rate, gem5 vs altra."""
    return _bw_drop_figure("testpmd", None, packet_sizes, rates, n_packets,
                           SweepExecutor(jobs=jobs, cache_dir=cache_dir))


def fig7_touchfwd_bw_drop(packet_sizes: Sequence[int] = (64, 256, 1518),
                          rates: Sequence[float] = (2, 4, 6, 8, 10, 12, 14),
                          n_packets: int = 1200, jobs: int = 1,
                          cache_dir=None):
    """TouchFwd bandwidth vs drop rate, gem5 vs altra."""
    return _bw_drop_figure("touchfwd", None, packet_sizes, rates, n_packets,
                           SweepExecutor(jobs=jobs, cache_dir=cache_dir))


def fig8_rxptx10ns_bw_drop(packet_sizes: Sequence[int] = (64, 256, 1518),
                           rates: Sequence[float] = (5, 15, 25, 35, 45, 55, 65),
                           n_packets: int = 1200, jobs: int = 1,
                           cache_dir=None):
    """RXpTX (10ns processing) bandwidth vs drop rate."""
    return _bw_drop_figure("rxptx", {"proc_time_ns": 10.0}, packet_sizes,
                           rates, n_packets,
                           SweepExecutor(jobs=jobs, cache_dir=cache_dir))


def fig9_rxptx1us_bw_drop(packet_sizes: Sequence[int] = (64, 256, 1518),
                          rates: Sequence[float] = (2, 6, 10, 15, 25, 40, 55),
                          n_packets: int = 1200, jobs: int = 1,
                          cache_dir=None):
    """RXpTX (1us processing) bandwidth vs drop rate."""
    return _bw_drop_figure("rxptx", {"proc_time_ns": 1000.0}, packet_sizes,
                           rates, n_packets,
                           SweepExecutor(jobs=jobs, cache_dir=cache_dir))


# ----------------------------------------------------------------------
# Figs 10-12 — cache size sensitivity
# ----------------------------------------------------------------------

def _cache_sensitivity(variants: Dict[str, SystemConfig],
                       packet_sizes: Sequence[int],
                       memcached_probe: Dict[str, float],
                       ex: SweepExecutor
                       ) -> Dict[str, Dict[str, List[Tuple[int, float]]]]:
    """MSB per app per cache variant, plus memcached RPS.

    Every (app x variant x size) MSB search and every memcached probe is
    an independent point; the whole figure runs as one fan-out batch.
    """
    batch = []
    for app_key, _app_label, ceiling, options in SENSITIVITY_APPS:
        app = _app_name(app_key)
        for _variant_label, config in variants.items():
            for size in packet_sizes:
                batch.append(msb_point(config, app, size, max_gbps=ceiling,
                                       app_options=options))
    memcached_flavours = (("MemcachedDPDK", False), ("MemcachedKernel", True))
    for _label, kernel in memcached_flavours:
        probe = memcached_probe["kernel" if kernel else "dpdk"]
        for _variant_label, config in variants.items():
            batch.append(memcached_point(config, kernel, probe,
                                         n_requests=2500))
    results = iter(ex.run(batch))

    out: Dict[str, Dict[str, List[Tuple[int, float]]]] = {}
    for _app_key, app_label, _ceiling, _options in SENSITIVITY_APPS:
        per_variant: Dict[str, List[Tuple[int, float]]] = {}
        for variant_label in variants:
            per_variant[variant_label] = [
                (size, next(results).msb_gbps) for size in packet_sizes]
        out[app_label] = per_variant
    # Memcached: requests/second at a probing overload.
    for label, _kernel in memcached_flavours:
        per_variant = {}
        for variant_label in variants:
            result = next(results)
            krps = result.offered_rps * (1 - result.drop_rate) / 1e3
            per_variant[variant_label] = [(0, krps)]
        out[label] = per_variant
    return out


MEMCACHED_PROBE = {"dpdk": 900_000.0, "kernel": 330_000.0}


def fig10_l1_sensitivity(packet_sizes: Sequence[int] = (128, 512, 1518),
                         jobs: int = 1, cache_dir=None):
    """MSB/RPS vs L1 cache size (16KiB - 1MiB)."""
    base = gem5_default()
    variants = {f"{s // KIB}KiB-L1": with_l1_size(base, s)
                for s in (16 * KIB, 128 * KIB, 256 * KIB, 1 * MIB)}
    return _cache_sensitivity(variants, packet_sizes, MEMCACHED_PROBE,
                              SweepExecutor(jobs=jobs, cache_dir=cache_dir))


def fig11_l2_sensitivity(packet_sizes: Sequence[int] = (128, 512, 1518),
                         jobs: int = 1, cache_dir=None):
    """MSB/RPS vs L2 cache size (256KiB - 8MiB)."""
    base = gem5_default()
    variants = {}
    for size in (256 * KIB, 1 * MIB, 4 * MIB, 8 * MIB):
        name = (f"{size // KIB}KiB-L2" if size < MIB
                else f"{size // MIB}MiB-L2")
        variants[name] = with_l2_size(base, size)
    return _cache_sensitivity(variants, packet_sizes, MEMCACHED_PROBE,
                              SweepExecutor(jobs=jobs, cache_dir=cache_dir))


def fig12_llc_sensitivity(packet_sizes: Sequence[int] = (128, 512, 1518),
                          jobs: int = 1, cache_dir=None):
    """MSB/RPS vs LLC size (4MiB - 64MiB)."""
    base = gem5_default()
    variants = {f"{s // MIB}MiB-LLC": with_llc_size(base, s)
                for s in (4 * MIB, 16 * MIB, 32 * MIB, 64 * MIB)}
    return _cache_sensitivity(variants, packet_sizes, MEMCACHED_PROBE,
                              SweepExecutor(jobs=jobs, cache_dir=cache_dir))


# ----------------------------------------------------------------------
# Fig 13 — DCA policy: processing-time sweep with ring 4096
# ----------------------------------------------------------------------

def fig13_dca_proctime(
        packet_sizes: Sequence[int] = (64, 256, 1518),
        proc_times_ns: Sequence[float] = (10, 100, 300, 500, 700,
                                          1000, 3000, 5000, 10000),
        n_packets: int = 2500, jobs: int = 1,
        cache_dir=None) -> Dict[str, List[Tuple[float, float, float]]]:
    """Drop rate and LLC miss rate vs per-burst processing time.

    Ring 4096 entries, LLC fixed at 1MiB, DCA 4/16 ways (256KiB of LLC
    for network data); rate fixed at each size's 10ns MSB.  Two fan-out
    batches: the per-size MSB anchors, then the full size x proc-time
    grid.
    """
    ex = SweepExecutor(jobs=jobs, cache_dir=cache_dir)
    base = with_llc_size(gem5_default(), 1 * MIB)
    config = base.variant(
        nic=replace(base.nic, rx_ring_size=4096, tx_ring_size=4096),
        mempool_mbufs=9000)
    # The measured window must overflow the 4096-entry ring for sustained
    # overload to surface as drops rather than buffered backlog.
    n_packets = max(n_packets, 3 * config.nic.rx_ring_size)
    anchors = ex.run([
        msb_point(config, "rxptx", size,
                  app_options={"proc_time_ns": 10.0})
        for size in packet_sizes])
    rates = {size: result.msb_gbps
             for size, result in zip(packet_sizes, anchors)}
    grid = [(size, float(proc)) for size in packet_sizes
            for proc in proc_times_ns]
    results = ex.run([
        fixed_load_point(config, "rxptx", size, rates[size],
                         n_packets=n_packets,
                         app_options={"proc_time_ns": proc})
        for size, proc in grid])
    out: Dict[str, List[Tuple[float, float, float]]] = {}
    for (size, proc), result in zip(grid, results):
        out.setdefault(f"{size}B", []).append(
            (proc, result.drop_rate, result.llc_miss_rate))
    return out


# ----------------------------------------------------------------------
# Fig 14 — DCA on/off
# ----------------------------------------------------------------------

def fig14_dca_sensitivity(packet_sizes: Sequence[int] = SENSITIVITY_SIZES,
                          jobs: int = 1, cache_dir=None):
    """MSB/RPS with DCA enabled vs disabled."""
    base = gem5_default()
    variants = {"ddio-enabled": with_dca(base, True),
                "ddio-disabled": with_dca(base, False)}
    return _cache_sensitivity(variants, packet_sizes, MEMCACHED_PROBE,
                              SweepExecutor(jobs=jobs, cache_dir=cache_dir))


# ----------------------------------------------------------------------
# Fig 15 — core frequency
# ----------------------------------------------------------------------

def fig15_frequency(packet_sizes: Sequence[int] = (128, 512, 1518),
                    freqs_ghz: Sequence[float] = (1.0, 2.0, 4.0),
                    jobs: int = 1, cache_dir=None):
    """MSB/RPS vs core frequency."""
    base = gem5_default()
    variants = {f"{f:.0f}GHz": with_frequency(base, f * 1e9)
                for f in freqs_ghz}
    return _cache_sensitivity(variants, packet_sizes, MEMCACHED_PROBE,
                              SweepExecutor(jobs=jobs, cache_dir=cache_dir))


# ----------------------------------------------------------------------
# Fig 16 — core microarchitecture
# ----------------------------------------------------------------------

def fig16_core_uarch(packet_sizes: Sequence[int] = (128, 1518),
                     jobs: int = 1, cache_dir=None):
    """MSB/RPS for out-of-order vs in-order cores."""
    base = gem5_default()
    variants = {"OoO Core": with_core(base, ooo=True),
                "In-Order Core": with_core(base, ooo=False)}
    return _cache_sensitivity(variants, packet_sizes, MEMCACHED_PROBE,
                              SweepExecutor(jobs=jobs, cache_dir=cache_dir))


# ----------------------------------------------------------------------
# Fig 17 — memory channels and ROB size
# ----------------------------------------------------------------------

FIG17_APPS = [("testpmd", "TestPMD", 70.0, None),
              ("touchfwd", "TouchFwd", 20.0, None),
              ("iperf", "iperf", 16.0, None)]


def _fig17_sweep(base: SystemConfig, packet_sizes: Sequence[int],
                 axis: Sequence[int], derive, ex: SweepExecutor
                 ) -> Dict[str, Dict[str, List[Tuple[int, float]]]]:
    """One fan-out batch over (app x size x axis value), where ``derive``
    maps an axis value to a config variant."""
    grid = [(app_label, _app_name(app_key), size, value, ceiling, options)
            for app_key, app_label, ceiling, options in FIG17_APPS
            for size in packet_sizes
            for value in axis]
    results = ex.run([
        msb_point(derive(base, value), app, size, max_gbps=ceiling,
                  app_options=options)
        for _label, app, size, value, ceiling, options in grid])
    out: Dict[str, Dict[str, List[Tuple[int, float]]]] = {}
    for (app_label, _app, size, value, _c, _o), result in zip(grid, results):
        out.setdefault(app_label, {}).setdefault(f"{size}B", []).append(
            (value, result.msb_gbps))
    return out


def fig17_channels(packet_sizes: Sequence[int] = (128, 1518),
                   channels: Sequence[int] = (1, 4, 8, 16),
                   jobs: int = 1, cache_dir=None
                   ) -> Dict[str, Dict[str, List[Tuple[int, float]]]]:
    """MSB vs number of DRAM channels; DCA disabled so DRAM bandwidth
    utilization is apparent (paper Fig 17a-c)."""
    return _fig17_sweep(with_dca(gem5_default(), False), packet_sizes,
                        channels, with_dram_channels,
                        SweepExecutor(jobs=jobs, cache_dir=cache_dir))


def fig17_rob(packet_sizes: Sequence[int] = (128, 1518),
              robs: Sequence[int] = (32, 128, 256, 512),
              jobs: int = 1, cache_dir=None
              ) -> Dict[str, Dict[str, List[Tuple[int, float]]]]:
    """MSB vs ROB entries (paper Fig 17d-f)."""
    return _fig17_sweep(gem5_default(), packet_sizes, robs, with_rob,
                        SweepExecutor(jobs=jobs, cache_dir=cache_dir))


# ----------------------------------------------------------------------
# Fig 18 — memcached throughput vs drop rate
# ----------------------------------------------------------------------

def fig18_memcached_rps(
        rps_points: Sequence[float] = (100_000, 200_000, 300_000, 400_000,
                                       500_000, 600_000, 700_000, 800_000),
        n_requests: int = 2500, jobs: int = 1,
        cache_dir=None) -> Dict[str, List[Tuple[float, float]]]:
    """Requests/second vs drop rate for both memcached flavours."""
    ex = SweepExecutor(jobs=jobs, cache_dir=cache_dir)
    config = gem5_default()
    flavours = (("memcachedKernel", True), ("memcachedDpdk", False))
    grid = [(label, kernel, float(rps)) for label, kernel in flavours
            for rps in rps_points]
    results = ex.run([
        memcached_point(config, kernel, rps, n_requests=n_requests)
        for _label, kernel, rps in grid])
    out: Dict[str, List[Tuple[float, float]]] = {}
    for (label, _kernel, rps), result in zip(grid, results):
        out.setdefault(label, []).append((rps / 1e3, result.drop_rate))
    return out


# ----------------------------------------------------------------------
# Fig 19 — memcached latency vs frequency
# ----------------------------------------------------------------------

def fig19_memcached_latency(
        freqs_ghz: Sequence[float] = (1.0, 2.0, 3.0, 4.0),
        kernel_rps: Sequence[float] = (10_000, 80_000, 120_000, 200_000),
        dpdk_rps: Sequence[float] = (200_000, 400_000, 600_000, 700_000),
        n_requests: int = 2000, jobs: int = 1, cache_dir=None
        ) -> Dict[str, Dict[str, List[Tuple[float, float, float]]]]:
    """Normalized mean latency + drop rate vs offered RPS per frequency.

    Latencies are normalized to the 3GHz core at the lowest rate, as the
    paper normalizes to a 3GHz core.  The full flavour x frequency x rate
    grid is one fan-out batch; normalization happens afterwards.
    """
    ex = SweepExecutor(jobs=jobs, cache_dir=cache_dir)
    grid = [(label, kernel, freq, float(rps))
            for label, kernel, rps_list in (
                ("MemcachedKernel", True, kernel_rps),
                ("MemcachedDPDK", False, dpdk_rps))
            for freq in freqs_ghz
            for rps in rps_list]
    results = ex.run([
        memcached_point(with_frequency(gem5_default(), freq * 1e9),
                        kernel, rps, n_requests=n_requests)
        for _label, kernel, freq, rps in grid])
    out: Dict[str, Dict[str, List[Tuple[float, float, float]]]] = {}
    for (label, _kernel, freq, rps), result in zip(grid, results):
        out.setdefault(label, {}).setdefault(f"{freq:.0f}GHz", []).append(
            (rps / 1e3, result.mean_latency_us, result.drop_rate))
    for per_freq in out.values():
        # Normalize to the 3GHz row, lowest rate.
        ref_rows = per_freq.get("3GHz")
        if ref_rows:
            baseline_latency = ref_rows[0][1] or 1.0
            for key, rows in per_freq.items():
                per_freq[key] = [
                    (rps, lat / baseline_latency, drop)
                    for rps, lat, drop in rows]
    return out


# ----------------------------------------------------------------------
# Fig 20 — EtherLoadGen vs dual-mode simulation speed
# ----------------------------------------------------------------------

def fig20_loadgen_speedup(freqs_ghz: Sequence[float] = (1.0, 3.0),
                          n_requests: int = 1200,
                          rate_rps: float = 150_000.0
                          ) -> Dict[str, List[Tuple[str, float]]]:
    """Host-time speedup of EtherLoadGen over dual-mode simulation.

    Deliberately serial: the figure *measures host time*, and
    co-scheduled workers would distort exactly the quantity under test.
    """
    from repro.system.dual_mode import run_dual_mode_comparison
    out: Dict[str, List[Tuple[str, float]]] = {"kernel": [], "dpdk": []}
    for freq in freqs_ghz:
        config = with_frequency(gem5_default(), freq * 1e9)
        for label, kernel in (("kernel", True), ("dpdk", False)):
            result = run_dual_mode_comparison(
                config, kernel=kernel, n_requests=n_requests,
                rate_rps=rate_rps)
            out[label].append((f"{freq:.0f}GHz",
                               result.speedup_fraction * 100.0))
    return out


# ----------------------------------------------------------------------
# Headline: DPDK vs kernel bandwidth
# ----------------------------------------------------------------------

def headline_speedup(packet_size: int = 1518, jobs: int = 1,
                     cache_dir=None) -> Dict[str, float]:
    """The paper's headline: userspace networking improves gem5's network
    bandwidth ~6.3x over the kernel stack (§I / abstract)."""
    ex = SweepExecutor(jobs=jobs, cache_dir=cache_dir)
    config = gem5_default()
    dpdk_result, kernel_result = ex.run([
        msb_point(config, "testpmd", packet_size),
        msb_point(config, "iperf", packet_size, max_gbps=16.0)])
    dpdk = dpdk_result.msb_gbps
    kernel = kernel_result.msb_gbps
    return {
        "dpdk_gbps": dpdk,
        "kernel_gbps": kernel,
        "speedup": dpdk / kernel if kernel else float("inf"),
    }
