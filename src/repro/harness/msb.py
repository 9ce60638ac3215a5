"""Maximum sustainable bandwidth (MSB) search.

"We define MSB as the network bandwidth at the point on the bandwidth
versus packet drop graph where the drop rate exceeds 1%." (paper §VII.C)

At the knee, offered load equals the node's service capacity, so the MSB
is measured directly as *delivered throughput under saturation*: a first
run overloads the node and reads its steady-state service rate; a second
run at a mild overload of that estimate refines it (heavy overload can
distort capacity through permanently-full rings and larger cache
footprints).  ``bandwidth_sweep`` produces the full bandwidth-vs-drop
curves of Figs 6-9 from independent fixed-rate runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.harness.runner import run_fixed_load
from repro.harness.warmup_cache import WarmupCache
from repro.loadgen.ether_load_gen import gbps_for_pps
from repro.system.config import SystemConfig

DROP_THRESHOLD = 0.01
REFINE_OVERLOAD = 1.2

#: Apps that forward no frame, so they have no MSB to search for.
NO_MSB_APPS = ("touchdrop",)


def _saturation_warmup_us(config: SystemConfig) -> float:
    """Warm-up for saturation runs: the first packet only reaches the node
    after the link's one-way delay, and the rings/FIFO need time to reach
    their saturated steady state after that."""
    return config.link_delay_us + 150.0


@dataclass
class MsbResult:
    """The located knee plus any curve points gathered on the way."""

    label: str
    app: str
    packet_size: int
    msb_gbps: float
    curve: List[Tuple[float, float]] = field(default_factory=list)
    # (offered_gbps, drop_rate) points

    def drop_at(self, gbps: float) -> Optional[float]:
        """Drop rate of the curve point nearest ``gbps``."""
        if not self.curve:
            return None
        return min(self.curve, key=lambda pt: abs(pt[0] - gbps))[1]

    @classmethod
    def from_dict(cls, data: dict) -> "MsbResult":
        """Rebuild from ``dataclasses.asdict`` output (tolerating the
        JSON round trip, which decodes curve tuples as lists)."""
        data = dict(data)
        data["curve"] = [tuple(pt) for pt in data.get("curve", [])]
        return cls(**data)


def _clamped_ceiling(config: SystemConfig, packet_size: int,
                     gbps: float) -> float:
    """Respect a software load generator's pps ceiling (altra client)."""
    if config.software_loadgen_max_pps is None:
        return gbps
    ceiling = gbps_for_pps(config.software_loadgen_max_pps, packet_size)
    return min(gbps, ceiling)


def find_msb(config: SystemConfig, app_name: str, packet_size: int,
             max_gbps: float = 70.0, n_packets: int = 2500,
             app_options: Optional[dict] = None,
             seed: int = 0,
             warmup_cache: Optional[WarmupCache] = None) -> MsbResult:
    """Two-run saturation measurement of the MSB; both probes warm up
    through ``warmup_cache`` when one is given."""
    if app_name in NO_MSB_APPS:
        raise ValueError(
            f"MSB is undefined for {app_name}: its drop rate is always "
            f"100% (the paper excludes TouchDrop for the same reason, §VII)")
    max_gbps = _clamped_ceiling(config, packet_size, max_gbps)
    curve: List[Tuple[float, float]] = []

    warmup_us = _saturation_warmup_us(config)
    first = run_fixed_load(config, app_name, packet_size, max_gbps,
                           n_packets=n_packets, app_options=app_options,
                           warmup_us=warmup_us, seed=seed,
                           warmup_cache=warmup_cache)
    curve.append((first.offered_gbps, first.drop_rate))
    if first.drop_rate <= DROP_THRESHOLD:
        # The node sustains the ceiling itself (or the software client is
        # the bottleneck, the altra small-packet case).
        return MsbResult(label=config.label, app=app_name,
                         packet_size=packet_size,
                         msb_gbps=first.offered_gbps, curve=curve)

    estimate = first.service_gbps
    refine_rate = min(max_gbps, max(estimate * REFINE_OVERLOAD,
                                    max_gbps / 100.0))
    second = run_fixed_load(config, app_name, packet_size, refine_rate,
                            n_packets=n_packets, app_options=app_options,
                            warmup_us=warmup_us, seed=seed + 1,
                            warmup_cache=warmup_cache)
    curve.append((second.offered_gbps, second.drop_rate))
    if second.drop_rate <= DROP_THRESHOLD:
        msb = second.offered_gbps
    else:
        msb = second.service_gbps
    return MsbResult(label=config.label, app=app_name,
                     packet_size=packet_size, msb_gbps=msb, curve=curve)


def sweep_rates(config: SystemConfig, packet_size: int,
                rates_gbps: List[float]) -> List[float]:
    """The effective per-point rates of a sweep: each offered rate is
    clamped by the software-client ceiling, and consecutive duplicates
    collapse — the curve simply ends at the ceiling (as altra's does in
    Fig 6)."""
    rates: List[float] = []
    for gbps in rates_gbps:
        clamped = _clamped_ceiling(config, packet_size, gbps)
        if rates and abs(clamped - rates[-1]) < 1e-9:
            continue
        rates.append(clamped)
    return rates


def sweep_points(config: SystemConfig, app_name: str, packet_size: int,
                 rates_gbps: List[float], n_packets: int = 1500,
                 app_options: Optional[dict] = None, seed: int = 0):
    """The independent :class:`~repro.harness.parallel.SweepPoint` list
    for one bandwidth-vs-drop curve."""
    from repro.harness.parallel import fixed_load_point
    return [fixed_load_point(config, app_name, packet_size, rate,
                             n_packets=n_packets, app_options=app_options,
                             seed=seed)
            for rate in sweep_rates(config, packet_size, rates_gbps)]


def bandwidth_sweep(config: SystemConfig, app_name: str, packet_size: int,
                    rates_gbps: List[float], n_packets: int = 1500,
                    app_options: Optional[dict] = None,
                    seed: int = 0, executor=None) -> List[Tuple[float, float]]:
    """The bandwidth-vs-drop-rate curve (Figs 6-9): one independent
    fixed-rate run per point.  Returns (offered_gbps, drop_rate) pairs.

    Points route through ``executor`` (a
    :class:`~repro.harness.parallel.SweepExecutor`; by default a serial
    one, the reference path), so a parallel or caching executor fans
    the sweep out across processes and replays cached points for free.
    """
    from repro.harness.parallel import SweepExecutor
    points = sweep_points(config, app_name, packet_size, rates_gbps,
                          n_packets=n_packets, app_options=app_options,
                          seed=seed)
    ex = executor or SweepExecutor()
    results = ex.run(points)
    return [(r.offered_gbps, r.drop_rate) for r in results]
