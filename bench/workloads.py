"""The five benchmark workloads, driven through repro's public entry points.

Every workload is open-loop on the simulated side (a fixed-rate synthetic
load generator, a fixed-spacing memcached client, or Poisson flow
arrivals).  The same call is timed untraced and profiled traced.  The
sweeps that share a warm-up run in-process (``jobs=1``) with a temporary
warm-up cache: the parent simulates the warm-up once and every point
restores it, the same simulated work and results as ``jobs=2``, without
timing two workers racing a shared host's neighbours for its CPUs.

repro is imported inside the functions: the orchestrating parent reads
this table without importing the simulator, and a child's ``setup_s``
covers the import.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

MIB = 1 << 20

DPDK_RATES_GBPS = (5.0, 20.0, 40.0)
MSB_LLC_MIB = (1, 16)
MEMCACHED_RPS = (100_000.0, 200_000.0, 400_000.0)

#: The fabric pair's flow set.  Its host time depends strongly on which
#: heavy-tailed WebSearch draw it gets (2.4 s to 4.7 s across generator
#: seeds 1 to 5 at 60 flows), so the pair pins the generator seed rather
#: than following ``--seed``: the spread across benchmark seeds then
#: measures the simulator, not the luck of the draw.
FABRIC = dict(preset="fat-tree-k4", stack="dpdk", pattern="uniform",
              load=0.5, n_flows=60, size_cdf="websearch", seed=1)

#: What one workload call returns: the per-point results and the sweep
#: executor's counters (None for the fabric runs, which use no executor).
Outcome = Tuple[List[Any], Optional[Dict[str, float]]]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Simulation points per call; a failed call fails all of them.
    points: int
    #: Whether ``--seed`` changes the inputs (see FABRIC).
    seeded: bool
    #: Builds the first config once: the end of ``setup_s``.
    build: Callable[[], Any]
    #: ``run(seed)`` performs the workload call.
    run: Callable[[int], Outcome]


def _sweep(points, shared_warmup: bool) -> Outcome:
    from repro.harness.parallel import SweepExecutor
    if not shared_warmup:
        executor = SweepExecutor(jobs=1)
        return executor.run(points), executor.stats.as_dict()
    with tempfile.TemporaryDirectory(prefix="bench-warm-") as warm_dir:
        executor = SweepExecutor(jobs=1, warmup_cache_dir=warm_dir)
        return executor.run(points), executor.stats.as_dict()


def _dpdk_build():
    from repro.harness.runner import build_node
    from repro.system.presets import gem5_default
    return build_node(gem5_default(), "testpmd")


def _dpdk_run(seed: int) -> Outcome:
    from repro.harness.parallel import fixed_load_point
    from repro.system.presets import gem5_default
    config = gem5_default()
    points = [fixed_load_point(config, "testpmd", 64, rate, n_packets=3000,
                               seed=seed)
              for rate in DPDK_RATES_GBPS]
    return _sweep(points, shared_warmup=True)


def _msb_configs():
    from repro.system.presets import gem5_default, with_dca, with_llc_size
    base = gem5_default()
    return ([with_llc_size(base, size * MIB) for size in MSB_LLC_MIB]
            + [with_dca(base, False)])


def _msb_build():
    from repro.harness.runner import build_node
    return build_node(_msb_configs()[0], "touchfwd")


def _msb_run(seed: int) -> Outcome:
    from repro.harness.parallel import msb_point
    points = [msb_point(config, "touchfwd", 1518, max_gbps=20.0,
                        n_packets=400, seed=seed)
              for config in _msb_configs()]
    return _sweep(points, shared_warmup=False)


def _memcached_build():
    from repro.harness.runner import build_node
    from repro.system.presets import gem5_default
    return build_node(gem5_default(), "memcached_kernel")


def _memcached_run(seed: int) -> Outcome:
    from repro.harness.parallel import memcached_point
    from repro.system.presets import gem5_default
    config = gem5_default()
    points = [memcached_point(config, kernel, rps, n_requests=1500, seed=seed)
              for kernel in (True, False) for rps in MEMCACHED_RPS]
    return _sweep(points, shared_warmup=True)


def _fabric_build():
    from repro.harness.fabric import build_fabric_rig
    from repro.system.presets import gem5_default
    return build_fabric_rig(gem5_default(), FABRIC["preset"], FABRIC["stack"],
                            seed=FABRIC["seed"])


def _fabric_run(seed: int) -> Outcome:
    from repro.harness.fabric import run_fabric
    from repro.system.presets import gem5_default
    return [run_fabric(gem5_default(), **FABRIC)], None


def _shards2_run(seed: int) -> Outcome:
    from repro.harness.fabric import run_fabric_sharded
    from repro.system.presets import gem5_default
    return [run_fabric_sharded(gem5_default(), shards=2, **FABRIC)], None


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # Smallest packet: per-packet cost dominates (nic, sim, mem); the
    # executor's shared warm-up and checkpoint restore.
    Workload("dpdk-sweep-64b", len(DPDK_RATES_GBPS), True,
             _dpdk_build, _dpdk_run),
    # MTU frames through touched payloads, serial and without a warm-up
    # cache: mem-bound, and every point pays a cold warm-up.
    Workload("msb-1518b", len(MSB_LLC_MIB) + 1, True,
             _msb_build, _msb_run),
    # The only user of kernelstack, kvstore and the request/response
    # client; small key/value touches instead of whole frames.
    Workload("memcached-rps", 2 * len(MEMCACHED_RPS), True,
             _memcached_build, _memcached_run),
    # Switch fabric: sim and net only, with switch queue-full drops.
    Workload("fabric-websearch", 1, False, _fabric_build, _fabric_run),
    # The same run over two shard processes: the only user of dist and
    # sim.channel; fabric-websearch is its exact control.
    Workload("fabric-shards2", 1, False, _fabric_build, _shards2_run),
)}
