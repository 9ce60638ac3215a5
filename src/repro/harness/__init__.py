"""Experiment harness.

Run primitives (fixed-load runs, bandwidth ramps, memcached request
sweeps), the maximum-sustainable-bandwidth search, per-figure experiment
functions covering every table and figure in the paper's evaluation, the
parallel sweep executor with its deterministic-replay result cache, and
plain-text report rendering.
"""

from repro.harness.runner import (
    APP_REGISTRY,
    FixedLoadResult,
    MemcachedRunResult,
    build_node,
    run_fixed_load,
    run_memcached,
)
from repro.harness.fabric import (
    FabricRunResult,
    run_fabric,
    run_fabric_sharded,
)
from repro.harness.msb import MsbResult, bandwidth_sweep, find_msb
from repro.harness.parallel import (
    ResultCache,
    SweepExecutor,
    SweepPoint,
    SweepPointError,
    SweepTimeoutError,
    fixed_load_point,
    memcached_point,
    msb_point,
)
from repro.harness.report import (
    format_executor_summary,
    format_series,
    format_table,
)

__all__ = [
    "APP_REGISTRY",
    "FixedLoadResult",
    "MemcachedRunResult",
    "build_node",
    "run_fixed_load",
    "run_memcached",
    "FabricRunResult",
    "run_fabric",
    "run_fabric_sharded",
    "MsbResult",
    "bandwidth_sweep",
    "find_msb",
    "ResultCache",
    "SweepExecutor",
    "SweepPoint",
    "SweepPointError",
    "SweepTimeoutError",
    "fixed_load_point",
    "memcached_point",
    "msb_point",
    "format_executor_summary",
    "format_series",
    "format_table",
]
