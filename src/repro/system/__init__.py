"""System assembly.

Builds complete simulated hosts from Table-I-style configurations: the
``gem5`` preset (the simulated Test Node) and the ``altra`` preset (the
real Ampere Altra Max reference system, §VI.A), node builders that wire
core + caches + DRAM + PCI + NIC + driver + application + EtherLoadGen,
and the dual-mode (two simulated nodes) topology used for the Fig 20
simulation-speed comparison.
"""

from repro.system.config import SystemConfig
from repro.system.presets import (
    altra,
    gem5_baseline,
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
from repro.system.node import DpdkNode, KernelNode, NodeBuildError
from repro.system.dual_mode import DualModeResult, run_dual_mode_comparison
from repro.system.topology import (
    Platform,
    Topology,
    TopologyError,
    build_platform,
)

__all__ = [
    "SystemConfig",
    "altra",
    "gem5_baseline",
    "gem5_default",
    "with_core",
    "with_dca",
    "with_dram_channels",
    "with_frequency",
    "with_l1_size",
    "with_l2_size",
    "with_llc_size",
    "with_rob",
    "DpdkNode",
    "KernelNode",
    "NodeBuildError",
    "DualModeResult",
    "run_dual_mode_comparison",
    "Platform",
    "Topology",
    "TopologyError",
    "build_platform",
]
