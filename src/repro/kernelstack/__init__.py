"""Linux kernel network stack model.

The baseline the paper compares DPDK against: interrupt-driven reception
through a NAPI-style driver, sk_buff allocation, protocol processing in
softirq context, and syscall-crossing copies to userspace.
Every overhead the paper names (§II.A) has an explicit cost here:
"frequent system calls and context switches ... frequent buffer copies
within the kernel software stack and between kernel and userspace buffers
... extended latency associated with interrupt processing".
"""

from repro.kernelstack.stack import KernelStackModel, StackWork
from repro.kernelstack.driver import InterruptNicDriver

__all__ = [
    "KernelStackModel",
    "StackWork",
    "InterruptNicDriver",
]
