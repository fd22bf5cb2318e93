"""repro — a full-system reproduction of CEIO (SIGCOMM 2025).

CEIO is a cache-efficient network I/O architecture for NIC-CPU data paths:
proactive, credit-based flow control at the NIC keeps in-flight I/O data
within the LLC's DDIO partition, and elastic on-NIC buffering absorbs the
excess instead of dropping it. Since the paper's SmartNIC/LLC testbed is
hardware, this package reproduces the system on a packet-level
discrete-event simulation of the whole NIC-PCIe-IIO-LLC-DRAM-CPU path (see
DESIGN.md for the substitution argument).

See ``examples/quickstart.py`` for a complete runnable walkthrough.
"""

from .core import CeioArchitecture, CeioConfig, CreditController
from .hw import Host, HostConfig, paper_testbed
from .io_arch import (
    ARCHITECTURES,
    HostccArch,
    LegacyDdioArch,
    MpqArch,
    ShringArch,
    build_arch,
)
from .net import Flow, FlowKind, Message

__version__ = "0.1.0"

__all__ = [
    "CeioArchitecture", "CeioConfig", "CreditController",
    "Host", "HostConfig", "paper_testbed",
    "ARCHITECTURES", "build_arch",
    "LegacyDdioArch", "HostccArch", "MpqArch", "ShringArch",
    "Flow", "FlowKind", "Message",
    "__version__",
]
