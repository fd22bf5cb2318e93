"""Receiver-host assembly: one socket's worth of I/O-path hardware."""

from __future__ import annotations

from typing import Optional

from ..sim import RngRegistry, Simulator
from .cache import build_llc
from .config import HostConfig
from .cpu import CpuComplex
from .dram import Dram
from .iio import IioBuffer
from .memctrl import MemoryController
from .nic import Nic
from .pcie import PcieLink

__all__ = ["Host"]


class Host:
    """Wires LLC, DRAM, IIO, PCIe, memory controller, CPU cores and the NIC.

    The constructed topology is Figure 2's: the NIC DMA engine pushes posted
    writes across PCIe into the IIO buffer, the memory controller drains the
    IIO into the LLC (DDIO) or DRAM, and CPU cores consume buffers through
    the cache hierarchy.
    """

    def __init__(self, sim: Simulator, config: HostConfig = None,
                 name: str = "host", rng: Optional[RngRegistry] = None):
        self.sim = sim
        self.config = config or HostConfig()
        self.name = name
        #: Named RNG streams for host-side stochastic components (ECN
        #: marking in the I/O architectures). The testbed passes its
        #: seeded registry here so ``--seed`` perturbs every stream; the
        #: standalone default keeps direct ``Host(sim)`` construction
        #: deterministic.
        self.rng = rng if rng is not None else RngRegistry(0)
        self.llc = build_llc(self.config.cache)
        self.dram = Dram(sim, self.config.dram)
        self.pcie = PcieLink(sim, self.config.pcie)
        self.iio = IioBuffer(sim, self.config.nic.iio_capacity)
        self.memctrl = MemoryController(sim, self.iio, self.llc, self.dram,
                                        self.pcie)
        self.cpu = CpuComplex(sim, self.config.cpu, self.config.cache,
                              self.llc, self.dram)
        self.nic = Nic(sim, self.config.nic, self.pcie, self.iio)

    @property
    def total_credits(self) -> int:
        """Eq. (1): DDIO-resident I/O buffer budget."""
        return self.config.total_credits

    def llc_miss_rate(self) -> float:
        return self.llc.stats.miss_rate
