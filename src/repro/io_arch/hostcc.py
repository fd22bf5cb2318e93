"""HostCC (Agarwal et al., SIGCOMM 2023): reactive host congestion control.

A host-side controller samples *host congestion signals* — IIO buffer
occupancy and PCIe bandwidth utilisation — at a millisecond-free but still
finite control interval. When the signals exceed thresholds it (a)
throttles the NIC's DMA issue rate by pacing the firmware pipeline, and
(b) asserts ECN toward senders so DCTCP reduces the network ingress rate.

The fundamental limitation reproduced here (§2.3): the congestion signal
is a *consequence* of LLC thrash (evictions saturate memory bandwidth,
which backs up the IIO), so by the time HostCC reacts, misses have already
happened — the "slow response" that costs up to 1.9× under dynamic
conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw import Host
from ..sim import TokenBucket
from ..sim.units import US
from ..net.packet import Packet
from .base import IOArchitecture

__all__ = ["HostccConfig", "HostccArch"]


@dataclass
class HostccConfig:
    #: Controller sampling interval, ns (kernel-module polling cadence).
    control_interval: float = 10 * US
    #: IIO fill fraction above which the host is "congested".
    iio_high: float = 0.30
    #: IIO fill fraction below which congestion is cleared.
    iio_low: float = 0.10
    #: PCIe utilisation above which the host is "congested".
    pcie_high: float = 0.95
    #: Effective DRAM bandwidth utilisation above/below which congestion
    #: is asserted/cleared (write-backs + miss traffic; "memory bandwidth
    #: usage" in the HostCC design).
    dram_high: float = 0.25
    dram_low: float = 0.08
    #: Multiplicative decrease applied to the DMA pacing rate.
    decrease: float = 0.75
    #: Additive increase of the DMA pacing rate per interval, bytes/ns.
    increase: float = 1.5


class HostccArch(IOArchitecture):
    name = "hostcc"

    def __init__(self, host: Host, config: HostccConfig = None):
        super().__init__(host)
        self.config = config or HostccConfig()
        rate = host.config.link_rate
        #: Pacer on DMA issue; HostCC adjusts its rate reactively.
        self._pacer = TokenBucket(self.sim, rate=rate,
                                  burst=64 * 1024, name="hostcc.pacer")
        self._max_rate = rate
        self._congested = False
        #: ECN-marking stream off the experiment's seeded registry, so
        #: ``--seed`` perturbs HostCC's marking like every other
        #: stochastic component (it used to mint a fixed-seed Random).
        self._rng = host.rng.stream("hostcc.ecn")
        self.congestion_events = 0.0
        self._ctl_proc = self.sim.process(self._control_loop(),
                                          name="hostcc-ctl")

    @property
    def dma_rate(self) -> float:
        return self._pacer.rate

    @property
    def congested(self) -> bool:
        return self._congested

    def on_packet(self, packet: Packet):
        self.rx_offered += 1
        rx = self.flows.get(packet.flow.flow_id)
        if rx is None or rx.descriptors_free <= 0:
            self._drop(packet, rx)
            return
        if self._dedup(packet, rx):
            return
        # Reactive throttle: pace DMA issue at the controller's rate.
        yield self._pacer.take(packet.size)
        # While congested, assert ECN proportionally to IIO fill so DCTCP
        # converges rather than collapsing.
        mark = (self._congested
                and self._rng.random() < min(1.0,
                                             2 * self.host.iio.fill_fraction))
        yield from self._dma_to_host(packet, rx, ddio=True, extra_mark=mark)

    def _control_loop(self):
        cfg = self.config
        while True:
            yield cfg.control_interval
            now = self.sim.now
            iio_fill = self.host.iio.fill_fraction
            pcie_util = self.host.pcie.utilization(now)
            dram_util = self.host.dram.utilization(now)
            if (iio_fill > cfg.iio_high or pcie_util > cfg.pcie_high
                    or dram_util > cfg.dram_high):
                if not self._congested:
                    self.congestion_events += 1
                self._congested = True
                self._pacer.set_rate(max(1.0,
                                         self._pacer.rate * cfg.decrease))
            elif iio_fill < cfg.iio_low and dram_util < cfg.dram_low:
                self._congested = False
                self._pacer.set_rate(min(self._max_rate,
                                         self._pacer.rate + cfg.increase))
