"""Measurement windows: warm-up handling and delta-based metrics.

End-to-end experiments must not measure the transient while receive rings
fill and DCTCP converges (the paper reports steady-state throughput and
tail latency). A :class:`MeasurementWindow` snapshots every counter at the
end of warm-up and reports deltas over the measurement interval; latency
histograms are replaced at the window start so percentiles cover only
steady state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..io_arch.base import FlowRx
from ..net.packet import Flow, FlowKind
from ..sim.stats import Histogram
from ..sim.units import US, to_gbps, to_mpps

__all__ = ["FlowMetrics", "Measurement", "MeasurementWindow", "TailStats"]


@dataclass
class TailStats:
    """Latency tail summary down to p99.99, in microseconds.

    Kept OUT of :class:`Measurement`'s declared fields on purpose: the
    measurement's ``asdict`` form is pinned byte-for-byte by the golden
    tests, and the tail summary only exists for demand-driven (open-loop)
    runs — which attach it dynamically (``measurement.slo``) and through
    ``extras``. p99.99 needs ~10^4 samples to mean anything; below that
    the histogram clamps it to the observed max, which
    :meth:`from_histogram` inherits (the quantile is always bounded by
    the max recorded value).
    """

    p50_us: float
    p99_us: float
    p999_us: float
    p9999_us: float

    @classmethod
    def from_histogram(cls, hist: Histogram) -> "TailStats":
        return cls(p50_us=hist.percentile(50) / US,
                   p99_us=hist.percentile(99) / US,
                   p999_us=hist.percentile(99.9) / US,
                   p9999_us=hist.percentile(99.99) / US)

    def to_dict(self) -> Dict[str, float]:
        return {"p50_us": self.p50_us, "p99_us": self.p99_us,
                "p999_us": self.p999_us, "p9999_us": self.p9999_us}


@dataclass
class FlowMetrics:
    name: str
    kind: str
    mpps: float
    gbps: float
    p50_us: float
    p99_us: float
    p999_us: float
    dropped: float


@dataclass
class Measurement:
    """Steady-state metrics over one measurement window."""

    duration: float
    involved_mpps: float
    bypass_mpps: float
    bypass_gbps: float
    total_mpps: float
    llc_miss_rate: float
    p50_us: float
    p99_us: float
    p999_us: float
    dropped: float
    flows: List[FlowMetrics] = field(default_factory=list)
    extras: Dict[str, float] = field(default_factory=dict)
    #: End-of-run conservation report (repro.audit), as
    #: ``AuditReport.to_dict()``; None when auditing was not enabled.
    audit: Optional[Dict] = None

    def flow(self, name: str) -> Optional[FlowMetrics]:
        for fm in self.flows:
            if fm.name == name:
                return fm
        return None


class MeasurementWindow:
    """Snapshot-now / report-deltas-later measurement scope."""

    def __init__(self, testbed, arch):
        self.testbed = testbed
        self.arch = arch
        self.t_start = testbed.sim.now
        self._flow_marks: Dict[int, Dict[str, float]] = {}
        llc = testbed.host.llc.stats
        self._llc_mark = (llc.cpu_lines_read, llc.cpu_lines_missed)
        self._drop_mark = arch.rx_dropped
        for fid, rx in arch.flows.items():
            self._mark_flow(fid, rx)
        # Announce the open window so late flow registration is either
        # rejected (add_flow without late_ok) or routed through
        # note_new_flow instead of silently escaping the metrics.
        testbed.active_window = self

    def _mark_flow(self, fid: int, rx: FlowRx) -> None:
        self._flow_marks[fid] = {
            "processed": rx.processed,
            "bytes": rx.processed_bytes,
            "dropped": rx.dropped,
        }
        # Fresh histogram so percentiles exclude warm-up samples.
        rx.latency = Histogram(rx.latency.name)

    def note_new_flow(self, flow: Flow) -> None:
        """Include a flow registered after the window opened."""
        rx = self.arch.flows.get(flow.flow_id)
        if rx is not None and flow.flow_id not in self._flow_marks:
            self._mark_flow(flow.flow_id, rx)

    def finish(self) -> Measurement:
        if self.testbed.active_window is self:
            self.testbed.active_window = None
        now = self.testbed.sim.now
        duration = now - self.t_start
        if duration <= 0:
            raise ValueError("measurement window has zero duration")
        flows: List[FlowMetrics] = []
        merged = Histogram("window.latency")
        involved_pps = bypass_pps = bypass_bps = total_pps = 0.0
        dropped = 0.0
        for fid, rx in self.arch.flows.items():
            mark = self._flow_marks.get(fid)
            if mark is None:
                continue
            d_proc = rx.processed - mark["processed"]
            d_bytes = rx.processed_bytes - mark["bytes"]
            d_drop = rx.dropped - mark["dropped"]
            pps = d_proc / duration
            bps = d_bytes / duration
            total_pps += pps
            dropped += d_drop
            if rx.flow.kind is FlowKind.CPU_INVOLVED:
                involved_pps += pps
            else:
                bypass_pps += pps
                bypass_bps += bps
            merged.merge(rx.latency)
            flows.append(FlowMetrics(
                name=rx.flow.name,
                kind=rx.flow.kind.value,
                mpps=to_mpps(pps),
                gbps=to_gbps(bps),
                p50_us=rx.latency.percentile(50) / US,
                p99_us=rx.latency.percentile(99) / US,
                p999_us=rx.latency.percentile(99.9) / US,
                dropped=d_drop,
            ))
        llc = self.testbed.host.llc.stats
        d_read = llc.cpu_lines_read - self._llc_mark[0]
        d_miss = llc.cpu_lines_missed - self._llc_mark[1]
        return Measurement(
            duration=duration,
            involved_mpps=to_mpps(involved_pps),
            bypass_mpps=to_mpps(bypass_pps),
            bypass_gbps=to_gbps(bypass_bps),
            total_mpps=to_mpps(total_pps),
            llc_miss_rate=(d_miss / d_read) if d_read else 0.0,
            p50_us=merged.percentile(50) / US,
            p99_us=merged.percentile(99) / US,
            p999_us=merged.percentile(99.9) / US,
            dropped=dropped,
            flows=flows,
        )
