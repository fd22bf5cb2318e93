"""Windowed per-tenant SLO tracking for open-loop (demand-driven) runs.

Closed-loop experiments summarise latency once, over the whole measure
window. Under open-loop overload that is not enough: an unguarded
architecture's tail *diverges over time* (the standing queue grows every
window), which a single end-of-run percentile flattens into one number.
The tracker samples each tenant's goodput and latency tail every
``window`` ns by diffing histogram snapshots, so experiments can assert
trajectory properties ("p99.9 held flat", "p99.9 grew monotonically")
and check declared targets.

Shard contract: the sampling process is created at **build()** time (the
fabric's ``open_windows`` must never schedule events), runs from t=0 in
the domain of the host it observes, touches only counters/histograms and
draws no RNG — so sharded runs sample identically to the single-kernel
run. ``MeasurementWindow`` *replaces* each flow's latency histogram when
the measure window opens; the tracker detects the new object by identity
and restarts its deltas from zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..io_arch.base import FlowRx
from ..sim.stats import HistogramSnapshot, percentile_from_counts
from ..sim.units import US, to_mpps

__all__ = ["SloTarget", "SloTracker"]


@dataclass
class SloTarget:
    """Declared per-tenant objectives; None = not asserted."""

    p99_us: Optional[float] = None
    p999_us: Optional[float] = None
    p9999_us: Optional[float] = None
    min_goodput_mpps: Optional[float] = None

    def to_dict(self) -> Dict[str, float]:
        return {k: v for k, v in (("p99_us", self.p99_us),
                                  ("p999_us", self.p999_us),
                                  ("p9999_us", self.p9999_us),
                                  ("min_goodput_mpps",
                                   self.min_goodput_mpps))
                if v is not None}


class SloTracker:
    """Samples per-tenant goodput and latency tails on a fixed cadence."""

    def __init__(self, sim, window: float, name: str = "slo"):
        if window <= 0:
            raise ValueError("SLO window must be positive")
        self.sim = sim
        self.window = window
        self.name = name
        self._tenants: Dict[str, List[FlowRx]] = {}
        self._targets: Dict[str, SloTarget] = {}
        # Per-rx sampling state: (histogram object, snapshot, processed,
        # shed). The histogram reference detects MeasurementWindow's
        # object replacement at the measure-window boundary.
        self._prev: Dict[int, Tuple[Any, Optional[HistogramSnapshot],
                                    float, float]] = {}
        #: One record per (window, tenant): timestamped goodput + tails.
        self.windows: List[Dict[str, Any]] = []
        self._proc = sim.process(self._loop(), name=f"{name}-sampler")

    # ------------------------------------------------------------------
    def watch(self, tenant: str, rx: FlowRx,
              target: Optional[SloTarget] = None) -> None:
        """Attach one flow's receive state to a tenant's aggregate."""
        self._tenants.setdefault(tenant, []).append(rx)
        if target is not None:
            self._targets[tenant] = target
        self._prev[id(rx)] = (rx.latency, rx.latency.snapshot(),
                              rx.processed, rx.shed)

    def set_target(self, tenant: str, target: SloTarget) -> None:
        self._targets[tenant] = target

    # ------------------------------------------------------------------
    def _loop(self):
        while True:
            yield self.window
            self._sample()

    def _sample(self) -> None:
        now = self.sim.now
        for tenant in sorted(self._tenants):
            rxs = self._tenants[tenant]
            if not rxs:
                continue
            bounds = rxs[0].latency.bounds
            counts = [0] * len(bounds)
            d_processed = 0.0
            d_shed = 0.0
            for rx in rxs:
                hist = rx.latency
                prev = self._prev.get(id(rx), (None, None, 0.0, 0.0))
                if prev[0] is hist:
                    snap, p_proc, p_shed = prev[1], prev[2], prev[3]
                else:
                    # Fresh histogram (measure window opened) or first
                    # sight: the whole object is this window's delta.
                    snap, p_proc, p_shed = None, prev[2], prev[3]
                for i, n in enumerate(hist.delta_counts(snap)):
                    counts[i] += n
                d_processed += rx.processed - p_proc
                d_shed += rx.shed - p_shed
                self._prev[id(rx)] = (hist, hist.snapshot(),
                                      rx.processed, rx.shed)
            self.windows.append({
                "t_us": now / US,
                "tenant": tenant,
                "goodput_mpps": to_mpps(d_processed / self.window),
                "shed": d_shed,
                "samples": sum(counts),
                "p99_us": percentile_from_counts(bounds, counts, 99) / US,
                "p999_us": percentile_from_counts(bounds, counts, 99.9) / US,
                "_counts": counts,
            })

    # ------------------------------------------------------------------
    def summary(self, since: float = 0.0) -> Dict[str, Any]:
        """Aggregate per-tenant achievement vs targets over windows whose
        sample instant falls after ``since`` (pass the warm-up end so the
        transient does not count against the SLO). JSON-safe."""
        out: Dict[str, Any] = {}
        for tenant in sorted(self._tenants):
            recs = [w for w in self.windows
                    if w["tenant"] == tenant and w["t_us"] * US > since]
            if not recs:
                out[tenant] = {"windows": 0, "ok": True, "violations": []}
                continue
            bounds = self._tenants[tenant][0].latency.bounds
            total = [0] * len(bounds)
            for w in recs:
                for i, n in enumerate(w["_counts"]):
                    total[i] += n
            goodputs = [w["goodput_mpps"] for w in recs]
            tail = {
                "p50_us": percentile_from_counts(bounds, total, 50) / US,
                "p99_us": percentile_from_counts(bounds, total, 99) / US,
                "p999_us": percentile_from_counts(bounds, total, 99.9) / US,
                "p9999_us":
                    percentile_from_counts(bounds, total, 99.99) / US,
            }
            target = self._targets.get(tenant, SloTarget())
            violations: List[str] = []
            for key in ("p99_us", "p999_us", "p9999_us"):
                limit = getattr(target, key)
                if limit is not None and tail[key] > limit:
                    violations.append(
                        f"{key} {tail[key]:.2f} > target {limit:.2f}")
            mean_goodput = sum(goodputs) / len(goodputs)
            if (target.min_goodput_mpps is not None
                    and mean_goodput < target.min_goodput_mpps):
                violations.append(
                    f"goodput {mean_goodput:.4f} Mpps < target "
                    f"{target.min_goodput_mpps:.4f}")
            out[tenant] = {
                "windows": len(recs),
                "goodput_mpps": mean_goodput,
                "min_goodput_mpps": min(goodputs),
                "shed": sum(w["shed"] for w in recs),
                "samples": sum(w["samples"] for w in recs),
                **tail,
                "worst_p999_us": max(w["p999_us"] for w in recs),
                "targets": target.to_dict(),
                "ok": not violations,
                "violations": violations,
            }
        return out

    def tenant_windows(self, tenant: str,
                       since: float = 0.0) -> List[Dict[str, Any]]:
        """Chronological per-window records for one tenant (JSON-safe:
        the internal bucket-count scratch is stripped)."""
        return [{k: v for k, v in w.items() if k != "_counts"}
                for w in self.windows
                if w["tenant"] == tenant and w["t_us"] * US > since]
