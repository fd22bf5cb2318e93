"""dperf-style echo load generator (§6.1 cites Baidu's dperf).

Thin, named wrapper over the closed-loop saturating source so scenario
scripts read like the paper's methodology section.
"""

from __future__ import annotations

from typing import List, Optional

from ..net import Flow, FlowKind, SaturatingSource
from ..topo import HostEndpoint

__all__ = ["DperfClient"]


class DperfClient:
    """Drives one or more echo flows at saturation against a testbed."""

    def __init__(self, testbed: HostEndpoint, message_payload: int = 512,
                 outstanding: int = 64):
        self.testbed = testbed
        self.message_payload = message_payload
        self.outstanding = outstanding
        self.sources: List[SaturatingSource] = []

    def add_flow(self, name: str = "",
                 kind: FlowKind = FlowKind.CPU_INVOLVED,
                 packets_per_message: int = 1,
                 outstanding: Optional[int] = None) -> Flow:
        flow = Flow(kind, name=name, message_payload=self.message_payload,
                    packets_per_message=packets_per_message)
        sender = self.testbed.add_flow(flow)
        source = SaturatingSource(
            self.testbed.sim, sender,
            outstanding=self.outstanding if outstanding is None else outstanding)
        self.sources.append(source)
        return flow

    def start(self) -> None:
        for source in self.sources:
            source.start()

    def stop(self) -> None:
        for source in self.sources:
            source.stop()

    @property
    def messages_completed(self) -> float:
        return sum(s.messages_completed for s in self.sources)
