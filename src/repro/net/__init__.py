"""Network substrate: packets, flows, links, ECN switch, DCTCP."""

from .dctcp import DctcpConfig, DctcpSender
from .link import Link, SwitchPort
from .packet import ETHERNET_OVERHEAD, MTU, Flow, FlowKind, Message, Packet
from .source import OpenLoopSource, SaturatingSource

__all__ = [
    "DctcpConfig", "DctcpSender",
    "Link", "SwitchPort",
    "ETHERNET_OVERHEAD", "MTU", "Flow", "FlowKind", "Message", "Packet",
    "OpenLoopSource", "SaturatingSource",
]
