"""Network substrate: packets, flows, ECN switch port, DCTCP."""

from .dctcp import DctcpConfig, DctcpSender
from .link import SwitchPort
from .packet import ETHERNET_OVERHEAD, MTU, Flow, FlowKind, Message, Packet
from .source import OpenLoopSource, SaturatingSource

__all__ = [
    "DctcpConfig", "DctcpSender",
    "SwitchPort",
    "ETHERNET_OVERHEAD", "MTU", "Flow", "FlowKind", "Message", "Packet",
    "OpenLoopSource", "SaturatingSource",
]
