"""The paper's contribution: the CNI board and its baseline.

* :class:`MessageCache` — transmit/receive caching + consistency
  snooping (Section 2.2).
* :class:`DeviceChannel` / :class:`ChannelManager` — Application Device
  Channels (Section 2.1).
* :class:`Pathfinder` — the pattern-based hardware classifier.
* :class:`HandlerRegistry` — Application Interrupt Handlers
  (Section 2.3).
* :class:`CNIInterface` / :class:`StandardInterface` — the two boards
  Section 3 compares.
* :class:`ReliableTransport` / :class:`DeliveryFailed` — NIC-resident
  reliable delivery for lossy fabrics (docs/reliability.md).
"""

from .adc import (
    ChannelError,
    ChannelManager,
    DeviceChannel,
    DualPortedRing,
    ReceiveDescriptor,
    TransmitDescriptor,
)
from .aih import HandlerError, HandlerRegistry
from .detector import FailureDetector
from .cni_nic import AIH_TARGET, CHANNEL_TARGET, CNIInterface
from .message_cache import MessageCache
from .nic_base import PIO_THRESHOLD_BYTES, HostHooks, NetworkInterface
from .pathfinder import Pathfinder, Pattern, PatternElement
from .reliability import DeliveryFailed, ReliableTransport
from .standard_nic import StandardInterface

__all__ = [
    "AIH_TARGET",
    "CHANNEL_TARGET",
    "CNIInterface",
    "ChannelError",
    "ChannelManager",
    "DeliveryFailed",
    "DeviceChannel",
    "DualPortedRing",
    "FailureDetector",
    "HandlerError",
    "HandlerRegistry",
    "HostHooks",
    "MessageCache",
    "NetworkInterface",
    "PIO_THRESHOLD_BYTES",
    "Pathfinder",
    "Pattern",
    "PatternElement",
    "ReceiveDescriptor",
    "ReliableTransport",
    "StandardInterface",
    "TransmitDescriptor",
]
