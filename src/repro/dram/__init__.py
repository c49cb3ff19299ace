"""DRAM subsystem substrate: requests, banks and channels.

Models the paper's Table 3 memory system: 4 on-chip DRAM controllers
(channels), 4 banks per channel with 2KB row-buffers, DDR2-800-derived
service times, and a per-channel data bus that serialises bursts.
"""

from repro.dram.bank import Bank
from repro.dram.channel import Channel
from repro.dram.request import MemoryRequest

__all__ = [
    "Bank",
    "Channel",
    "MemoryRequest",
]
