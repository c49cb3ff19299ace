"""FR-FCFS — First-Ready, First-Come-First-Served (Rixner et al. [19]).

The thread-unaware baseline commonly employed in real controllers:
row-buffer-hit requests first, then oldest first.  Maximises DRAM
throughput but is prone to starving threads with poor locality.
"""

from __future__ import annotations

from typing import Tuple

from repro.dram.channel import Channel
from repro.dram.request import MemoryRequest
from repro.schedulers.base import Scheduler, empty_queue


class FRFCFSScheduler(Scheduler):
    """Row-hit-first, then oldest-first. No parameters."""

    name = "FR-FCFS"
    PRIORITY_COMPONENTS = ("row_hit", "age")

    def priority(
        self, request: MemoryRequest, row_hit: bool, now: int
    ) -> Tuple:
        return (row_hit, -request.arrival)

    def select(
        self, channel: Channel, bank_id: int, now: int
    ) -> MemoryRequest:
        # Queues append in arrival order, so the first request of each
        # class in queue order is that class's oldest: the base
        # first-maximal scan over ``(demand, row_hit, -arrival)`` is the
        # first demand row hit, else the first demand request, else the
        # first prefetch row hit, else the head.
        queue = channel.queues[bank_id]
        if not queue:
            raise empty_queue(channel, bank_id)
        open_row = channel.banks[bank_id].open_row
        demand = prefetch_hit = None
        for request in queue:
            if request.is_prefetch:
                if prefetch_hit is None and request.row == open_row:
                    prefetch_hit = request
            elif request.row == open_row:
                return request
            elif demand is None:
                if open_row is None:  # a closed bank has no row hits
                    return request
                demand = request
        if demand is not None:
            return demand
        return queue[0] if prefetch_hit is None else prefetch_hit
