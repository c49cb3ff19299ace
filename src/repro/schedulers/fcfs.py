"""FCFS — plain oldest-first scheduling.

Not evaluated in the paper's figures but the classical strawman FR-FCFS
improves upon; included for completeness and as a sanity baseline in
tests (FR-FCFS must beat FCFS on row-hit rate).
"""

from __future__ import annotations

from typing import Tuple

from repro.dram.channel import Channel
from repro.dram.request import MemoryRequest
from repro.schedulers.base import Scheduler, empty_queue


class FCFSScheduler(Scheduler):
    """Oldest-first, oblivious to row-buffer state and threads."""

    name = "FCFS"
    PRIORITY_COMPONENTS = ("age",)

    def priority(
        self, request: MemoryRequest, row_hit: bool, now: int
    ) -> Tuple:
        return (-request.arrival,)

    def select(
        self, channel: Channel, bank_id: int, now: int
    ) -> MemoryRequest:
        # Queues append in arrival order, so the oldest demand request
        # is the first one in queue order (same-cycle ties resolve to
        # the first append), exactly like the base first-maximal scan
        # over ``(demand, -arrival)``; an all-prefetch queue grants its
        # head.
        queue = channel.queues[bank_id]
        if not queue:
            raise empty_queue(channel, bank_id)
        for request in queue:
            if not request.is_prefetch:
                return request
        return queue[0]
