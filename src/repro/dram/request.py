"""Memory request representation."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

_request_ids = itertools.count()


@dataclass(slots=True, eq=False)
class MemoryRequest:
    """A single request from a thread to a DRAM bank.

    Equality is identity (``eq=False``): a request is one object from
    its arrival to its completion, so ``queue.remove(request)`` finds
    it without comparing fields.

    Most requests are demand reads.  A stream prefetcher
    (``SimConfig.prefetch_degree``) adds prefetch reads, tagged
    ``is_prefetch``.  With ``SimConfig.model_writes``, dirty-line
    writebacks are modelled too, tagged ``is_write``.  As in the
    paper's controllers, writebacks wait in a separate write buffer
    and drain only when a bank has no reads queued, so none of the
    algorithms under study schedules them.

    Attributes:
        thread_id: issuing hardware context.
        channel_id: DRAM controller servicing this request.
        bank_id: bank within the channel.
        row: DRAM row (page) addressed.
        arrival: cycle at which the request entered the controller queue.
        episode_id: thread-local episode counter (for thread bookkeeping).
        marked: PAR-BS batch-mark flag.
        start_service: cycle at which the bank began servicing, if started.
        completion: cycle at which data was returned to the core, if done.
        interference: cycles of queueing delay attributed to other
            threads.  Maintained by the scheduler-independent span
            mechanism (:mod:`repro.obs.spans`) whenever a run carries a
            span collector — every scheduler, not just STFM, whose
            slowdown estimation consumes the same accounting.
    """

    thread_id: int
    channel_id: int
    bank_id: int
    row: int
    arrival: int
    episode_id: int = 0
    request_id: int = field(default_factory=_request_ids.__next__)
    is_write: bool = False
    is_prefetch: bool = False
    marked: bool = False
    start_service: Optional[int] = None
    completion: Optional[int] = None
    interference: int = 0

    @property
    def latency(self) -> Optional[int]:
        """Round-trip latency in cycles, or None if not yet complete."""
        if self.completion is None:
            return None
        return self.completion - self.arrival

    def __repr__(self) -> str:  # compact — requests appear in debug dumps
        return (
            f"MemoryRequest(t{self.thread_id} ch{self.channel_id} "
            f"b{self.bank_id} r{self.row} @{self.arrival})"
        )
