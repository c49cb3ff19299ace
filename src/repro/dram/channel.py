"""DRAM channel: one memory controller's banks, queues, and data bus."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config import SimConfig
from repro.dram.bank import Bank, BankAccess
from repro.dram.request import MemoryRequest


class Channel:
    """A memory controller with per-bank request queues.

    The controller owns ``banks_per_channel`` banks, each with its own
    request queue (the paper's 128-entry request buffer is shared; a
    per-bank view is equivalent for scheduling purposes and faster to
    search).  Bursts from different banks are serialised on the
    channel's shared data bus.

    Scheduling policy is externalised: the system asks the active
    scheduler to pick a request whenever a bank is free and its queue is
    non-empty (see :mod:`repro.sim.system`).
    """

    def __init__(self, channel_id: int, config: SimConfig):
        self.channel_id = channel_id
        self.config = config
        self.banks: List[Bank] = [
            Bank(channel_id, b, config.timings)
            for b in range(config.banks_per_channel)
        ]
        self.queues: List[List[MemoryRequest]] = [
            [] for _ in range(config.banks_per_channel)
        ]
        self.bus_free_until: int = 0
        #: thread whose burst last reserved the data bus (observability:
        #: a burst that waits for ``bus_free_until`` waits on this thread)
        self.bus_owner: Optional[int] = None
        self.serviced_requests = 0
        # write path (paper Table 3: 64-entry write data buffer; reads
        # prioritised over writes) — populated only when the system
        # models write traffic
        self.write_buffer: List[MemoryRequest] = []
        #: writes ever buffered (= serviced + still buffered + dropped)
        self.enqueued_writes = 0
        self.serviced_writes = 0
        self.dropped_writes = 0
        # detailed-timing state: recent activates (tRRD/tFAW) and the
        # next scheduled all-bank refresh (tREFI/tRFC)
        self._recent_activates: List[int] = []
        self._next_refresh = config.timings.t_refi
        self.refreshes_performed = 0

    def enqueue(self, request: MemoryRequest) -> None:
        """Add a request to its bank's queue."""
        if request.channel_id != self.channel_id:
            raise ValueError(
                f"request for channel {request.channel_id} enqueued on "
                f"channel {self.channel_id}"
            )
        self.queues[request.bank_id].append(request)

    def pending_requests(self) -> int:
        """Total requests waiting in this channel."""
        return sum(len(q) for q in self.queues)

    def _apply_refresh(self, now: int) -> int:
        """Advance past any pending all-bank refresh windows.

        Refreshes that fully completed during idle time cost nothing;
        an access landing inside a refresh window waits for its end.
        """
        t = self.config.timings
        while self._next_refresh <= now:
            refresh_end = self._next_refresh + t.t_rfc
            self.refreshes_performed += 1
            self._next_refresh += t.t_refi
            if now < refresh_end:
                now = refresh_end
        return now

    def _activate_bound(self) -> int:
        """Earliest cycle a new activate may issue (tRRD / tFAW)."""
        t = self.config.timings
        bound = 0
        if self._recent_activates:
            bound = self._recent_activates[-1] + t.t_rrd
            if len(self._recent_activates) >= 4:
                bound = max(bound, self._recent_activates[-4] + t.t_faw)
        return bound

    def _begin_access(
        self, bank_id: int, row: int, now: int,
        thread_id: Optional[int] = None,
    ) -> BankAccess:
        """Shared read/write access path with optional detailed timing."""
        bank = self.banks[bank_id]
        if not self.config.timings.detailed:
            access = bank.begin_access(row, now, self.bus_free_until,
                                       thread_id=thread_id)
        else:
            now = self._apply_refresh(now)
            access = bank.begin_access(
                row, now, self.bus_free_until,
                activate_not_before=self._activate_bound(),
                thread_id=thread_id,
            )
            if access.activate_time is not None:
                self._recent_activates.append(access.activate_time)
                del self._recent_activates[:-4]
        if access.data_start > access.prep_done:
            # the burst waited for the bus: the wait belongs to the
            # thread whose burst was occupying it
            access.bus_blocker = self.bus_owner
        self.bus_owner = thread_id
        self.bus_free_until = access.data_end
        return access

    def start_service(
        self, request: MemoryRequest, now: int
    ) -> Tuple[BankAccess, int]:
        """Begin servicing ``request``; returns (access, completion_cycle).

        Removes the request from its queue, advances bank and bus state,
        and stamps service timing onto the request.
        """
        self.queues[request.bank_id].remove(request)
        access = self._begin_access(request.bank_id, request.row, now,
                                    request.thread_id)
        request.start_service = now
        completion = access.data_end + self.config.timings.fixed_overhead
        request.completion = completion
        self.serviced_requests += 1
        return access, completion

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def enqueue_write(self, request: MemoryRequest) -> None:
        """Buffer a writeback.

        A full buffer stalls nothing in this model: the oldest write is
        dropped and counted in ``dropped_writes`` (real systems would
        back-pressure the cache, which none of the studied schedulers
        react to).
        """
        if not request.is_write:
            raise ValueError("enqueue_write needs a write request")
        self.enqueued_writes += 1
        if len(self.write_buffer) >= self.config.write_buffer_size:
            self.write_buffer.pop(0)
            self.dropped_writes += 1
        self.write_buffer.append(request)

    def next_write_for(self, bank_id: int) -> Optional[MemoryRequest]:
        """Oldest buffered write addressed to ``bank_id``, if any."""
        for request in self.write_buffer:
            if request.bank_id == bank_id:
                return request
        return None

    def start_write_service(
        self, request: MemoryRequest, now: int
    ) -> BankAccess:
        """Service a buffered write; returns the access timing breakdown.

        The bank is busy until ``access.data_end`` (writes have no
        core-visible round trip, so there is no separate completion).
        """
        self.write_buffer.remove(request)
        access = self._begin_access(request.bank_id, request.row, now,
                                    request.thread_id)
        request.start_service = now
        request.completion = access.data_end
        self.serviced_writes += 1
        return access
