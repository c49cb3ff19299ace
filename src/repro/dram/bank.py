"""DRAM bank: a row-buffer state machine."""

from __future__ import annotations

from typing import Optional

from repro.config import DramTimings


class Bank:
    """One DRAM bank with an open-row (row-buffer) policy.

    The bank tracks which row is currently latched in its row-buffer and
    until when it is busy servicing a burst.  Access classification
    follows the paper's three cases:

    * row-buffer **hit** — the addressed row is already open;
    * **closed** — no row is open (first access after reset);
    * **conflict** — a different row is open and must be precharged.
    """

    def __init__(self, channel_id: int, bank_id: int, timings: DramTimings):
        self.channel_id = channel_id
        self.bank_id = bank_id
        self.timings = timings
        self.open_row: Optional[int] = None
        #: thread that opened the currently latched row (None when no row
        #: is open); lets observability attribute a row-conflict penalty
        #: to the thread whose row had to be precharged.
        self.open_row_owner: Optional[int] = None
        self.busy_until: int = 0
        self.last_activate: int = -(10 ** 9)   # effectively "long ago"
        # statistics
        self.row_hits = 0
        self.row_conflicts = 0
        self.row_closed = 0
        self.busy_cycles = 0

    def is_idle(self, now: int) -> bool:
        """True if the bank can begin a new access at ``now``."""
        return now >= self.busy_until

    def classify(self, row: int) -> str:
        """Classify an access to ``row`` as 'hit', 'closed' or 'conflict'."""
        if self.open_row is None:
            return "closed"
        if self.open_row == row:
            return "hit"
        return "conflict"

    def begin_access(
        self,
        row: int,
        now: int,
        bus_free_until: int,
        activate_not_before: int = 0,
        thread_id: Optional[int] = None,
    ) -> "BankAccess":
        """Start servicing an access; returns the timing breakdown.

        The precharge/activate portion proceeds on the bank alone; the
        burst must additionally wait for the channel data bus.  The bank
        is busy until the burst completes.

        With detailed timings enabled, activates additionally honour
        tRAS (precharge no earlier than tRAS after the previous
        activate), tRC (same-bank activate spacing) and any
        channel-level bound passed via ``activate_not_before``
        (tRRD/tFAW/refresh).

        ``thread_id`` (optional) records provenance: a conflict access
        carries ``row_blocker`` — the thread whose open row forced the
        precharge — and the bank remembers the new row's owner.
        """
        if not self.is_idle(now):
            raise RuntimeError(
                f"bank ch{self.channel_id}/b{self.bank_id} busy until "
                f"{self.busy_until}, access attempted at {now}"
            )
        t = self.timings
        kind = self.classify(row)
        row_blocker = self.open_row_owner if kind == "conflict" else None
        activate_time = None
        if kind == "hit":
            prep_done = now
        else:
            if kind == "conflict":
                precharge_start = now
                if t.detailed:
                    precharge_start = max(
                        precharge_start, self.last_activate + t.t_ras
                    )
                ready_for_activate = precharge_start + t.t_rp
            else:
                ready_for_activate = now
            activate_time = max(ready_for_activate, activate_not_before)
            if t.detailed:
                activate_time = max(
                    activate_time, self.last_activate + t.t_rc
                )
            self.last_activate = activate_time
            prep_done = activate_time + t.t_rcd
        data_start = max(prep_done, bus_free_until)
        data_end = data_start + t.burst
        # closed-page policy auto-precharges: nothing stays latched, so
        # the next access is always a "closed" activate (never a
        # conflict, never a hit)
        self.open_row = None if t.page_policy == "closed" else row
        self.open_row_owner = None if t.page_policy == "closed" else thread_id
        self.busy_until = data_end
        self.busy_cycles += data_end - now
        if kind == "hit":
            self.row_hits += 1
        elif kind == "conflict":
            self.row_conflicts += 1
        else:
            self.row_closed += 1
        return BankAccess(
            kind=kind,
            data_start=data_start,
            data_end=data_end,
            activate_time=activate_time,
            prep_done=prep_done,
            row_blocker=row_blocker,
        )


class BankAccess:
    """Timing outcome of a single bank access.

    Beyond the timing boundaries themselves, an access carries the
    *provenance* of each wait it suffered, filled in by the bank and
    channel that produced it:

    * ``prep_done`` — cycle the row was ready (burst could start as far
      as the bank is concerned; any later ``data_start`` is bus wait);
    * ``row_blocker`` — for a conflict access, the thread whose open
      row forced the precharge (None otherwise);
    * ``bus_blocker`` — the thread whose burst delayed this one on the
      channel data bus (None when the bus imposed no wait).
    """

    __slots__ = ("kind", "data_start", "data_end", "activate_time",
                 "prep_done", "row_blocker", "bus_blocker")

    def __init__(
        self,
        kind: str,
        data_start: int,
        data_end: int,
        activate_time: Optional[int] = None,
        prep_done: Optional[int] = None,
        row_blocker: Optional[int] = None,
        bus_blocker: Optional[int] = None,
    ):
        self.kind = kind
        self.data_start = data_start
        self.data_end = data_end
        self.activate_time = activate_time
        self.prep_done = data_start if prep_done is None else prep_done
        self.row_blocker = row_blocker
        self.bus_blocker = bus_blocker

    @property
    def is_row_hit(self) -> bool:
        return self.kind == "hit"
