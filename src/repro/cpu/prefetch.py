"""Stream prefetching (optional substrate).

The paper's related work (Lee et al. [6], "Prefetch-aware DRAM
controllers") adaptively prioritises between prefetch and demand
requests and "can be combined" with TCM.  This module provides the
prefetch side of that combination:

* a per-thread **stream prefetcher** that detects consecutive misses to
  the same DRAM row and fetches the row's upcoming blocks ahead of
  demand (a classic next-line/stream prefetcher — our synthetic streams
  walk rows sequentially, as real streams do);
* a small **prefetch buffer**: demand misses that hit prefetched blocks
  complete at on-chip latency instead of going to DRAM.

Prefetch requests travel through the normal controller queues tagged
``is_prefetch`` and are serviced *demand-first* (the baseline policy
[6] improves upon).  Enable with ``SimConfig.prefetch_degree > 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

Location = Tuple[int, int, int]   # (channel, bank, row)

#: latency of a demand miss that hits the prefetch buffer (on-chip)
PREFETCH_HIT_LATENCY = 20

#: same-row miss streak that arms the prefetcher
_TRIGGER_STREAK = 2

#: prefetch-buffer capacity in blocks per thread
_BUFFER_BLOCKS = 32

#: feedback-directed throttling (after Srinath et al. / Lee et al.):
#: once this many prefetches have been issued, a thread whose accuracy
#: is below the threshold stops prefetching
_THROTTLE_WARMUP = 64
_THROTTLE_ACCURACY = 0.55


@dataclass
class PrefetchStats:
    """Counters for one thread's prefetcher."""

    issued: int = 0
    useful: int = 0
    evicted: int = 0

    @property
    def accuracy(self) -> float:
        return self.useful / self.issued if self.issued else 0.0


class StreamPrefetcher:
    """Detects row streams and manages the per-thread prefetch buffer."""

    def __init__(self, degree: int):
        if degree < 1:
            raise ValueError("prefetch degree must be >= 1")
        self.degree = degree
        self.stats = PrefetchStats()
        # per-bank stream detection: (channel, bank) -> (row, streak)
        self._streams: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._inflight: Dict[Location, int] = {}
        self._credits: Dict[Location, int] = {}
        self._credit_total = 0
        #: demand misses merged into in-flight prefetches (MSHR merge):
        #: location -> issue ids waiting for the fill
        self._waiters: Dict[Location, List[int]] = {}
        #: feedback-directed throttle: set when accuracy stays low
        self.throttled = False

    # ------------------------------------------------------------------

    def consume(self, location: Location) -> bool:
        """True if a demand miss hits the prefetch buffer."""
        key = location
        if self._credits.get(key, 0) > 0:
            self._credits[key] -= 1
            self._credit_total -= 1
            if self._credits[key] == 0:
                del self._credits[key]
            self.stats.useful += 1
            return True
        return False

    def try_merge(self, location: Location, issue_id: int) -> bool:
        """Merge a demand miss into an in-flight prefetch (MSHR merge).

        The demand does not go to DRAM; it completes when the matching
        prefetch fills.  Returns False when no prefetch is in flight
        for the location.
        """
        free = self._inflight.get(location, 0) - len(
            self._waiters.get(location, ())
        )
        if free <= 0:
            return False
        self._waiters.setdefault(location, []).append(issue_id)
        self.stats.useful += 1
        return True

    def observe(self, location: Location) -> List[Location]:
        """Record a demand miss; returns prefetches to inject (if any).

        On a same-row streak, fetch ``degree`` upcoming blocks of the
        row (modelled as ``degree`` prefetch requests to the same row).
        Streams are detected per bank so that a thread interleaving two
        banks still streaks on each.
        """
        channel, bank, row = location
        key = (channel, bank)
        last_row, streak = self._streams.get(key, (None, 0))
        if last_row == row:
            streak += 1
        else:
            streak = 1
            # the stream moved to a new row: blocks buffered for this
            # bank's previous rows will never be used — evict them
            self._evict_bank(channel, bank, keep_row=row)
        self._streams[key] = (row, streak)
        if streak < _TRIGGER_STREAK:
            return []
        if (
            self.stats.issued >= _THROTTLE_WARMUP
            and self.stats.accuracy < _THROTTLE_ACCURACY
        ):
            self.throttled = True
        if self.throttled:
            return []
        # keep ``degree`` uncommitted blocks of the row covered ahead of
        # demand: in-flight prefetches already claimed by merged demand
        # misses are spoken for
        uncommitted = (
            self._inflight.get(location, 0)
            - len(self._waiters.get(location, ()))
            + self._credits.get(location, 0)
        )
        top_up = self.degree - uncommitted
        if top_up <= 0:
            return []
        if self._credit_total >= _BUFFER_BLOCKS:
            return []
        self._inflight[location] = self._inflight.get(location, 0) + top_up
        self.stats.issued += top_up
        return [location] * top_up

    def _evict_bank(self, channel: int, bank: int, keep_row: int) -> None:
        """Drop buffered credits for a bank's superseded rows.

        In-flight prefetches and their merged waiters are untouched
        (waiters must complete); only unclaimed buffered blocks go.
        """
        credits = self._credits
        # a plain loop over a copy of the keys, not a comprehension,
        # so a stream break enters no frame besides this one
        for loc in list(credits):
            if loc[0] == channel and loc[1] == bank and loc[2] != keep_row:
                count = credits.pop(loc)
                self._credit_total -= count
                self.stats.evicted += count

    def fill(self, location: Location) -> List[int]:
        """A prefetch completed; returns merged demand ids to wake.

        Without waiters the block is buffered as a credit for a future
        demand (or dropped if the buffer is full).
        """
        if self._inflight.get(location, 0) > 0:
            self._inflight[location] -= 1
            if self._inflight[location] == 0:
                del self._inflight[location]
        waiters = self._waiters.get(location)
        if waiters:
            woken = waiters.pop(0)
            if not waiters:
                del self._waiters[location]
            return [woken]
        if self._credit_total >= _BUFFER_BLOCKS:
            self.stats.evicted += 1
            return []
        self._credits[location] = self._credits.get(location, 0) + 1
        self._credit_total += 1
        return []
