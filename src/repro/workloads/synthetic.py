"""Synthetic address-stream generation.

Substitutes for the paper's Pin-captured SPEC CPU2006 traces.  A stream
is parameterised by a :class:`~repro.workloads.spec.BenchmarkSpec` and
produces, per miss, a (channel, bank, row) target such that the
*measured* row-buffer locality and bank-level parallelism of the thread
converge to the spec's targets:

* **RBL**: each access to a bank reuses the thread's previous row in
  that bank with probability ``rbl`` — precisely the shadow row-buffer
  hit rate the paper's monitors measure.
* **BLP**: misses rotate over a *spread* of banks resampled around the
  BLP target (floor/ceil with matching mean) within a contiguous bank
  window, so the number of banks holding the thread's outstanding
  requests tracks the target.

The bank window *drifts*: every row change advances it by one bank,
the way a sequential walk crosses from one row into the next bank.
A streaming thread (RBL ~= 0.99) therefore dwells ~100 misses on one
bank and then moves on — sweeping the whole memory system and
temporarily denying service to any thread sharing its current bank
(the paper's §2.4 hostility).  A random-access thread's window slides
almost every miss, scattering its requests bank-wide.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.config import SimConfig
from repro.workloads.rng import BufferedPCG64
from repro.workloads.spec import BenchmarkSpec


class AddressStream:
    """Generates DRAM targets for one thread's cache misses.

    ``rng`` is wrapped in a :class:`~repro.workloads.rng.BufferedPCG64`
    and must not be drawn from elsewhere afterwards.
    """

    def __init__(
        self,
        spec: BenchmarkSpec,
        config: SimConfig,
        rng: np.random.Generator,
    ):
        self.spec = spec
        self.config = config
        self._rng = BufferedPCG64(rng)
        num_banks = config.num_banks
        self._window = min(num_banks, max(1, math.ceil(spec.blp)))
        self._base = self._rng.integers(num_banks)
        # The first access after drifting onto a bank can never reuse a
        # row, so the per-access reuse probability is raised such that
        # the *measured* reuse rate (hits / all accesses, first touches
        # included) converges to exactly ``rbl``:
        #   measured = p / (2 - p)  =>  p = 2*rbl / (1 + rbl)
        self._reuse_prob = 2.0 * spec.rbl / (1.0 + spec.rbl)
        self._last_row = {}  # global bank id -> last row accessed
        # spread bounds: the floor/ceil of the BLP target (clamped to
        # the window) and the chance of taking the ceiling
        target = max(1.0, min(spec.blp, float(self._window)))
        self._spread_lo = math.floor(target)
        self._spread_hi = math.ceil(target)
        self._spread_frac = target - self._spread_lo
        self._spread = self._sample_spread()
        self._pos = 0
        self.accesses = 0
        self.row_reuses = 0
        self.drifts = 0

    # ------------------------------------------------------------------

    def _sample_spread(self) -> int:
        """How many banks the next rotation of misses covers."""
        lo = self._spread_lo
        if lo == self._spread_hi:
            return lo
        if self._rng.random() < self._spread_frac:
            return self._spread_hi
        return lo

    def _global_to_location(self, gbank: int, row: int) -> Tuple[int, int, int]:
        channel = gbank // self.config.banks_per_channel
        bank = gbank % self.config.banks_per_channel
        return channel, bank, row

    def _drift(self) -> None:
        """Slide the bank window by one, like a walk crossing a row end."""
        departed = self._base
        self._base = (self._base + 1) % self.config.num_banks
        self._last_row.pop(departed, None)
        self.drifts += 1

    def _row_for(self, gbank: int) -> Tuple[int, bool]:
        """Row for the next access to ``gbank``; True if an open row
        was exhausted (a re-visited bank switched rows).

        The first touch of a bank opens a fresh row but is not an
        exhaustion — otherwise every post-drift access would cascade
        into another drift.  The expected drift rate under this rule is
        ``(1 - rbl) / 2`` per access.
        """
        self.accesses += 1
        last = self._last_row.get(gbank)
        if last is None:
            row = self._rng.integers(self.config.num_rows)
            self._last_row[gbank] = row
            return row, False
        if self._rng.random() < self._reuse_prob:
            self.row_reuses += 1
            return last, False
        # row exhausted: sequential walk to the next row (streams read
        # memory in address order; prefetchers can predict this)
        row = (last + 1) % self.config.num_rows
        self._last_row[gbank] = row
        return row, True

    # ------------------------------------------------------------------

    def next_location(self) -> Tuple[int, int, int]:
        """DRAM target of the thread's next cache miss."""
        if self._pos >= self._spread:
            self._pos = 0
            self._spread = self._sample_spread()
        gbank = (self._base + self._pos) % self.config.num_banks
        self._pos += 1
        row, exhausted = self._row_for(gbank)
        if exhausted:
            self._drift()
        return self._global_to_location(gbank, row)

    def next_locations(self, count: int) -> List[Tuple[int, int, int]]:
        """Convenience: the next ``count`` miss targets."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return [self.next_location() for _ in range(count)]

    @property
    def measured_reuse_rate(self) -> float:
        """Fraction of accesses that reused the previous row (sanity stat)."""
        if self.accesses == 0:
            return 0.0
        return self.row_reuses / self.accesses
