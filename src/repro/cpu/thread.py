"""Sliding-window thread model.

Each thread stands in for a 3-wide core with a 128-entry instruction
window running one traced benchmark.  The model captures exactly the
behaviour the paper's mechanisms react to:

* A last-level-cache miss occurs every ``instrs_per_miss = 1000/MPKI``
  instructions; fetching those instructions at peak IPC takes
  ``instrs_per_miss / ipc_peak`` cycles, so a new miss *wants* to issue
  that many cycles after the previous one.
* The instruction window holds ``window_size`` instructions, so at most
  ``window_size / instrs_per_miss`` misses (bounded by the core's MSHR
  count) can be outstanding; when the window fills, the core stalls and
  the next miss issues only once the oldest completes — the window
  *slides* rather than draining completely.
* Instructions retire in order: each completed miss unblocks the
  ``instrs_per_miss`` instructions behind it.

This reproduces the paper's two behavioural regimes (§2.2): low-MPKI
threads compute for long stretches and are latency-sensitive; high-MPKI
threads saturate their window and progress at the speed of the memory
system.  Memory-level parallelism (outstanding misses) is decoupled
from *bank-level* parallelism: the address stream spreads misses over a
working set of banks sized by the benchmark's BLP target, so a
streaming thread keeps many misses outstanding to one bank while a
random-access thread scatters them.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional, Tuple

import numpy as np

from repro.config import SimConfig
from repro.cpu.stats import ThreadStats
from repro.workloads.rng import BufferedPCG64
from repro.workloads.spec import BenchmarkSpec
from repro.workloads.synthetic import AddressStream

#: Cap on concurrent misses per core (MSHR count); keeps the most
#: memory-intensive threads' parallelism within realistic miss-buffer sizes.
MAX_OUTSTANDING_MISSES = 16

#: Issue-gap jitter: each compute gap is scaled by ``uniform(low, high)``.
JITTER = (0.9, 1.1)

#: Per-instruction miss-rate multipliers a program phase draws from,
#: uniformly: ``_PHASE_MULTIPLIERS[rng.integers(0, 3)]`` is the draw
#: ``float(rng.choice(_PHASE_MULTIPLIERS))`` makes, from the same stream
#: state, at a fifth of the cost.
_PHASE_MULTIPLIERS = (0.5, 1.0, 2.0)


class ThreadModel:
    """A single hardware context executing one benchmark.

    Driven by the simulation system through three calls:

    * :meth:`try_issue` — the compute gate for the next miss has been
      reached (or the window just unblocked); returns the DRAM location
      of the next miss, or None if the window is full.
    * :meth:`issue_gap` — cycles until the *next* miss's compute gate.
    * :meth:`on_request_completed` — a miss returned; retires its
      instructions and reports whether the window was blocked (in which
      case the system should immediately call :meth:`try_issue`).

    The outstanding misses sit in the reorder buffer ``_rob``, oldest
    first, as the bare instruction credit each carried at issue.  Issue
    ids are consecutive and misses retire in order, so the head's id is
    ``issued - len(_rob) + 1`` and no entry stores one; ``_completed``
    holds the ids that completed ahead of an older miss.
    """

    def __init__(
        self,
        thread_id: int,
        spec: BenchmarkSpec,
        config: SimConfig,
        seed: int,
        weight: int = 1,
        stream: Optional[int] = None,
    ):
        if spec.mpki <= 0:
            raise ValueError(f"benchmark {spec.name} must have positive MPKI")
        if weight < 1:
            raise ValueError("thread weight must be >= 1")
        self.thread_id = thread_id
        self.spec = spec
        self.config = config
        self.weight = weight
        self.stats = ThreadStats()
        # The rng "stream" identifies the benchmark instance, not the
        # hardware context, so a benchmark behaves the same whichever
        # core it lands on (and its alone run sees the same behaviour).
        if stream is None:
            stream = thread_id
        self._rng = BufferedPCG64(
            np.random.default_rng((seed, stream, 0x7E))
        )
        # Phases get their own rng: phase boundaries are wall-clock
        # events, so alone and shared runs of the same benchmark see
        # the same phase sequence regardless of how many misses each
        # manages to issue (per-issue jitter draws would desync them).
        self._phase_rng = np.random.default_rng((seed, stream, 0xF5))
        self._addr = AddressStream(
            spec, config, np.random.default_rng((seed, stream, 0xAD))
        )
        self.instrs_per_miss = 1000.0 / spec.mpki
        self.window_blocked = False
        self.issued = 0
        self._instr_credit = 0.0
        # Reorder-buffer view of outstanding misses: completions retire
        # IN ORDER, so a single stalled miss blocks the whole window —
        # the fragility of high-BLP threads the paper builds niceness on.
        # Each entry is the instruction credit a miss carried at issue
        # time, so a phase change mid-flight cannot re-price in-flight
        # misses.
        self._rob: deque = deque()   # instr credits, oldest first
        self._completed: set = set()  # issue ids completed but not retired
        self._last_issue_time = 0
        # credit (instructions) carried by the next miss to issue;
        # re-priced whenever a new inter-miss gap is drawn
        self._pending_credit = self.instrs_per_miss
        self._gap_carry = 0.0
        # virtual "program time": cumulative compute gaps, excluding
        # memory stalls — the timeline trace recording positions misses
        # on (so a trace is contention-free, like a Pin trace)
        self.program_time = 0
        # phase machinery: the per-instruction miss rate is modulated
        # over time like real SPEC traces' program phases
        self._phase_end = 0
        self.phase_multiplier = 1.0
        self._current_ipm = self.instrs_per_miss
        self.max_outstanding = self._window_limit()

    def _window_limit(self) -> int:
        """Outstanding-miss bound from window size and current miss rate."""
        return max(
            1,
            min(
                MAX_OUTSTANDING_MISSES,
                int(self.config.window_size // max(1.0, self._current_ipm)),
            ),
        )

    def _maybe_change_phase(self, now: int) -> None:
        mean = self.config.phase_mean_cycles
        if mean <= 0 or now < self._phase_end:
            return
        self.phase_multiplier = _PHASE_MULTIPLIERS[
            self._phase_rng.integers(0, 3)
        ]
        self._current_ipm = self.instrs_per_miss / self.phase_multiplier
        self.max_outstanding = self._window_limit()
        self._phase_end = now + max(1, int(self._phase_rng.exponential(mean)))

    # ------------------------------------------------------------------
    # issue side
    # ------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Misses currently occupying the window (issued, unretired)."""
        return len(self._rob)

    def try_issue(self, now: int) -> Optional[Tuple[int, int, int]]:
        """Issue the next miss if the window has room.

        Returns the (channel, bank, row) of the miss, or None when the
        window is full (the model remembers it is blocked and the next
        retirement will retry).  The issue id of the new miss is
        ``self.issued`` after this call returns (ids are 1-based).
        """
        self._maybe_change_phase(now)
        if len(self._rob) >= self.max_outstanding:
            self.window_blocked = True
            return None
        self.window_blocked = False
        self.issued += 1
        self._rob.append(self._pending_credit)
        self._last_issue_time = now
        return self._addr.next_location()

    def issue_gap(self) -> int:
        """Compute cycles before the next miss may issue (jittered).

        The instructions behind the *next* miss are exactly what the
        core can execute during this gap at peak IPC; pricing the
        miss's retirement credit from the same draw keeps measured IPC
        bounded by the issue width under jitter and phase changes.
        """
        gap = self._current_ipm / self.config.ipc_peak
        gap *= self._rng.uniform(*JITTER)
        # carry the fractional cycles over so that short gaps (intense
        # threads) do not truncate towards higher miss rates
        gap += self._gap_carry
        cycles = max(1, int(gap))
        self._gap_carry = gap - cycles
        self._pending_credit = cycles * self.config.ipc_peak
        self.program_time += cycles
        return cycles

    # ------------------------------------------------------------------
    # completion side
    # ------------------------------------------------------------------

    def on_request_completed(self, issue_id: int) -> bool:
        """Miss ``issue_id`` returned; retire in order from the ROB head.

        Instructions behind a miss retire only once every older miss
        has also completed; a stalled oldest miss therefore blocks the
        whole window even while younger misses finish.

        Returns True when the window had been blocked and at least one
        slot was freed (the system must retry :meth:`try_issue` now).
        """
        if not self._rob:
            raise RuntimeError(
                f"thread {self.thread_id} completion with no outstanding misses"
            )
        self._completed.add(issue_id)
        freed = 0
        head_id = self.issued - len(self._rob) + 1
        while self._rob and head_id in self._completed:
            head_credit = self._rob.popleft()
            self._completed.discard(head_id)
            head_id += 1
            freed += 1
            # Retire the instructions behind the miss; accumulate the
            # fractional part so long-run MPKI matches the spec exactly.
            self._instr_credit += head_credit
            instrs = int(self._instr_credit)
            self._instr_credit -= instrs
            self.stats.retire(instrs, 1)
        was_blocked = self.window_blocked and freed > 0
        if freed:
            self.window_blocked = False
        return was_blocked

    def finalize(self, now: int) -> None:
        """Credit compute progress made since the last miss issued.

        Sparse-miss threads retire instructions only at miss
        completions; without this, up to one full inter-miss chunk of
        instructions (e.g. 100k instructions for a 0.01-MPKI thread) is
        dropped at the end of the run, quantising the measured IPC.
        """
        if self._rob:
            return  # stalled on memory, no unaccounted compute
        elapsed = max(0, now - self._last_issue_time)
        instrs = min(
            int(elapsed * self.config.ipc_peak), int(self._pending_credit)
        )
        if instrs > 0:
            self.stats.retire(instrs, 0)
