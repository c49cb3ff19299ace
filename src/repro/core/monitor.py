"""Monitoring of per-thread memory access behaviour (paper §3.4).

Implements the three monitors of Table 2:

* **Memory intensity** — L2 MPKI, computed from the cores' retired
  instruction and miss counters each quantum.
* **Row-buffer locality** — a *shadow row-buffer index* per thread per
  bank tracks the row that would be open had the thread run alone; RBL
  is the shadow hit rate over the quantum.
* **Bank-level parallelism** — the time-weighted average number of
  banks holding at least one outstanding request of the thread, while
  the thread has any outstanding request (a continuous version of the
  paper's periodic sampling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.config import SimConfig
from repro.dram.request import MemoryRequest


@dataclass(frozen=True)
class ThreadMetrics:
    """One thread's monitored behaviour over a quantum."""

    mpki: float
    bw_usage: int      # memory service time: bank-busy cycles attributed
    blp: float         # average banks with outstanding requests
    rbl: float         # shadow row-buffer hit rate


@dataclass(frozen=True)
class QuantumSnapshot:
    """All threads' metrics for one quantum, plus aggregates."""

    quantum_index: int
    metrics: Tuple[ThreadMetrics, ...]

    @property
    def total_bw_usage(self) -> int:
        return sum(m.bw_usage for m in self.metrics)

    @property
    def num_threads(self) -> int:
        return len(self.metrics)


class BehaviorMonitor:
    """Continuously tracks BW usage, shadow-RBL and BLP per thread.

    One instance serves the whole system; internally statistics are
    still attributable per channel (service cycles and shadow rows are
    kept per channel) mirroring the paper's per-controller monitors
    whose results the meta-controller aggregates.

    The event hooks write only the per-quantum counters.
    :meth:`reset_quantum` folds them into per-thread run totals before
    clearing them, and the five ``lifetime_*`` lists are read-only: each
    read builds a fresh list of the folded totals plus the current
    quantum.  The fold is exact: the counts are ints, and each BLP
    integral is a sum of integer products held in a float below 2**53.
    """

    def __init__(self, config: SimConfig, num_threads: int):
        self.config = config
        self.num_threads = num_threads
        nch = config.num_channels
        # per-channel service cycles: [channel][thread]
        self.service_cycles: List[List[int]] = [
            [0] * num_threads for _ in range(nch)
        ]
        # shadow row-buffer index per (channel, thread, bank)
        self._shadow_rows: List[List[Dict[int, int]]] = [
            [dict() for _ in range(num_threads)] for _ in range(nch)
        ]
        self.shadow_hits: List[List[int]] = [[0] * num_threads for _ in range(nch)]
        self.shadow_accesses: List[List[int]] = [
            [0] * num_threads for _ in range(nch)
        ]
        # BLP accounting (global across banks, per thread)
        self._bank_outstanding: List[Dict[int, int]] = [
            dict() for _ in range(num_threads)
        ]
        self._active_banks: List[int] = [0] * num_threads
        self._outstanding: List[int] = [0] * num_threads
        self._last_update: List[int] = [0] * num_threads
        self._blp_integral: List[float] = [0.0] * num_threads
        self._busy_time: List[int] = [0] * num_threads
        # run totals of the quanta already ended, folded in at
        # reset_quantum (the lifetime_* lists add the current quantum)
        self._folded_service_cycles: List[int] = [0] * num_threads
        self._folded_shadow_hits: List[int] = [0] * num_threads
        self._folded_shadow_accesses: List[int] = [0] * num_threads
        self._folded_blp_integral: List[float] = [0.0] * num_threads
        self._folded_busy_time: List[int] = [0] * num_threads

    # ------------------------------------------------------------------
    # event hooks
    # ------------------------------------------------------------------

    def _advance_blp(self, tid: int, now: int) -> None:
        dt = now - self._last_update[tid]
        if dt > 0 and self._outstanding[tid] > 0:
            self._blp_integral[tid] += self._active_banks[tid] * dt
            self._busy_time[tid] += dt
        self._last_update[tid] = now

    def on_request_arrival(self, request: MemoryRequest, now: int) -> None:
        """Track shadow row-buffer and BLP at request arrival."""
        tid = request.thread_id
        ch = request.channel_id
        shadow = self._shadow_rows[ch][tid]
        prev = shadow.get(request.bank_id)
        self.shadow_accesses[ch][tid] += 1
        if prev == request.row:
            self.shadow_hits[ch][tid] += 1
        shadow[request.bank_id] = request.row

        self._advance_blp(tid, now)
        gbank = ch * self.config.banks_per_channel + request.bank_id
        counts = self._bank_outstanding[tid]
        counts[gbank] = counts.get(gbank, 0) + 1
        if counts[gbank] == 1:
            self._active_banks[tid] += 1
        self._outstanding[tid] += 1

    def on_request_service(
        self, request: MemoryRequest, busy_cycles: int
    ) -> None:
        """Attribute bank-busy cycles (memory service time) to the thread."""
        tid = request.thread_id
        self.service_cycles[request.channel_id][tid] += busy_cycles

    def on_request_complete(self, request: MemoryRequest, now: int) -> None:
        """Track BLP at request completion."""
        tid = request.thread_id
        self._advance_blp(tid, now)
        gbank = (
            request.channel_id * self.config.banks_per_channel + request.bank_id
        )
        counts = self._bank_outstanding[tid]
        counts[gbank] -= 1
        if counts[gbank] == 0:
            del counts[gbank]
            self._active_banks[tid] -= 1
        self._outstanding[tid] -= 1

    # ------------------------------------------------------------------
    # quantum accounting
    # ------------------------------------------------------------------

    def quantum_metrics(
        self, thread_mpki: List[float], now: int
    ) -> List[ThreadMetrics]:
        """Per-thread metrics for the quantum ending at ``now``."""
        metrics = []
        for tid in range(self.num_threads):
            self._advance_blp(tid, now)
            bw = sum(self.service_cycles[ch][tid] for ch in range(len(self.service_cycles)))
            accesses = sum(
                self.shadow_accesses[ch][tid]
                for ch in range(len(self.shadow_accesses))
            )
            hits = sum(
                self.shadow_hits[ch][tid] for ch in range(len(self.shadow_hits))
            )
            rbl = hits / accesses if accesses else 0.0
            busy = self._busy_time[tid]
            blp = self._blp_integral[tid] / busy if busy else 0.0
            metrics.append(
                ThreadMetrics(
                    mpki=thread_mpki[tid], bw_usage=bw, blp=blp, rbl=rbl
                )
            )
        return metrics

    def reset_quantum(self) -> None:
        """Fold the per-quantum counters into the run totals and clear
        them (shadow/row state is retained)."""
        self._folded_service_cycles = self.lifetime_service_cycles
        self._folded_shadow_hits = self.lifetime_shadow_hits
        self._folded_shadow_accesses = self.lifetime_shadow_accesses
        self._folded_blp_integral = self.lifetime_blp_integral
        self._folded_busy_time = self.lifetime_busy_time
        for ch in range(len(self.service_cycles)):
            self.service_cycles[ch] = [0] * self.num_threads
            self.shadow_hits[ch] = [0] * self.num_threads
            self.shadow_accesses[ch] = [0] * self.num_threads
        self._blp_integral = [0.0] * self.num_threads
        self._busy_time = [0] * self.num_threads

    # ------------------------------------------------------------------
    # lifetime reporting: the folded quanta plus the current one, built
    # at each read (a reader indexing per thread reads a list once)
    # ------------------------------------------------------------------

    @property
    def lifetime_service_cycles(self) -> List[int]:
        """Whole-run bank-busy cycles attributed to each thread."""
        return _with_quantum(self._folded_service_cycles, self.service_cycles)

    @property
    def lifetime_shadow_hits(self) -> List[int]:
        """Whole-run shadow row-buffer hits of each thread."""
        return _with_quantum(self._folded_shadow_hits, self.shadow_hits)

    @property
    def lifetime_shadow_accesses(self) -> List[int]:
        """Whole-run shadow row-buffer accesses of each thread."""
        return _with_quantum(self._folded_shadow_accesses, self.shadow_accesses)

    @property
    def lifetime_blp_integral(self) -> List[float]:
        """Whole-run time integral of each thread's active banks."""
        return [
            folded + current
            for folded, current in zip(self._folded_blp_integral,
                                       self._blp_integral)
        ]

    @property
    def lifetime_busy_time(self) -> List[int]:
        """Whole-run cycles each thread had a request outstanding."""
        return [
            folded + current
            for folded, current in zip(self._folded_busy_time, self._busy_time)
        ]

    def lifetime_rbl(self, tid: int) -> float:
        """Whole-run shadow row-buffer hit rate for ``tid``."""
        acc = _thread_total(
            self._folded_shadow_accesses, self.shadow_accesses, tid
        )
        if not acc:
            return 0.0
        return _thread_total(self._folded_shadow_hits, self.shadow_hits, tid) / acc

    def lifetime_blp(self, tid: int) -> float:
        """Whole-run average bank-level parallelism for ``tid``."""
        busy = self._folded_busy_time[tid] + self._busy_time[tid]
        if not busy:
            return 0.0
        return (self._folded_blp_integral[tid] + self._blp_integral[tid]) / busy


def _with_quantum(folded: List[int], per_channel: List[List[int]]) -> List[int]:
    """Per thread: ``folded`` plus the current quantum's count summed
    over the channels."""
    return [
        total + sum(column)
        for total, column in zip(folded, zip(*per_channel))
    ]


def _thread_total(
    folded: List[int], per_channel: List[List[int]], tid: int
) -> int:
    """One thread's entry of :func:`_with_quantum`."""
    return folded[tid] + sum(row[tid] for row in per_channel)
