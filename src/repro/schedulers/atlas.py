"""ATLAS — Adaptive per-Thread Least-Attained-Service scheduling [5].

ATLAS divides time into long quanta; at each boundary a meta-controller
aggregates every thread's *attained service* (memory service cycles,
exponentially averaged over past quanta with ``HistoryWeight``) and
ranks threads so that the thread with the **least** attained service
has the highest priority for the whole next quantum.  Least-attained-
service prioritisation maximises system throughput (light threads fly)
but strictly deprioritises the most memory-intensive threads, which is
exactly the unfairness TCM's shuffling repairs.

A starvation threshold ``T`` bounds the damage: requests older than
``T`` cycles are serviced first regardless of thread rank.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import ATLASParams
from repro.core.monitor import QuantumSnapshot
from repro.dram.channel import Channel
from repro.dram.request import MemoryRequest
from repro.schedulers.base import Scheduler, empty_queue


class ATLASScheduler(Scheduler):
    """Least-attained-service scheduler with its own quantum length."""

    name = "ATLAS"
    PRIORITY_COMPONENTS = ("starving", "rank", "row_hit", "age")

    def __init__(self, params: Optional[ATLASParams] = None):
        super().__init__()
        self.params = params or ATLASParams()
        self._attained: List[float] = []
        self._quantum_service: List[int] = []
        self._rank: Dict[int, int] = {}
        self._weights: Tuple[int, ...] = ()
        self.quanta_completed = 0

    def epoch_annotations(self, thread_id: int) -> dict:
        if not self._rank:
            return {}
        return {"rank": self._rank.get(thread_id, 0)}

    def state_digest(self) -> dict:
        digest = super().state_digest()
        digest.update(
            attained=list(self._attained),
            quantum_service=list(self._quantum_service),
            rank=sorted(self._rank.items()),
            quanta_completed=self.quanta_completed,
        )
        return digest

    def on_attach(self) -> None:
        n = self.system.workload.num_threads
        self._attained = [0.0] * n
        self._quantum_service = [0] * n
        self._weights = self.system.workload.weights or tuple([1] * n)
        self._rank = {}
        self.system.schedule_timer(self.params.quantum_cycles, "atlas-quantum")

    # ------------------------------------------------------------------

    def on_request_scheduled(
        self,
        request: MemoryRequest,
        waiting: List[MemoryRequest],
        busy_cycles: int,
        now: int,
    ) -> None:
        self._quantum_service[request.thread_id] += busy_cycles

    def _recompute_ranks(self) -> None:
        """Decay attained service and re-rank (least attained first)."""
        alpha = self.params.history_weight
        n = len(self._attained)
        for tid in range(n):
            self._attained[tid] = (
                alpha * self._attained[tid]
                + (1.0 - alpha) * self._quantum_service[tid]
            )
            self._quantum_service[tid] = 0
        # Least attained service (weight-scaled) -> highest rank.
        order = sorted(
            range(n),
            key=lambda tid: (self._attained[tid] / self._weights[tid], tid),
        )
        self._rank = {tid: n - pos for pos, tid in enumerate(order)}

    def on_timer(self, now: int, key: str) -> None:
        if key != "atlas-quantum":
            return
        self._recompute_ranks()
        self.quanta_completed += 1
        self.trace(
            "rank", now,
            ranks={str(tid): rank for tid, rank in self._rank.items()},
        )
        self.system.schedule_timer(now + self.params.quantum_cycles, "atlas-quantum")

    # ------------------------------------------------------------------

    def explain_components(
        self, request: MemoryRequest, row_hit: bool, now: int, key=None
    ) -> dict:
        components = super().explain_components(
            request, row_hit, now, key
        )
        tid = request.thread_id
        if tid < len(self._attained):
            components["attained"] = self._attained[tid]
        return components

    def priority(
        self, request: MemoryRequest, row_hit: bool, now: int
    ) -> Tuple:
        starving = (now - request.arrival) > self.params.starvation_threshold
        return (
            starving,
            self._rank.get(request.thread_id, 0),
            row_hit,
            -request.arrival,
        )

    def select(
        self, channel: Channel, bank_id: int, now: int
    ) -> MemoryRequest:
        # ``priority``'s slots compared in place, one pass: the first
        # request in queue order maximising (demand, starving, rank,
        # row hit, -arrival), exactly as the base scan picks.  A
        # request starves once ``now - arrival`` exceeds the threshold.
        queue = channel.queues[bank_id]
        if not queue:
            raise empty_queue(channel, bank_id)
        best = queue[0]
        if len(queue) == 1:
            return best
        open_row = channel.banks[bank_id].open_row
        horizon = now - self.params.starvation_threshold
        rank_of = self._rank.get
        best_prefetch = best.is_prefetch
        best_starving = best.arrival < horizon
        best_rank = rank_of(best.thread_id, 0)
        best_hit = best.row == open_row
        best_arrival = best.arrival
        for request in queue:
            # skip unless strictly above the best so far, slot by slot
            if request.is_prefetch != best_prefetch:
                if not best_prefetch:
                    continue
            elif (request.arrival < horizon) != best_starving:
                if best_starving:
                    continue
            else:
                rank = rank_of(request.thread_id, 0)
                if rank < best_rank:
                    continue
                if rank == best_rank:
                    hit = request.row == open_row
                    if hit != best_hit:
                        if best_hit:
                            continue
                    elif request.arrival >= best_arrival:
                        continue
            best = request
            best_prefetch = request.is_prefetch
            best_starving = request.arrival < horizon
            best_rank = rank_of(request.thread_id, 0)
            best_hit = request.row == open_row
            best_arrival = request.arrival
        return best
