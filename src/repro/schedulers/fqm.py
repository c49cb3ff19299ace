"""FQM — Fair Queueing Memory scheduler (Nesbit et al. [16]).

The paper's related work: an adaptation of network fair queueing to
memory controllers.  Each thread owns a *virtual time* that advances by
the service it receives scaled by the number of sharers (i.e. by the
inverse of its 1/N bandwidth share); the scheduler always services the
request of the thread with the smallest virtual time, guaranteeing each
thread its proportional share of memory bandwidth.

Idle threads must not bank credit: on its first request after idling, a
thread's virtual time is brought forward to the minimum virtual time of
the active threads.

The paper characterises fair-queueing schedulers as fairness-oriented
with modest system throughput — FQM is included here as an additional
baseline for that comparison (it is not part of the paper's evaluated
five).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.dram.request import MemoryRequest
from repro.schedulers.base import Scheduler


@dataclass(frozen=True)
class FQMParams:
    """FQM parameters.

    ``weights`` are optional proportional-share weights (defaults to
    equal shares).
    """

    weights: Optional[Tuple[int, ...]] = None


class FQMScheduler(Scheduler):
    """Fair queueing: earliest virtual time first."""

    name = "FQM"
    PRIORITY_COMPONENTS = ("neg_virtual_time", "row_hit", "age")

    def __init__(self, params: Optional[FQMParams] = None):
        super().__init__()
        self.params = params or FQMParams()
        self._virtual_time: List[float] = []
        self._weights: Tuple[int, ...] = ()
        self._active: List[int] = []   # outstanding request count per thread

    def on_attach(self) -> None:
        n = self.system.workload.num_threads
        self._weights = (
            self.params.weights
            or self.system.workload.weights
            or tuple([1] * n)
        )
        if len(self._weights) != n:
            raise ValueError(f"{len(self._weights)} weights for {n} threads")
        self._virtual_time = [0.0] * n
        self._active = [0] * n

    # ------------------------------------------------------------------

    def state_digest(self) -> dict:
        digest = super().state_digest()
        digest.update(
            virtual_time=list(self._virtual_time),
            active=list(self._active),
        )
        return digest

    def _min_active_vt(self) -> float:
        active = [
            self._virtual_time[t]
            for t in range(len(self._active))
            if self._active[t] > 0
        ]
        return min(active) if active else 0.0

    def on_request_arrival(self, request: MemoryRequest, now: int) -> None:
        tid = request.thread_id
        if self._active[tid] == 0:
            # returning from idle: no banked credit
            self._virtual_time[tid] = max(
                self._virtual_time[tid], self._min_active_vt()
            )
        self._active[tid] += 1

    def on_request_scheduled(
        self,
        request: MemoryRequest,
        waiting: List[MemoryRequest],
        busy_cycles: int,
        now: int,
    ) -> None:
        tid = request.thread_id
        n = len(self._virtual_time)
        # service charged at the inverse of the thread's share
        share = self._weights[tid] / sum(self._weights)
        self._virtual_time[tid] += busy_cycles / (share * n)

    def on_request_complete(self, request: MemoryRequest, now: int) -> None:
        self._active[request.thread_id] -= 1

    # ------------------------------------------------------------------

    def explain_components(
        self, request: MemoryRequest, row_hit: bool, now: int, key=None
    ) -> dict:
        components = super().explain_components(
            request, row_hit, now, key
        )
        components["virtual_time"] = self._virtual_time[request.thread_id]
        return components

    def priority(
        self, request: MemoryRequest, row_hit: bool, now: int
    ) -> Tuple:
        return (
            -self._virtual_time[request.thread_id],
            row_hit,
            -request.arrival,
        )
