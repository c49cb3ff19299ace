"""STFM — Stall-Time Fair Memory scheduling (Mutlu & Moscibroda [13]).

STFM estimates each thread's memory slowdown — the ratio of its memory
stall time when sharing the system to an estimate of its stall time had
it run alone — and, whenever the ratio between the most- and
least-slowed threads exceeds ``FairnessThreshold``, prioritises the
most-slowed thread; otherwise it behaves like FR-FCFS.

Alone stall time is estimated by interference accounting: whenever a
request is serviced, every other thread's requests waiting at that bank
are being delayed by the service duration; those cycles are what the
thread would *not* have waited alone and are subtracted from its shared
memory time.

The policy keeps these books itself (``_t_shared`` and
``_t_interference``).  :mod:`repro.obs.spans` applies the same
grant-time rule to every scheduler, and
:func:`repro.obs.attribution.reconcile` checks that the two books agree
exactly on STFM runs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config import STFMParams
from repro.dram.channel import Channel
from repro.dram.request import MemoryRequest
from repro.schedulers.base import Scheduler, empty_queue

#: Minimum accumulated shared memory cycles before a thread's slowdown
#: estimate is considered meaningful.
_MIN_SHARED_CYCLES = 1000


class STFMScheduler(Scheduler):
    """Stall-time fair scheduler with heuristic slowdown estimation."""

    name = "STFM"
    PRIORITY_COMPONENTS = ("is_victim", "row_hit", "age")

    def __init__(self, params: Optional[STFMParams] = None):
        super().__init__()
        self.params = params or STFMParams()
        self._t_shared: List[int] = []
        self._t_interference: List[int] = []
        self._victim: Optional[int] = None
        self._next_eval = 0
        self.evaluations = 0
        self.last_unfairness = 1.0

    def state_digest(self) -> dict:
        digest = super().state_digest()
        digest.update(
            t_shared=list(self._t_shared),
            t_interference=list(self._t_interference),
            victim=self._victim,
            next_eval=self._next_eval,
            evaluations=self.evaluations,
            last_unfairness=self.last_unfairness,
        )
        return digest

    def on_attach(self) -> None:
        n = self.system.workload.num_threads
        self._t_shared = [0] * n
        self._t_interference = [0] * n
        self._victim = None
        self._next_eval = self.params.interval_length

    # ------------------------------------------------------------------
    # interference accounting
    # ------------------------------------------------------------------

    def on_request_scheduled(
        self,
        request: MemoryRequest,
        waiting: List[MemoryRequest],
        busy_cycles: int,
        now: int,
    ) -> None:
        # grant-time rule: the service delays every other thread's
        # request still waiting at this bank
        for other in waiting:
            if other.thread_id != request.thread_id:
                self._t_interference[other.thread_id] += busy_cycles

    def on_request_complete(self, request: MemoryRequest, now: int) -> None:
        self._t_shared[request.thread_id] += now - request.arrival
        if now >= self._next_eval:
            self._reevaluate(now)
            self._next_eval = now + self.params.interval_length

    # ------------------------------------------------------------------
    # slowdown estimation
    # ------------------------------------------------------------------

    def slowdown_estimate(self, tid: int) -> float:
        """Estimated memory slowdown of thread ``tid`` (>= 1.0)."""
        shared = self._t_shared[tid]
        if shared < _MIN_SHARED_CYCLES:
            return 1.0
        alone = max(1, shared - self._t_interference[tid])
        return shared / alone

    def _reevaluate(self, now: int = 0) -> None:
        n = len(self._t_shared)
        slowdowns = [self.slowdown_estimate(t) for t in range(n)]
        s_max = max(slowdowns)
        s_min = min(s for s in slowdowns if s >= 1.0)
        if s_min > 0 and s_max / s_min > self.params.fairness_threshold:
            self._victim = slowdowns.index(s_max)
        else:
            self._victim = None
        self.evaluations += 1
        self.last_unfairness = s_max / s_min if s_min > 0 else 1.0
        self.trace("stfm_eval", now, unfairness=self.last_unfairness)

    # ------------------------------------------------------------------

    def explain_components(
        self, request: MemoryRequest, row_hit: bool, now: int, key=None
    ) -> dict:
        components = super().explain_components(
            request, row_hit, now, key
        )
        components["slowdown"] = self.slowdown_estimate(request.thread_id)
        components["unfairness"] = self.last_unfairness
        return components

    def priority(
        self, request: MemoryRequest, row_hit: bool, now: int
    ) -> Tuple:
        is_victim = self._victim is not None and request.thread_id == self._victim
        return (is_victim, row_hit, -request.arrival)

    def select(
        self, channel: Channel, bank_id: int, now: int
    ) -> MemoryRequest:
        # ``priority``'s slots compared in place, one pass: the first
        # request in queue order maximising (demand, is_victim, row hit,
        # -arrival), exactly as the base scan picks.  With no victim no
        # thread id equals ``None``, so the victim slot never decides.
        queue = channel.queues[bank_id]
        if not queue:
            raise empty_queue(channel, bank_id)
        best = queue[0]
        if len(queue) == 1:
            return best
        open_row = channel.banks[bank_id].open_row
        victim = self._victim
        best_prefetch = best.is_prefetch
        best_victim = best.thread_id == victim
        best_hit = best.row == open_row
        best_arrival = best.arrival
        for request in queue:
            # skip unless strictly above the best so far, slot by slot
            if request.is_prefetch != best_prefetch:
                if not best_prefetch:
                    continue
            elif (request.thread_id == victim) != best_victim:
                if best_victim:
                    continue
            elif (request.row == open_row) != best_hit:
                if best_hit:
                    continue
            elif request.arrival >= best_arrival:
                continue
            best = request
            best_prefetch = request.is_prefetch
            best_victim = request.thread_id == victim
            best_hit = request.row == open_row
            best_arrival = request.arrival
        return best
