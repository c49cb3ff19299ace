"""PAR-BS — Parallelism-Aware Batch Scheduling (Mutlu & Moscibroda [14]).

PAR-BS groups outstanding requests into *batches*: when the current
batch drains, up to ``BatchCap`` oldest requests per thread per bank
are marked.  Marked requests are strictly prioritised over unmarked
ones (bounding any thread's wait — the fairness mechanism).  Within a
batch, threads are ranked by the *max-total* (shortest-job-first) rule:
threads whose maximum per-bank marked-request count is smallest are
ranked highest, preserving their bank-level parallelism.

Batching is performed across all controllers at once (the synchronised
variant the paper's observations favour: "scheduling decisions are made
in a synchronized manner across all banks").
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.config import PARBSParams
from repro.dram.channel import Channel
from repro.dram.request import MemoryRequest
from repro.schedulers.base import Scheduler, empty_queue


class PARBSScheduler(Scheduler):
    """Batch scheduler: marked-first, row-hit, rank, oldest."""

    name = "PAR-BS"
    PRIORITY_COMPONENTS = ("marked", "row_hit", "rank", "age")

    def __init__(self, params: Optional[PARBSParams] = None):
        super().__init__()
        self.params = params or PARBSParams()
        self._marked_remaining = 0
        self._rank: Dict[int, int] = {}
        self.batches_formed = 0

    def epoch_annotations(self, thread_id: int) -> dict:
        if not self._rank:
            return {}
        return {"rank": self._rank.get(thread_id, 0)}

    def state_digest(self) -> dict:
        digest = super().state_digest()
        digest.update(
            marked_remaining=self._marked_remaining,
            rank=sorted(self._rank.items()),
            batches_formed=self.batches_formed,
        )
        return digest

    # ------------------------------------------------------------------
    # batch formation
    # ------------------------------------------------------------------

    def _form_batch(self) -> None:
        """Mark up to BatchCap oldest requests per thread per bank."""
        cap = self.params.batch_cap
        per_thread_bank: Dict[Tuple[int, int, int], List[MemoryRequest]]
        per_thread_bank = defaultdict(list)
        for channel in self.system.channels:
            for bank_id, queue in enumerate(channel.queues):
                for request in queue:
                    key = (request.thread_id, channel.channel_id, bank_id)
                    per_thread_bank[key].append(request)
        marked_counts: Dict[int, Dict[Tuple[int, int], int]] = defaultdict(dict)
        total_marked = 0
        for (tid, ch, bank), requests in per_thread_bank.items():
            requests.sort(key=lambda r: r.arrival)
            chosen = requests[:cap]
            for request in chosen:
                request.marked = True
            if chosen:
                marked_counts[tid][(ch, bank)] = len(chosen)
                total_marked += len(chosen)
        self._marked_remaining = total_marked
        if total_marked:
            self.batches_formed += 1
            self.trace("batch", getattr(self.system, "now", 0),
                       marked=total_marked)
        self._compute_ranking(marked_counts)

    def _compute_ranking(
        self, marked_counts: Dict[int, Dict[Tuple[int, int], int]]
    ) -> None:
        """Max-total rule: fewer max-per-bank marked requests ranks higher."""
        n = self.system.workload.num_threads
        def load(tid: int) -> Tuple[int, int]:
            counts = marked_counts.get(tid, {})
            max_load = max(counts.values()) if counts else 0
            total = sum(counts.values())
            return (max_load, total)
        order = sorted(range(n), key=lambda tid: (load(tid), tid))
        # rank: higher value = higher priority; lightest thread first
        self._rank = {tid: n - pos for pos, tid in enumerate(order)}

    # ------------------------------------------------------------------
    # event hooks
    # ------------------------------------------------------------------

    def on_request_arrival(self, request: MemoryRequest, now: int) -> None:
        if self._marked_remaining == 0:
            self._form_batch()

    def on_request_scheduled(
        self,
        request: MemoryRequest,
        waiting: List[MemoryRequest],
        busy_cycles: int,
        now: int,
    ) -> None:
        if request.marked:
            self._marked_remaining -= 1
            if self._marked_remaining == 0:
                self._form_batch()

    # ------------------------------------------------------------------

    def priority(
        self, request: MemoryRequest, row_hit: bool, now: int
    ) -> Tuple:
        return (
            request.marked,
            row_hit,
            self._rank.get(request.thread_id, 0),
            -request.arrival,
        )

    def select(
        self, channel: Channel, bank_id: int, now: int
    ) -> MemoryRequest:
        # ``priority``'s slots compared in place, one pass: the first
        # request in queue order maximising (demand, marked, row hit,
        # rank, -arrival), exactly as the base scan picks.
        queue = channel.queues[bank_id]
        if not queue:
            raise empty_queue(channel, bank_id)
        best = queue[0]
        if len(queue) == 1:
            return best
        open_row = channel.banks[bank_id].open_row
        rank_of = self._rank.get
        best_prefetch = best.is_prefetch
        best_marked = best.marked
        best_hit = best.row == open_row
        best_rank = rank_of(best.thread_id, 0)
        best_arrival = best.arrival
        for request in queue:
            # skip unless strictly above the best so far, slot by slot
            if request.is_prefetch != best_prefetch:
                if not best_prefetch:
                    continue
            elif request.marked != best_marked:
                if best_marked:
                    continue
            elif (request.row == open_row) != best_hit:
                if best_hit:
                    continue
            else:
                rank = rank_of(request.thread_id, 0)
                if rank < best_rank or (
                    rank == best_rank and request.arrival >= best_arrival
                ):
                    continue
            best = request
            best_prefetch = request.is_prefetch
            best_marked = request.marked
            best_hit = request.row == open_row
            best_rank = rank_of(request.thread_id, 0)
            best_arrival = request.arrival
        return best
