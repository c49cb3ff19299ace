"""TCM — Thread Cluster Memory scheduling (the paper's contribution).

Every quantum the meta-controller's snapshot drives:

1. **Clustering** (Algorithm 1): the least memory-intensive threads,
   up to ``ClusterThresh`` of total bandwidth usage, form the
   latency-sensitive cluster; the rest are bandwidth-sensitive.
2. **Latency-cluster ranking**: strict, lowest (weight-scaled) MPKI
   first — light threads are always serviced promptly.
3. **Niceness** for the bandwidth cluster: ascending-BLP rank minus
   ascending-RBL rank (fragile threads are nice, hostile ones are not).
4. **Shuffling**: every ``ShuffleInterval`` cycles the bandwidth
   cluster's priority order is perturbed — by *insertion shuffle* when
   threads are heterogeneous (max ΔBLP > thresh × NumBanks and
   max ΔRBL > thresh), by *random shuffle* otherwise; both are
   synchronised across all banks and controllers.

Request prioritisation (Algorithm 3): higher-ranked thread first
(latency cluster above bandwidth cluster), then row-buffer hits, then
oldest.  OS thread weights scale MPKI in the latency cluster and select
weighted shuffling in the bandwidth cluster (paper §3.6).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import TCMParams
from repro.core.clustering import ClusteringResult, cluster_threads
from repro.core.monitor import QuantumSnapshot
from repro.core.niceness import compute_niceness
from repro.core.shuffle import (
    InsertionShuffler,
    RandomShuffler,
    RoundRobinShuffler,
    Shuffler,
    WeightedRandomShuffler,
    should_use_insertion,
)
from repro.dram.channel import Channel
from repro.dram.request import MemoryRequest
from repro.schedulers.base import Scheduler, empty_queue

_TIMER_KEY = "tcm-shuffle"


class TCMScheduler(Scheduler):
    """Thread Cluster Memory scheduler."""

    name = "TCM"
    PRIORITY_COMPONENTS = ("rank", "row_hit", "age")

    def __init__(self, params: Optional[TCMParams] = None):
        super().__init__()
        self.params = params or TCMParams()
        if self.params.shuffle_mode not in (
            "dynamic",
            "insertion",
            "random",
            "round_robin",
        ):
            raise ValueError(f"unknown shuffle mode {self.params.shuffle_mode!r}")
        if self.params.niceness_mode not in (
            "blp_minus_rbl",
            "blp_only",
            "rbl_only",
        ):
            raise ValueError(
                f"unknown niceness mode {self.params.niceness_mode!r}"
            )
        # one rank map per channel; with sync_shuffle (the paper's
        # design) every entry references the same dict
        self._ranks: List[Dict[int, int]] = []
        self._clustering: Optional[ClusteringResult] = None
        self._shufflers: List[Shuffler] = []
        self._rng: Optional[np.random.Generator] = None
        self._weights: Tuple[int, ...] = ()
        # instrumentation
        self.shuffle_algo_history: List[str] = []
        self.cluster_history: List[ClusteringResult] = []
        self.shuffles_performed = 0

    def epoch_annotations(self, thread_id: int) -> dict:
        if self._clustering is None:
            return {}
        return {
            "cluster": self._clustering.contains(thread_id),
            "rank": self.current_rank(thread_id),
        }

    def state_digest(self) -> dict:
        digest = super().state_digest()
        if self._clustering is None:
            digest["clustering"] = None
        else:
            digest["clustering"] = {
                "latency": list(self._clustering.latency_cluster),
                "bandwidth": list(self._clustering.bandwidth_cluster),
            }
        digest.update(
            ranks=[sorted(ranks.items()) for ranks in self._ranks],
            shuffle_orders=[s.order() for s in self._shufflers],
            shuffles_performed=self.shuffles_performed,
            shuffle_algo_history=list(self.shuffle_algo_history),
        )
        if self._rng is not None:
            # the shuffle RNG cursor: PCG64 state words, so two runs
            # that consumed a different number of draws digest apart
            state = self._rng.bit_generator.state
            digest["rng"] = {
                "state": state["state"]["state"],
                "inc": state["state"]["inc"],
                "has_uint32": state["has_uint32"],
                "uinteger": state["uinteger"],
            }
        return digest

    def on_attach(self) -> None:
        n = self.system.workload.num_threads
        self._weights = (
            self.params.thread_weights
            or self.system.workload.weights
            or tuple([1] * n)
        )
        if len(self._weights) != n:
            raise ValueError(
                f"{len(self._weights)} thread weights for {n} threads"
            )
        self._rng = np.random.default_rng((self.system.seed, 0x7C4))
        self._ranks = [dict() for _ in range(self.system.config.num_channels)]
        self._clustering = None
        self._shufflers = []
        self.system.schedule_timer(self.params.shuffle_interval, _TIMER_KEY)

    # ------------------------------------------------------------------
    # quantum boundary: cluster, rank, choose shuffle algorithm
    # ------------------------------------------------------------------

    def _pick_shuffler(
        self,
        bandwidth: Tuple[int, ...],
        snapshot: QuantumSnapshot,
        rng: np.random.Generator,
        record: bool,
    ) -> Shuffler:
        mode = self.params.shuffle_mode
        bw_weights = [self._weights[tid] for tid in bandwidth]
        weighted = any(w != bw_weights[0] for w in bw_weights)

        def log(name: str) -> None:
            if record:
                self.shuffle_algo_history.append(name)

        if mode == "round_robin":
            log("round_robin")
            return RoundRobinShuffler(bandwidth)
        if weighted:
            # Weighted shuffling overrides the insertion/random choice
            # so that time at the top tracks OS weights (paper §3.6).
            log("weighted_random")
            return WeightedRandomShuffler(bandwidth, bw_weights, rng)
        if mode == "random":
            log("random")
            return RandomShuffler(bandwidth, rng)
        blp = [snapshot.metrics[tid].blp for tid in bandwidth]
        rbl = [snapshot.metrics[tid].rbl for tid in bandwidth]
        use_insertion = mode == "insertion" or (
            mode == "dynamic"
            and should_use_insertion(
                blp,
                rbl,
                self.system.config.num_banks,
                self.params.shuffle_algo_thresh,
            )
        )
        if use_insertion:
            niceness = compute_niceness(
                snapshot, bandwidth, self.params.niceness_mode
            )
            log("insertion")
            return InsertionShuffler(bandwidth, niceness)
        log("random")
        return RandomShuffler(bandwidth, rng)

    def on_quantum(self, snapshot: QuantumSnapshot, now: int) -> None:
        clustering = cluster_threads(
            snapshot, self.params.cluster_thresh, self._weights
        )
        self._clustering = clustering
        self.cluster_history.append(clustering)
        bandwidth = clustering.bandwidth_cluster
        self._shufflers = []
        if bandwidth:
            if self.params.sync_shuffle:
                self._shufflers = [
                    self._pick_shuffler(bandwidth, snapshot, self._rng, True)
                ]
            else:
                # Ablation: each controller shuffles independently —
                # desynchronised ranks destroy bank-level parallelism.
                nch = self.system.config.num_channels
                for channel in range(nch):
                    rng = np.random.default_rng(
                        (self.system.seed, 0x7C4, channel)
                    )
                    shuffler = self._pick_shuffler(
                        bandwidth, snapshot, rng, channel == 0
                    )
                    for _ in range(channel):  # desync deterministic modes
                        shuffler.advance()
                    self._shufflers.append(shuffler)
        self._rebuild_ranks()
        self.trace(
            "cluster", now,
            quantum=snapshot.quantum_index,
            latency=list(clustering.latency_cluster),
            bandwidth=list(clustering.bandwidth_cluster),
        )

    def _rebuild_ranks(self) -> None:
        """Per-channel rank maps: latency cluster strictly above bandwidth."""
        if self._clustering is None:
            return
        latency = self._clustering.latency_cluster
        n_bw = len(self._clustering.bandwidth_cluster)
        nch = self.system.config.num_channels

        def build(shuffler: Optional[Shuffler]) -> Dict[int, int]:
            rank: Dict[int, int] = {}
            if shuffler is not None:
                # shuffler order: last element = highest within cluster
                for pos, tid in enumerate(shuffler.order()):
                    rank[tid] = pos
            # latency cluster is ordered most-prioritised first
            for pos, tid in enumerate(latency):
                rank[tid] = n_bw + (len(latency) - pos)
            return rank

        if not self._shufflers:
            shared = build(None)
            self._ranks = [shared] * nch
        elif self.params.sync_shuffle:
            shared = build(self._shufflers[0])
            self._ranks = [shared] * nch
        else:
            self._ranks = [build(s) for s in self._shufflers]

    # ------------------------------------------------------------------
    # shuffling timer
    # ------------------------------------------------------------------

    def on_timer(self, now: int, key: str) -> None:
        if key != _TIMER_KEY:
            return
        if self._shufflers:
            for shuffler in self._shufflers:
                shuffler.advance()
            self._rebuild_ranks()
            self.shuffles_performed += 1
            self.trace(
                "shuffle", now,
                algo=(self.shuffle_algo_history[-1]
                      if self.shuffle_algo_history else "none"),
                order=list(self._shufflers[0].order()),
            )
        self.system.schedule_timer(now + self.params.shuffle_interval, _TIMER_KEY)

    # ------------------------------------------------------------------
    # Algorithm 3: request prioritisation
    # ------------------------------------------------------------------

    def priority(
        self, request: MemoryRequest, row_hit: bool, now: int
    ) -> Tuple:
        if self._ranks:
            rank = self._ranks[request.channel_id].get(request.thread_id, 0)
        else:
            rank = 0
        return (rank, row_hit, -request.arrival)

    def select(
        self, channel: Channel, bank_id: int, now: int
    ) -> MemoryRequest:
        # ``priority``'s slots compared in place, one pass: the first
        # request in queue order maximising (demand, rank, row hit,
        # -arrival), exactly as the base scan picks.  A channel's
        # queues hold only its own requests, so the channel's rank map
        # is each candidate's.
        queue = channel.queues[bank_id]
        if not queue:
            raise empty_queue(channel, bank_id)
        best = queue[0]
        if len(queue) == 1:
            return best
        open_row = channel.banks[bank_id].open_row
        rank_of = (
            self._ranks[channel.channel_id] if self._ranks else {}
        ).get
        best_prefetch = best.is_prefetch
        best_rank = rank_of(best.thread_id, 0)
        best_hit = best.row == open_row
        best_arrival = best.arrival
        for request in queue:
            # skip unless strictly above the best so far, slot by slot
            rank = rank_of(request.thread_id, 0)
            if request.is_prefetch != best_prefetch:
                if not best_prefetch:
                    continue
            elif rank < best_rank:
                continue
            elif rank == best_rank:
                hit = request.row == open_row
                if hit != best_hit:
                    if best_hit:
                        continue
                elif request.arrival >= best_arrival:
                    continue
            best = request
            best_prefetch = request.is_prefetch
            best_rank = rank
            best_hit = request.row == open_row
            best_arrival = request.arrival
        return best

    def demand_keys(
        self, channel: Channel, bank_id: int, now: int
    ) -> List[Tuple]:
        # ``priority``'s slots built in place, one pass over the queue;
        # the channel's rank map is each candidate's, as in ``select``
        open_row = channel.banks[bank_id].open_row
        rank_of = (
            self._ranks[channel.channel_id] if self._ranks else {}
        ).get
        keys = []
        append = keys.append
        for request in channel.queues[bank_id]:
            append((not request.is_prefetch, rank_of(request.thread_id, 0),
                    request.row == open_row, -request.arrival))
        return keys

    def explain_components(
        self, request: MemoryRequest, row_hit: bool, now: int, key=None
    ) -> dict:
        components = super().explain_components(
            request, row_hit, now, key
        )
        if self._clustering is not None:
            components["cluster"] = self._clustering.contains(
                request.thread_id
            )
        return components

    # ------------------------------------------------------------------
    # introspection helpers (used by tests and benches)
    # ------------------------------------------------------------------

    @property
    def clustering(self) -> Optional[ClusteringResult]:
        """Most recent clustering decision."""
        return self._clustering

    @property
    def _shuffler(self) -> Optional[Shuffler]:
        """The global shuffler (sync mode), if any."""
        return self._shufflers[0] if self._shufflers else None

    def current_rank(self, thread_id: int, channel: int = 0) -> int:
        """Current rank of a thread (larger = higher priority)."""
        if not self._ranks:
            return 0
        return self._ranks[channel].get(thread_id, 0)
