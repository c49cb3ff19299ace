"""Shadow policies: full scheduler instances riding along a run.

A shadow is a real registry scheduler attached to a
:class:`ShadowSystemView` — a restricted proxy of the live system that
forwards everything a policy is allowed to read (workload, config,
seed, channels, monitor, prefetchers) while cutting everything a
policy could perturb: tracer emission and timers (rerouted through
tuple payloads so the explain layer can dispatch them to the right
shadow).

Shadows are fed the *actual* run's arrivals, grants, completions,
quantum snapshots and timer ticks — their internal state evolves
exactly as if they were the primary policy watching this run — and are
asked at every grant which request *they* would have picked.  A shadow
of the same policy as the primary therefore agrees with 100% of grants
(the self-shadow identity the test suite pins); a different policy's
disagreements are the counterfactual signal.

PAR-BS needs special casing: its batch formation marks real request
objects, which would leak shadow state into the primary's decisions.
:class:`ShadowPARBS` keeps the marks in a private ``request_id`` set
instead, leaving the shared requests untouched.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

from repro.dram.request import MemoryRequest
from repro.schedulers.base import Scheduler
from repro.schedulers.parbs import PARBSScheduler
from repro.schedulers.registry import make_scheduler


class ShadowSystemView:
    """What a shadow scheduler is allowed to see of the live system.

    Attribute surface is deliberately explicit (no blanket
    ``__getattr__``): a policy reading something not listed here fails
    loudly instead of silently coupling shadows to the primary run.
    """

    __slots__ = ("_system", "_index")

    #: shadows never emit tracer events (``Scheduler.trace`` reads this)
    _tracer = None

    def __init__(self, system, index: int):
        self._system = system
        self._index = index

    @property
    def workload(self):
        return self._system.workload

    @property
    def config(self):
        return self._system.config

    @property
    def seed(self):
        return self._system.seed

    @property
    def channels(self):
        return self._system.channels

    @property
    def monitor(self):
        return self._system.monitor

    @property
    def prefetchers(self):
        return self._system.prefetchers

    @property
    def now(self):
        return self._system.now

    def schedule_timer(self, time: int, key: str) -> None:
        """Shadow timers ride the real event queue, payload-tagged.

        The tuple payload routes the firing to this shadow's
        ``on_timer`` (via :meth:`ExplainCollector.on_timer`) at exactly
        the position a primary timer would occupy,
        so shadow state updates stay ordered identically relative to
        same-cycle grants.
        """
        self._system.schedule_timer(time, (self._index, key))


class ShadowPARBS(PARBSScheduler):
    """PAR-BS whose batch marks live in a side set, not on requests."""

    #: PAR-BS's one-pass ``select`` reads ``request.marked``, the
    #: primary's marks; this ``priority`` reads the side set, so the
    #: shadow keeps the base scan over it.
    select = Scheduler.select

    def __init__(self, params=None):
        super().__init__(params)
        self._shadow_marked: Set[int] = set()

    def _form_batch(self) -> None:
        # Parent's walk, with ``request.marked = True`` replaced by the
        # side set — shared request objects stay untouched.
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
                self._shadow_marked.add(request.request_id)
            if chosen:
                marked_counts[tid][(ch, bank)] = len(chosen)
                total_marked += len(chosen)
        self._marked_remaining = total_marked
        if total_marked:
            self.batches_formed += 1
        self._compute_ranking(marked_counts)

    def on_request_scheduled(
        self,
        request: MemoryRequest,
        waiting: List[MemoryRequest],
        busy_cycles: int,
        now: int,
    ) -> None:
        if request.request_id in self._shadow_marked:
            self._shadow_marked.discard(request.request_id)
            self._marked_remaining -= 1
            if self._marked_remaining == 0:
                self._form_batch()

    def priority(
        self, request: MemoryRequest, row_hit: bool, now: int
    ) -> Tuple:
        return (
            request.request_id in self._shadow_marked,
            row_hit,
            self._rank.get(request.thread_id, 0),
            -request.arrival,
        )


class ShadowPolicy:
    """A shadow scheduler plus its per-run counterfactual aggregates."""

    __slots__ = (
        "label", "key", "scheduler", "view",
        "agreed", "granted", "redirected_to", "redirected_from",
    )

    def __init__(self, label: str, key: str, scheduler: Scheduler,
                 view: ShadowSystemView, num_threads: int):
        self.label = label
        self.key = key
        self.scheduler = scheduler
        self.view = view
        #: grants where this shadow picked the actual winner
        self.agreed = 0
        #: per-thread would-have-been-granted counts
        self.granted = [0] * num_threads
        #: on disagreements: per-thread counts of the *actual* winner
        #: (the threads the primary redirects bandwidth to)
        self.redirected_to = [0] * num_threads
        #: on disagreements: per-thread counts of the shadow's choice
        #: (the threads this policy would have served instead)
        self.redirected_from = [0] * num_threads


def canonical_policy_key(name: str) -> str:
    """The registry's canonical key for a scheduler name."""
    return name.lower().replace("-", "").replace("_", "")


def make_shadow(system, spec, index: int) -> ShadowPolicy:
    """Build and attach one shadow from ``spec``.

    ``spec`` is a scheduler name (``"frfcfs"``) or a ``(name, params)``
    pair — params typed exactly as :func:`~repro.schedulers.registry.\
    make_scheduler` requires, so a self-shadow can mirror the primary's
    parameterisation.
    """
    if isinstance(spec, tuple):
        name, params = spec
    else:
        name, params = spec, None
    scheduler = make_scheduler(name, params)
    if isinstance(scheduler, PARBSScheduler):
        scheduler = ShadowPARBS(params) if params is not None else ShadowPARBS()
    key = canonical_policy_key(name)
    view = ShadowSystemView(system, index)
    scheduler.attach(view)
    return ShadowPolicy(
        f"shadow:{key}", key, scheduler, view,
        system.workload.num_threads,
    )
