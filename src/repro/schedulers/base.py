"""Scheduler interface.

A scheduler is one global object (conceptually: the policy logic
replicated in every controller plus the meta-controller that keeps them
consistent).  The simulation system calls its hooks:

* ``on_request_arrival`` / ``on_request_scheduled`` /
  ``on_request_complete`` — per-request lifecycle events;
* ``on_quantum`` — end-of-quantum statistics from the meta-controller;
* ``on_timer`` — self-scheduled periodic callbacks (e.g. shuffling);
* ``select`` — pick the next request to service at a free bank.

``priority`` is each policy's contract: larger tuples win, and request
age is the usual last component.  ``demand_keys`` scores a whole bank
queue: each request's ``(demand, *priority)`` key, in queue order.  The
base ``demand_keys`` is built on ``priority`` and is the one definition
of that key; the base ``select`` is the reference scan, its first
maximum, so most algorithms only implement ``priority``.  The
evaluated policies (FCFS, FR-FCFS, TCM, ATLAS, PAR-BS, STFM) override
``select`` with one pass that compares the same slots in place and
returns the reference scan's first maximum: an override computes the
same answer faster and never changes the policy, and the invariant
oracle audits every grant against the base ``demand_keys``.  TCM, the
policy explain watches in the benchmarks, also builds its
``demand_keys`` in place.
A subclass that overrides ``priority`` keeps the reference scan
(``select = Scheduler.select``, as
:class:`repro.explain.shadow.ShadowPARBS` does).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.monitor import QuantumSnapshot
from repro.dram.channel import Channel
from repro.dram.request import MemoryRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.system import System


def empty_queue(channel: Channel, bank_id: int) -> RuntimeError:
    """The error every ``select`` raises on an empty bank queue."""
    return RuntimeError(
        f"select() on empty queue ch{channel.channel_id}/b{bank_id}"
    )


class Scheduler:
    """Base memory scheduler; concrete policies override ``priority``."""

    #: short identifier used in registries and reports
    name = "base"

    #: Names for the slots of the ``priority`` tuple, in order — the
    #: vocabulary :mod:`repro.explain` uses to decompose a decision
    #: into per-policy components ("rank", "row_hit", "age", ...).
    #: Must have exactly one name per tuple slot.
    PRIORITY_COMPONENTS: Tuple[str, ...] = ()

    def __init__(self):
        self.system: Optional["System"] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def attach(self, system: "System") -> None:
        """Bind the scheduler to a simulation system before the run."""
        self.system = system
        self.on_attach()

    def on_attach(self) -> None:
        """Hook for subclass initialisation after ``system`` is set."""

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def trace(self, ev: str, now: int, **fields) -> None:
        """Emit a tracer event if the bound system is tracing.

        Costs one branch when tracing is disabled; safe to call from
        any policy hook.
        """
        tracer = getattr(self.system, "_tracer", None)
        if tracer is not None:
            tracer.emit(ev, now, **fields)

    def explain_components(
        self, request: MemoryRequest, row_hit: bool, now: int, key=None
    ) -> dict:
        """Named decomposition of ``priority(request, row_hit, now)``.

        Consumed by :mod:`repro.explain` to label each candidate's
        priority tuple in decision records.  The base implementation
        zips :data:`PRIORITY_COMPONENTS` against the tuple; policies
        with richer internal state (TCM cluster membership, ATLAS
        attained service, STFM slowdown estimates) override this —
        extending ``super()``'s dict — with the quantities behind the
        slots.  ``key`` lets a caller that already evaluated the
        priority tuple skip re-evaluating it (``priority`` is pure, so
        the result is the same either way).  Must be side-effect-free
        and JSON-able; nothing here runs unless explain is attached.
        """
        if key is None:
            key = self.priority(request, row_hit, now)
        names = self.PRIORITY_COMPONENTS
        if len(names) != len(key):
            names = tuple(f"slot{i}" for i in range(len(key)))
        return {
            name: (int(value) if isinstance(value, bool) else value)
            for name, value in zip(names, key)
        }

    def epoch_annotations(self, thread_id: int) -> dict:
        """Policy state the epoch sampler attaches to a thread's row.

        Ranking schedulers return e.g. ``{"cluster": ..., "rank": ...}``;
        the base scheduler annotates nothing.
        """
        return {}

    def state_digest(self) -> dict:
        """Canonical JSON-able snapshot of the policy's decision state.

        Consumed by the divergence probe (:mod:`repro.diverge`): two
        runs whose digests agree at a checkpoint hold identical policy
        state, so any later drift originated elsewhere.  Stateful
        policies override this — extending ``super()``'s dict — with
        exactly the fields their ``priority``/``select``/hooks read
        (ranks, clusters, virtual times, shuffle cursors, policy RNG
        state).  Stateless policies (FCFS, FR-FCFS) inherit the base
        digest: the policy identity alone.  Values must round-trip
        through JSON unchanged (ints, floats, strings, lists).
        """
        return {"policy": self.name}

    # ------------------------------------------------------------------
    # event hooks
    # ------------------------------------------------------------------

    def on_quantum(self, snapshot: QuantumSnapshot, now: int) -> None:
        """End-of-quantum statistics are available; recompute policy."""

    def on_timer(self, now: int, key: str) -> None:
        """A self-scheduled timer (see ``System.schedule_timer``) fired."""

    def on_request_arrival(self, request: MemoryRequest, now: int) -> None:
        """A request entered a controller queue."""

    def on_request_scheduled(
        self,
        request: MemoryRequest,
        waiting: List[MemoryRequest],
        busy_cycles: int,
        now: int,
    ) -> None:
        """``request`` began service; ``waiting`` still queue at its bank."""

    def on_request_complete(self, request: MemoryRequest, now: int) -> None:
        """``request`` returned data to the core."""

    # ------------------------------------------------------------------
    # the scheduling decision
    # ------------------------------------------------------------------

    def priority(
        self, request: MemoryRequest, row_hit: bool, now: int
    ) -> Tuple:
        """Priority tuple for ``request``; larger wins.

        ``row_hit`` is whether ``request`` addresses its bank's open
        row.  Must be pure: the same request, row state and ``now``
        give the same tuple, so a caller may re-evaluate it (explain,
        the invariant oracle) and get the key ``select`` compared.
        """
        raise NotImplementedError

    def demand_keys(
        self, channel: Channel, bank_id: int, now: int
    ) -> List[Tuple]:
        """The ``(demand, *priority)`` key of every request in the bank
        queue, in queue order.

        ``demand`` is ``not request.is_prefetch``: demand requests are
        always preferred over prefetches (the baseline prefetch policy
        of [6]); within each class the ``priority`` tuple decides.  This
        base version is the definition of the key: the reference scan
        (:meth:`select`) grants its first maximum, and the invariant
        oracle audits every grant against it, calling it as
        ``Scheduler.demand_keys`` so that an override cannot vouch for
        itself.  An override builds the same tuples, slot for slot and
        type for type, in one call: :mod:`repro.explain` scores each
        grant's candidates with it.
        """
        open_row = channel.banks[bank_id].open_row
        priority = self.priority
        # a plain loop, not a comprehension: no frame of its own
        keys = []
        append = keys.append
        for request in channel.queues[bank_id]:
            append((not request.is_prefetch,)
                   + priority(request, request.row == open_row, now))
        return keys

    def select(
        self, channel: Channel, bank_id: int, now: int
    ) -> MemoryRequest:
        """Choose the next request to service at a free bank.

        This is the reference scan: the first request in queue order
        whose key in the base :meth:`demand_keys` is maximal.  A
        policy's one-pass override must return exactly this request.
        """
        queue = channel.queues[bank_id]
        if not queue:
            raise empty_queue(channel, bank_id)
        # a single candidate needs no scoring (``priority`` is pure)
        if len(queue) == 1:
            return queue[0]
        keys = Scheduler.demand_keys(self, channel, bank_id, now)
        return queue[keys.index(max(keys))]
