"""Decision records: what a grant's candidate set looked like and why
the winner won.

:class:`repro.explain.ExplainCollector` captures every scheduler grant
at the observer protocol's ``on_decision`` hook, *before* the bank
starts service, while the candidate queue is still intact, and builds
its :class:`DecisionRecord` when the record is first read.  Each
candidate carries the full priority key the primary policy assigned it
(the demand-over-prefetch class bit followed by the policy's
``priority`` tuple) plus the named decomposition of that tuple against
the policy's ``PRIORITY_COMPONENTS`` vocabulary.  Richer per-policy
detail (ATLAS attained service, STFM slowdown estimates, TCM cluster
membership) is available on demand via
:meth:`repro.schedulers.base.Scheduler.explain_components`.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

#: Component name for the leading demand-over-prefetch class bit that
#: ``select`` prepends to every policy's priority tuple.
CLASS_BIT = "demand"

#: Tie-break provenance values (see :attr:`DecisionRecord.tie_break`).
TIE_PRIORITY = "priority"        # unique maximal key
TIE_QUEUE_ORDER = "queue-order"  # >= 2 maximal keys; first in queue won
TIE_ONLY = "only-candidate"      # queue held a single request


class CandidateRecord(NamedTuple):
    """One queued request as the primary policy scored it.

    A ``NamedTuple``, and the named decomposition a lazy property over
    the stored key: a read of the collector's records builds one for
    every candidate of every kept grant.
    """

    request_id: int
    thread_id: int
    arrival: int
    row: int
    row_hit: bool
    is_prefetch: bool
    #: class bit + the policy's priority tuple, as compared by ``select``
    key: Tuple
    #: names for the policy-tuple slots (``key[1:]``), in order
    component_names: Tuple[str, ...]

    @property
    def components(self) -> Dict[str, object]:
        """Named decomposition of the priority tuple (policy vocabulary)."""
        return dict(zip(self.component_names, self.key[1:]))


class Margin(NamedTuple):
    """How far the winner's key beat the runner-up's.

    ``component`` is the name of the first key slot where the two
    differ (``None`` for an exact tie, resolved by queue order) and
    ``delta`` the numeric difference at that slot.
    """

    component: Optional[str]
    delta: float
    runner_up_request_id: int
    runner_up_thread_id: int


class DecisionRecord(NamedTuple):
    """One grant: candidates, winner, margin, tie-break provenance.

    A ``NamedTuple`` (frozen-dataclass construction pays a guarded
    ``__setattr__`` per field), built when the collector's records are
    read.
    """

    index: int          # 0-based grant counter (== sched_decisions - 1)
    now: int
    channel_id: int
    bank_id: int
    winner_request_id: int
    winner_thread_id: int
    tie_break: str      # TIE_PRIORITY | TIE_QUEUE_ORDER | TIE_ONLY
    tied: int           # candidates sharing the maximal key
    margin: Optional[Margin]
    candidates: Tuple[CandidateRecord, ...]
    #: per-shadow selection: label -> (request_id, thread_id)
    shadow_choices: Dict[str, Tuple[int, int]]


def margin_of(
    winner_key: Tuple, runner_key: Tuple, component_names: Tuple[str, ...]
) -> Tuple[Optional[str], float]:
    """First differing slot (named) and numeric delta between two keys.

    ``component_names`` are the policy's :data:`PRIORITY_COMPONENTS`;
    slot 0 of the keys is the :data:`CLASS_BIT`.
    """
    for slot, (w, r) in enumerate(zip(winner_key, runner_key)):
        if w != r:
            if slot == 0:
                name = CLASS_BIT
            elif slot - 1 < len(component_names):
                name = component_names[slot - 1]
            else:
                name = f"slot{slot - 1}"
            return name, float(w) - float(r)
    return None, 0.0


def record_structure(record: DecisionRecord) -> tuple:
    """Run-comparable shape of a record.

    Everything except ``request_id``s (the id counter is process-global,
    so two runs in one process allocate different ids for the same
    simulated requests).  Candidate order is queue order.
    """
    return (
        record.index,
        record.now,
        record.channel_id,
        record.bank_id,
        record.winner_thread_id,
        record.tie_break,
        record.tied,
        (record.margin.component, record.margin.delta,
         record.margin.runner_up_thread_id) if record.margin else None,
        tuple(
            (c.thread_id, c.arrival, c.row, c.row_hit, c.is_prefetch,
             c.key, tuple(sorted(c.components.items())))
            for c in record.candidates
        ),
        tuple(sorted(
            (label, tid) for label, (_rid, tid)
            in record.shadow_choices.items()
        )),
    )
