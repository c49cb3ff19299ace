"""StateProbe — canonical fingerprints of live simulation state.

The goldens pin runs bit-identical at the *end* of a run; this module
makes the same claim checkable at any cycle in the middle.  A
:class:`StateProbe` attached to a
:class:`~repro.sim.system.System` can, at any checkpoint, produce a
**canonical snapshot** of every component that feeds future scheduling
decisions, and hash each component into a short fingerprint:

``events``
    The pending-event multiset in dispatch order: the heap sorted by
    ``(time, seq)`` (sequence numbers are dropped; order is kept).
``dram``
    Per-bank row-buffer state (open row, owner, busy-until, service
    counters), per-channel queues, bus reservation, write buffer and
    refresh cursor.
``cpu``
    Per-thread sliding-window state: the ``(deque, completed set)``
    window as a ``(head, credits, completed offsets)`` triple.
``rng``
    Logical RNG cursors.  Raw generators are captured as PCG64 state
    words; block-buffered streams (:mod:`repro.workloads.rng`) cannot
    be compared that way — their underlying generator sits a block
    ahead, by however much was pre-fetched — so they are canonicalised
    as *the next few draws*, peeked without consuming the stream.
``monitor``
    The behaviour monitor's shadow row-buffers, outstanding/BLP
    integrals and lifetime counters.
``scheduler``
    The policy's own :meth:`~repro.schedulers.base.Scheduler.\
state_digest` (ranks, clusters, virtual times, shuffle RNG cursor).
``progress``
    Scalar run progress: current cycle, event sequence counter,
    decisions, quanta, latency accumulators, IPC timeline.

Snapshots are strictly JSON-native (dicts with string keys, lists,
ints, floats, strings, None), so they hash canonically, diff with
:func:`repro.validate.fingerprint.compare_fingerprints`, and survive a
JSON round trip unchanged.

The probe is a run observer (:mod:`repro.sim.observer`) and runs on
either of ``System``'s event loops.  Its rings keep plain tuples per
event and grant; :meth:`StateProbe.rings` turns them into the JSON
lists and dicts a bisected :class:`~repro.diverge.lockstep.Divergence`
carries for each side.
"""

from __future__ import annotations

import json
from collections import deque
from hashlib import blake2b
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.cpu.thread import JITTER
from repro.dram.request import MemoryRequest
from repro.sim.observer import Observer, find_observer

#: Component keys in canonical order.
COMPONENTS = (
    "events", "dram", "cpu", "rng", "monitor", "scheduler", "progress",
)

#: Hex digits of each component fingerprint (blake2b, 8-byte digest).
DIGEST_SIZE = 8

#: Draws peeked per buffered RNG stream when canonicalising its cursor.
#: Enough that two streams at different logical positions cannot digest
#: equal by accident (4 × 64 bits of stream content).
PEEK_DRAWS = 4

_EVENT_KINDS = (
    "issue", "bank_free", "done", "quantum", "timer", "phit", "sample",
)


def _jsonify(value):
    """Recursively coerce to JSON-native types (tuples -> lists,
    numpy scalars -> Python scalars, dict keys -> strings)."""
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, np.generic):
        return value.item()
    return value


#: A request's identity and lifecycle state, minus ``request_id`` (a
#: process-global counter, meaningless across separate runs).
_request_state = attrgetter(
    "thread_id", "channel_id", "bank_id", "row", "arrival", "episode_id",
    "is_write", "is_prefetch", "marked", "start_service", "completion",
    "interference",
)


def _request_digest(request: MemoryRequest) -> list:
    """A request's identity and lifecycle state as a JSON list."""
    (tid, channel, bank, row, arrival, episode, is_write, is_prefetch,
     marked, start_service, completion, interference) = \
        _request_state(request)
    return [tid, channel, bank, row, arrival, episode, int(is_write),
            int(is_prefetch), int(marked), start_service, completion,
            interference]


def _kind_name(kind: int) -> str:
    return _EVENT_KINDS[kind] if kind < len(_EVENT_KINDS) else str(kind)


def _event_entry(time: int, kind: int, payload, aux: int) -> list:
    """One canonical event record, a request payload digested."""
    if isinstance(payload, MemoryRequest):
        payload = _request_digest(payload)
    return [time, _kind_name(kind), payload, aux]


# ----------------------------------------------------------------------
# per-component snapshots
# ----------------------------------------------------------------------

def snapshot_events(system) -> list:
    """Pending-event multiset in dispatch order."""
    return [
        _event_entry(time, kind, payload, aux)
        for time, _seq, kind, payload, aux in sorted(system._events)
    ]


def snapshot_dram(system) -> list:
    channels = []
    for channel in system.channels:
        channels.append({
            "banks": [
                {
                    "open_row": bank.open_row,
                    "open_row_owner": bank.open_row_owner,
                    "busy_until": bank.busy_until,
                    "last_activate": bank.last_activate,
                    "row_hits": bank.row_hits,
                    "row_conflicts": bank.row_conflicts,
                    "row_closed": bank.row_closed,
                    "busy_cycles": bank.busy_cycles,
                }
                for bank in channel.banks
            ],
            "queues": [
                [_request_digest(request) for request in queue]
                for queue in channel.queues
            ],
            "bus_free_until": channel.bus_free_until,
            "bus_owner": channel.bus_owner,
            "serviced_requests": channel.serviced_requests,
            "write_buffer": [
                _request_digest(request)
                for request in channel.write_buffer
            ],
            "serviced_writes": channel.serviced_writes,
            "dropped_writes": channel.dropped_writes,
            "recent_activates": list(channel._recent_activates),
            "next_refresh": channel._next_refresh,
            "refreshes_performed": channel.refreshes_performed,
        })
    return channels


def _stats_snapshot(stats) -> dict:
    return {
        "instructions": stats.instructions,
        "misses": stats.misses,
        "episodes": stats.episodes,
        "quantum_instructions": stats.quantum_instructions,
        "quantum_misses": stats.quantum_misses,
    }


def _addr_snapshot(addr) -> dict:
    return {
        "base": addr._base,
        "pos": addr._pos,
        "spread": addr._spread,
        "last_row": [
            [bank, row] for bank, row in sorted(addr._last_row.items())
        ],
        "accesses": addr.accesses,
        "row_reuses": addr.row_reuses,
        "drifts": addr.drifts,
    }


def snapshot_cpu(system) -> list:
    """Per-thread window state.

    The ``(deque of credits, completed-id set)`` window reduces to: the
    head id (``issued - len(rob) + 1``, so ``issued + 1`` when the
    window is empty), the in-window credits oldest-first, and
    completed-but-unretired offsets from the head.
    """
    threads = []
    for thread in system.threads:
        rob = thread._rob
        head = thread.issued - len(rob) + 1
        threads.append({
            "issued": thread.issued,
            "head": head,
            "rob_credits": list(rob),
            "completed": sorted(
                issue_id - head for issue_id in thread._completed
            ),
            "window_blocked": bool(thread.window_blocked),
            "instr_credit": thread._instr_credit,
            "pending_credit": thread._pending_credit,
            "gap_carry": thread._gap_carry,
            "program_time": thread.program_time,
            "last_issue_time": thread._last_issue_time,
            "current_ipm": thread._current_ipm,
            "phase_multiplier": thread.phase_multiplier,
            "phase_end": thread._phase_end,
            "max_outstanding": thread.max_outstanding,
            "stats": _stats_snapshot(thread.stats),
            "addr": _addr_snapshot(thread._addr),
        })
    return threads


# -- RNG cursors -------------------------------------------------------

def _generator_cursor(generator: np.random.Generator) -> dict:
    """A raw generator's cursor: PCG64 state words plus the half-word
    bank (zeroed when empty — numpy leaves the stale value behind)."""
    state = generator.bit_generator.state
    has32 = int(state["has_uint32"])
    return {
        "state": state["state"]["state"],
        "inc": state["state"]["inc"],
        "has_uint32": has32,
        "uinteger": int(state["uinteger"]) if has32 else 0,
    }


def _peek_words(source) -> dict:
    """A :class:`~repro.workloads.rng.BufferedPCG64` cursor as content:
    the half-word bank plus the next :data:`PEEK_DRAWS` raw 64-bit
    words, peeked without consuming.

    The same words sit at the same logical position however much the
    stream has pre-fetched, and they equal what an unbuffered numpy
    generator at that position would produce next.
    """
    has32 = int(source._has32)
    return {
        "has_uint32": has32,
        "half": int(source._half) if has32 else 0,
        "words": source.peek64(PEEK_DRAWS),
    }


def snapshot_rng(system) -> dict:
    """Every RNG cursor the run consumes (the policy RNG is digested by
    the scheduler component via ``state_digest``)."""
    return {
        "threads": [
            {
                "jitter": thread._rng.peek_uniform(*JITTER, PEEK_DRAWS),
                "phase": _generator_cursor(thread._phase_rng),
                "addr": _peek_words(thread._addr._rng),
            }
            for thread in system.threads
        ],
        "writeback": _generator_cursor(system._wb_rng),
    }


def snapshot_monitor(system) -> dict:
    monitor = system.monitor
    return {
        "service_cycles": [list(row) for row in monitor.service_cycles],
        "shadow_rows": [
            [
                [[bank, row] for bank, row in sorted(shadow.items())]
                for shadow in per_channel
            ]
            for per_channel in monitor._shadow_rows
        ],
        "shadow_hits": [list(row) for row in monitor.shadow_hits],
        "shadow_accesses": [list(row) for row in monitor.shadow_accesses],
        "bank_outstanding": [
            [[bank, count] for bank, count in sorted(counts.items())]
            for counts in monitor._bank_outstanding
        ],
        "active_banks": list(monitor._active_banks),
        "outstanding": list(monitor._outstanding),
        "last_update": list(monitor._last_update),
        "blp_integral": list(monitor._blp_integral),
        "busy_time": list(monitor._busy_time),
        "lifetime_service_cycles": list(monitor.lifetime_service_cycles),
        "lifetime_shadow_hits": list(monitor.lifetime_shadow_hits),
        "lifetime_shadow_accesses": list(monitor.lifetime_shadow_accesses),
        "lifetime_blp_integral": list(monitor.lifetime_blp_integral),
        "lifetime_busy_time": list(monitor.lifetime_busy_time),
    }


def snapshot_progress(system) -> dict:
    return {
        "now": system.now,
        "event_seq": system._seq,
        "sched_decisions": system.sched_decisions,
        "quantum_count": system.quantum_count,
        "latency_sum": list(system._latency_sum),
        "latency_count": list(system._latency_count),
        "ipc_timeline": [list(row) for row in system.ipc_timeline],
    }


_SNAPSHOTS = {
    "events": snapshot_events,
    "dram": snapshot_dram,
    "cpu": snapshot_cpu,
    "rng": snapshot_rng,
    "monitor": snapshot_monitor,
    "scheduler": lambda system: system.scheduler.state_digest(),
    "progress": snapshot_progress,
}


def snapshot_state(
    system, components: Iterable[str] = COMPONENTS
) -> Dict[str, object]:
    """Canonical (JSON-native) snapshot of the selected components."""
    snapshot = {}
    for name in components:
        try:
            taker = _SNAPSHOTS[name]
        except KeyError:
            raise ValueError(
                f"unknown state component {name!r}; "
                f"choose from {', '.join(COMPONENTS)}"
            ) from None
        snapshot[name] = _jsonify(taker(system))
    return snapshot


def fingerprint_component(value) -> str:
    """Short stable hash of one canonical component snapshot."""
    payload = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return blake2b(payload.encode(), digest_size=DIGEST_SIZE).hexdigest()


def fingerprint_state(
    system, components: Iterable[str] = COMPONENTS
) -> Dict[str, str]:
    """Per-component fingerprints of the system's current state."""
    return {
        name: fingerprint_component(value)
        for name, value in snapshot_state(system, components).items()
    }


# ----------------------------------------------------------------------
# the probe
# ----------------------------------------------------------------------

class StateProbe(Observer):
    """Attached observer: ring buffers plus on-demand fingerprints.

    Once attached, the event loops feed the probe every dispatched event
    (:meth:`on_event`) and every grant (:meth:`on_grant`), which it
    keeps in bounded ring buffers of plain tuples for a divergence's
    context (:meth:`rings`).  The event ring keeps each popped event
    tuple as it is, through the deque's own ``append``, so an event
    costs no Python frame; a completion's request is digested only when
    :meth:`rings` is read.  That digest equals one taken at the pop
    because no queue holds a request once it is granted, and a
    completion's request was granted: neither the span collector's
    grant rule (``interference``) nor PAR-BS's batch marks write to it
    afterwards.  Fingerprints and snapshots are computed only when
    asked (between :meth:`~repro.sim.system.System.advance` windows),
    so probe overhead scales with checkpoint cadence, not event rate.
    """

    name = "probe"

    def __init__(
        self,
        components: Optional[Iterable[str]] = None,
        ring: int = 64,
    ):
        self.components: Tuple[str, ...] = (
            tuple(components) if components is not None else COMPONENTS
        )
        for name in self.components:
            if name not in _SNAPSHOTS:
                raise ValueError(
                    f"unknown state component {name!r}; "
                    f"choose from {', '.join(COMPONENTS)}"
                )
        self.ring = ring
        self.events: deque = deque(maxlen=ring)
        self.decisions: deque = deque(maxlen=ring)
        self.system = None
        # the hook the loops call is the ring's append (see on_event)
        self.on_event = self.events.append

    def attach(self, system) -> "StateProbe":
        if find_observer(system, StateProbe) is not None:
            raise RuntimeError("system already carries a divergence probe")
        system.attach(self)
        self.system = system
        return self

    def detach(self) -> None:
        if self.system is not None:
            self.system.detach(self)
            self.system = None

    # -- observer hooks --------------------------------------------------

    def on_event(self, event: tuple) -> None:
        """Ring the popped event as it is.  Each probe's own
        ``on_event`` is ``self.events.append``, which does just this
        without a Python frame."""
        self.events.append(event)

    def on_grant(self, request, waiting, access, completion: int,
                 now: int) -> None:
        # the queue length select chose from, winner included
        self.decisions.append((
            now, request.channel_id, request.bank_id, request.thread_id,
            request.row, request.arrival, len(waiting) + 1, access.kind,
            access.data_end,
        ))

    # -- checkpoints -----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        return snapshot_state(self.system, self.components)

    def fingerprint(self) -> Dict[str, str]:
        return fingerprint_state(self.system, self.components)

    def rings(self) -> dict:
        """The latest events and grants, oldest first, as JSON."""
        return {
            "events": [
                _event_entry(time, kind, payload, aux)
                for time, _seq, kind, payload, aux in self.events
            ],
            "decisions": [
                {
                    "cycle": now, "ch": channel, "bank": bank,
                    "tid": tid, "row": row, "arrival": arrival,
                    "queued": queued, "kind": kind,
                    "row_hit": kind == "hit", "data_end": data_end,
                }
                for (now, channel, bank, tid, row, arrival, queued, kind,
                     data_end) in self.decisions
            ],
        }
