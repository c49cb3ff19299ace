"""Deterministic single-fault injection for divergence-forensics tests.

Wraps one ``System`` seam method *per instance* so that exactly one
fault fires at a chosen cycle — a corrupted DRAM open row, a delayed
event, or a burnt RNG draw.  A per-instance wrapper keeps the run off
the fused loop (:func:`repro.sim.fused.fusable`), so the fault fires
through the dispatch loop; the clean side of a lockstep comparison is
untouched.

The shim exists to *prove* the bisector: a fault planted at cycle C
must be localised to exactly cycle C on the first try, with the state
diff naming the corrupted field (see tests/diverge/).
"""

from dataclasses import dataclass, field
from typing import List, Optional

FAULT_KINDS = ("bank_row", "event_delay", "rng_draw")


@dataclass
class FaultSpec:
    """One fault: ``kind`` fired at the first opportunity >= ``cycle``.

    * ``bank_row`` — add ``delta`` to ``channels[channel].banks[bank]``'s
      open row at the first scheduling attempt at/after ``cycle``
      (opens a phantom row: row-hit classification goes wrong from
      there on).
    * ``event_delay`` — the first event *pushed* at/after ``cycle``
      is scheduled ``delta`` cycles late (reorders the event stream).
    * ``rng_draw`` — burn one draw from thread ``tid``'s address-stream
      RNG at the first miss issue at/after ``cycle`` (every later
      address decision shifts by one draw).
    """

    cycle: int
    kind: str = "bank_row"
    channel: int = 0
    bank: int = 0
    tid: int = 0
    delta: int = 1
    #: cycles at which the fault actually fired (at most one entry;
    #: lets tests assert the fault landed where they planted it)
    fired_cycles: List[int] = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (one of {FAULT_KINDS})"
            )


def install_fault(system, spec: FaultSpec) -> FaultSpec:
    """Arm ``spec`` on ``system`` (before ``start_run``); returns it."""
    if spec.kind == "bank_row":
        inner = system._try_schedule

        def _try_schedule(channel_id, bank_id):
            if not spec.fired_cycles and system.now >= spec.cycle:
                spec.fired_cycles.append(system.now)
                bank = system.channels[spec.channel].banks[spec.bank]
                open_row = bank.open_row
                bank.open_row = (
                    spec.delta if open_row is None else open_row + spec.delta
                )
            inner(channel_id, bank_id)

        system._try_schedule = _try_schedule
    elif spec.kind == "event_delay":
        inner = system._push

        def _push(time, kind, payload=None, aux=0):
            # gate on the *push* cycle, not the scheduled time —
            # run-start priming pushes far-future events at now == 0
            if not spec.fired_cycles and system.now >= spec.cycle:
                spec.fired_cycles.append(system.now)
                time += spec.delta
            inner(time, kind, payload, aux)

        system._push = _push
    else:  # rng_draw
        inner = system._issue_miss

        def _issue_miss(tid):
            if not spec.fired_cycles and system.now >= spec.cycle:
                spec.fired_cycles.append(system.now)
                for _ in range(spec.delta):
                    system.threads[spec.tid]._addr._rng.random()
            inner(tid)

        system._issue_miss = _issue_miss
    return system


def faulty_factory(spec_or_build, fault: Optional[FaultSpec] = None):
    """A zero-argument factory building a faulted system each call.

    ``spec_or_build`` is either a :class:`repro.diverge.RunSpec` or any
    zero-argument system factory.  Each invocation re-arms a *fresh*
    copy of ``fault`` so re-execution bisection replays the identical
    fault every round (a shared mutable spec would fire only once
    across rounds and break determinism).
    """
    build = getattr(spec_or_build, "build", spec_or_build)

    def factory():
        copy = FaultSpec(
            cycle=fault.cycle, kind=fault.kind, channel=fault.channel,
            bank=fault.bank, tid=fault.tid, delta=fault.delta,
        )
        fault.fired_cycles = copy.fired_cycles  # expose the latest arm
        return install_fault(build(), copy)

    return factory
