"""The observer protocol: one way for an instrument to watch a run.

An observer subclasses :class:`Observer`, overrides the hooks it needs
and is attached with :meth:`repro.sim.system.System.attach` (or
``System(..., observers=...)``) before the run starts.  At
``start_run()`` the system builds one tuple per hook from the attached
observers whose class overrides it, reading each hook off the
*instance*, so per-instance wrappers installed before the run intercept.
An instance that needs an overridden hook only in some runs switches
it off for the run by setting the attribute to ``None``.  The hooks
are fixed for the length of a ``System.advance`` call: a detach takes
effect at the next call, and one from inside a call raises.

Every hook fires after the simulator's own bookkeeping and after the
policy's hook at its site, except ``on_event`` (before its event is
dispatched) and ``on_decision`` (after ``select``, before
``start_service``).  Observers must not change simulated state.  See
docs/OBSERVABILITY.md, "Observer protocol", for which instrument
implements which hook and what stays outside the protocol.
"""

from __future__ import annotations


class Observer:
    """Base class of run observers; every hook is a no-op."""

    #: short instrument name; the self-profiler labels the samples taken
    #: in this observer's hooks ``obs.<name>.<hook>``
    name = "observer"

    def begin(self, system) -> None:
        """The run started: fires last in ``System.start_run``."""

    def end(self, system, horizon: int) -> None:
        """The run finished: fires last in ``System.finish_run``."""

    def on_event(self, event: tuple) -> None:
        """An event was popped; fires *before* it is dispatched.

        ``event`` is the popped ``(time, seq, kind, payload, aux)``
        tuple itself, so a hook that only keeps events can be a bound
        C method (``deque.append``) and enter no Python frame.
        """

    def on_arrival(self, request, now: int) -> None:
        """A demand or prefetch request entered a controller queue."""

    def on_decision(self, channel, bank_id: int, request, now: int) -> None:
        """``select`` picked ``request``; the queue still holds it."""

    def on_grant(self, request, waiting, access, completion: int,
                 now: int) -> None:
        """``request`` started bank service; ``waiting`` still queue."""

    def on_write(self, request, access, now: int) -> None:
        """A buffered write started draining to its bank."""

    def on_complete(self, request, now: int) -> None:
        """``request`` returned its data to the core."""

    def on_quantum(self, snapshot, now: int) -> None:
        """A quantum ended; ``snapshot`` is the monitor's summary."""

    def on_timer(self, now: int, key) -> None:
        """A timer fired.  Tuple keys are observer-owned timers (explain's
        shadow policies); the primary policy sees only the other keys."""


#: every hook, in the order a run first reaches them
HOOKS = (
    "begin", "on_event", "on_arrival", "on_decision", "on_grant",
    "on_write", "on_complete", "on_quantum", "on_timer", "end",
)


def overridden_hooks(observer):
    """The protocol hooks ``observer``'s class overrides and the
    instance has not set to ``None``."""
    cls = type(observer)
    return [
        hook for hook in HOOKS
        if getattr(cls, hook, None) not in (None, getattr(Observer, hook))
        and getattr(observer, hook) is not None
    ]


def find_observer(system, kind):
    """The first observer of type ``kind`` attached to ``system``, or None."""
    return next((o for o in system.observers if isinstance(o, kind)), None)
