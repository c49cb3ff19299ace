"""Metrics registry: polled providers over component counters.

**Providers** are read-only callbacks over counters a component
already keeps as plain attributes (``bank.row_hits`` etc.).  The hot
path keeps its raw ``+= 1`` attribute arithmetic; the registry polls
the provider only when a snapshot is taken (epoch sample, debug
report, end of run).  A System does not register its providers when it
is built: it hands its registration to :meth:`MetricsRegistry.fill_on_read`,
and the registry runs it at its first read.  A registry nobody reads
therefore holds no providers, and simulation pays nothing per event
either way.

Metric identity is ``name`` plus a frozen ``labels`` mapping; the flat
:meth:`MetricsRegistry.snapshot` renders labels into the key
(``dram.bank.row_hits{bank=1,ch=0}``) while :meth:`MetricsRegistry.collect`
returns the structured (labels, value) pairs for one metric name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


def _label_suffix(labels: Optional[Dict[str, object]]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return "{" + inner + "}"


def _label_key(labels: Optional[Dict[str, object]]) -> Tuple:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


@dataclass(frozen=True)
class _Provider:
    """A polled read-only metric source."""

    name: str
    fn: Callable[[], float]
    labels: Tuple = ()
    label_dict: Dict[str, object] = field(default_factory=dict, hash=False)


class MetricsRegistry:
    """One namespace of metrics for a run (or a campaign).

    The registry never touches the objects behind its providers except
    when polled, so registering a component costs nothing per simulated
    event.  ``(name, labels)`` pairs must be unique; re-registering one
    raises unless :meth:`reset` (full clear) was called in between —
    this catches two runs accidentally sharing one registry, at the
    second run's fill.
    """

    def __init__(self) -> None:
        self._providers: Dict[Tuple[str, Tuple], _Provider] = {}
        #: registrations handed to :meth:`fill_on_read`, not yet run
        self._fills: Tuple[Callable[[], None], ...] = ()

    # -- registration ---------------------------------------------------

    def fill_on_read(self, fill: Callable[[], None]) -> None:
        """Run ``fill``, which registers providers, before the next read.

        The first :meth:`register`, :meth:`value`, :meth:`sum`,
        :meth:`collect`, :meth:`snapshot`, :meth:`names` or ``len``
        runs every pending fill once, in the order they were handed
        over, and then does its own work.  :meth:`reset` drops them.
        """
        self._fills += (fill,)

    def _filled(self) -> Dict[Tuple[str, Tuple], _Provider]:
        """The providers, once every pending fill has run."""
        if self._fills:
            fills, self._fills = self._fills, ()
            for fill in fills:
                fill()
        return self._providers

    def register(
        self,
        name: str,
        fn: Callable[[], float],
        labels: Optional[Dict[str, object]] = None,
    ) -> None:
        """Register a polled provider for ``name`` with ``labels``."""
        providers = self._filled()
        key = (name, _label_key(labels))
        if key in providers:
            raise ValueError(
                f"metric {name}{_label_suffix(labels)} already registered"
            )
        providers[key] = _Provider(
            name=name, fn=fn, labels=_label_key(labels),
            label_dict=dict(labels or {}),
        )

    # -- reads ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._filled())

    def names(self) -> List[str]:
        """Sorted distinct metric names."""
        return sorted({k[0] for k in self._filled()})

    def collect(self, name: str) -> List[Tuple[Dict[str, object], float]]:
        """All (labels, value) pairs registered under ``name``."""
        out = []
        for (n, _), provider in self._filled().items():
            if n == name:
                out.append((dict(provider.label_dict), provider.fn()))
        out.sort(key=lambda pair: sorted(pair[0].items()))
        return out

    def value(self, name: str,
              labels: Optional[Dict[str, object]] = None):
        """The single value registered under ``(name, labels)``."""
        provider = self._filled().get((name, _label_key(labels)))
        if provider is None:
            raise KeyError(f"no metric {name}{_label_suffix(labels)}")
        return provider.fn()

    def sum(self, name: str) -> float:
        """Sum of all label variants of ``name``."""
        return sum(v for _, v in self.collect(name))

    def snapshot(self) -> Dict[str, float]:
        """Flat ``{name{labels}: value}`` view of every metric."""
        return {name + _label_suffix(provider.label_dict): provider.fn()
                for (name, _), provider in self._filled().items()}

    # -- lifecycle ------------------------------------------------------

    def reset(self) -> None:
        """Full clear: drop all providers and every pending fill.

        A registry reused across runs must be reset so stale providers
        cannot silently poll a dead system's counters.
        """
        self._providers.clear()
        self._fills = ()
