"""Epoch sampler: periodic snapshots of a running system's metrics.

Every ``epoch_cycles`` the sampler turns the system's lifetime counters
into *per-epoch* per-thread rows (MPKI, RBL, BLP, service share) by
differencing against the previous sample — so the series is exact
regardless of how the monitor's own quantum windows reset.  Scheduler
policy state (cluster membership, rank) is annotated per row via
:meth:`repro.schedulers.base.Scheduler.epoch_annotations`.

Sampling is read-only: it never mutates simulation state, touches no
RNG, and therefore cannot perturb results (enabled and disabled runs
are bit-identical).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.system import System


def _rate(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class EpochSample:
    """One sampling instant: per-thread rows plus system-level state."""

    cycle: int
    threads: List[dict]
    queue_depths: Tuple[int, ...]
    bus_busy: Tuple[float, ...]

    def thread(self, tid: int) -> dict:
        return self.threads[tid]


@dataclass
class _PerThreadPrev:
    instructions: int = 0
    misses: int = 0
    shadow_hits: int = 0
    shadow_accesses: int = 0
    blp_integral: float = 0.0
    busy_time: int = 0
    service_cycles: int = 0


class EpochSampler:
    """Snapshot per-thread metrics every N cycles.

    ``epoch_cycles=None`` aligns epochs to the system's quantum length
    (the natural resolution of the paper's mechanisms).
    """

    def __init__(self, epoch_cycles: Optional[int] = None) -> None:
        self.epoch_cycles = epoch_cycles
        self.samples: List[EpochSample] = []
        self._prev: List[_PerThreadPrev] = []
        self._prev_accesses: List[int] = []
        self._last_cycle = 0

    def reset(self) -> None:
        """Clear the series; called when the sampler is bound to a run."""
        self.samples = []
        self._prev = []
        self._prev_accesses = []
        self._last_cycle = 0

    def resolve_period(self, system: "System") -> int:
        """The effective epoch length for ``system``."""
        period = self.epoch_cycles or system.config.quantum_cycles
        if period <= 0:
            raise ValueError(f"epoch_cycles must be positive, got {period}")
        return period

    # ------------------------------------------------------------------

    def sample(self, system: "System", now: int) -> EpochSample:
        """Take one sample at cycle ``now`` and append it to the series."""
        n = len(system.threads)
        if not self._prev:
            self._prev = [_PerThreadPrev() for _ in range(n)]
            self._prev_accesses = [0] * len(system.channels)
        monitor = system.monitor
        # each lifetime list is built at its read: read each once
        shadow_hits = monitor.lifetime_shadow_hits
        shadow_accesses = monitor.lifetime_shadow_accesses
        blp_integral = monitor.lifetime_blp_integral
        busy_time = monitor.lifetime_busy_time
        service_cycles = monitor.lifetime_service_cycles
        scheduler = system.scheduler
        elapsed = max(1, now - self._last_cycle)
        rows: List[dict] = []
        for tid in range(n):
            prev = self._prev[tid]
            stats = system.threads[tid].stats
            instructions = stats.instructions
            misses = stats.misses
            d_instr = instructions - prev.instructions
            d_miss = misses - prev.misses
            d_sh = shadow_hits[tid] - prev.shadow_hits
            d_sa = shadow_accesses[tid] - prev.shadow_accesses
            d_blp = blp_integral[tid] - prev.blp_integral
            d_busy = busy_time[tid] - prev.busy_time
            d_svc = service_cycles[tid] - prev.service_cycles
            row = {
                "tid": tid,
                "instructions": d_instr,
                "misses": d_miss,
                "mpki": _rate(1000.0 * d_miss, d_instr),
                "ipc": d_instr / elapsed,
                "rbl": _rate(d_sh, d_sa),
                "blp": _rate(d_blp, d_busy),
                "service_cycles": d_svc,
            }
            row.update(scheduler.epoch_annotations(tid))
            rows.append(row)
            prev.instructions = instructions
            prev.misses = misses
            prev.shadow_hits = shadow_hits[tid]
            prev.shadow_accesses = shadow_accesses[tid]
            prev.blp_integral = blp_integral[tid]
            prev.busy_time = busy_time[tid]
            prev.service_cycles = service_cycles[tid]
        burst = system.config.timings.burst
        bus = []
        for ch_idx, channel in enumerate(system.channels):
            accesses = sum(
                b.row_hits + b.row_conflicts + b.row_closed
                for b in channel.banks
            )
            delta = accesses - self._prev_accesses[ch_idx]
            self._prev_accesses[ch_idx] = accesses
            bus.append(min(1.0, _rate(delta * burst, elapsed)))
        sample = EpochSample(
            cycle=now,
            threads=rows,
            queue_depths=tuple(
                ch.pending_requests() for ch in system.channels
            ),
            bus_busy=tuple(bus),
        )
        self.samples.append(sample)
        self._last_cycle = now
        return sample

    # ------------------------------------------------------------------
    # series access
    # ------------------------------------------------------------------

    def series(self, tid: int, metric: str) -> List[float]:
        """One thread's per-epoch series of ``metric``."""
        return [s.threads[tid].get(metric) for s in self.samples]

    def cycles(self) -> List[int]:
        return [s.cycle for s in self.samples]
