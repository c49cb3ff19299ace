"""System configuration for the TCM reproduction.

The defaults mirror Table 3 of the paper (24-core CMP, 4 memory
controllers, 4 banks per controller, DDR2-800 timing) with one
difference: time is scaled down so that pure-Python simulation stays
tractable.  The paper runs 100M-cycle simulations with 1M-cycle quanta;
we default to a 1/20 scale (see ``DEFAULT_SCALE``).  All quantum-relative
mechanisms are unaffected by the scale because per-quantum statistics
converge within a few thousand requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

#: Paper quantum is 1M cycles; we scale by this factor by default.
DEFAULT_SCALE = 1.0 / 20.0

#: Paper run length (100M cycles), used to derive scaled run lengths.
PAPER_RUN_CYCLES = 100_000_000
PAPER_QUANTUM_CYCLES = 1_000_000


@dataclass(frozen=True)
class DramTimings:
    """Service-time model derived from DDR2-800 (Micron MT47H128M8HQ-25).

    The paper's Table 3 gives tCL = tRCD = tRP = 15ns and BL/2 = 10ns,
    and quotes uncontended round-trip L2 miss latencies of 200 / 300 /
    400 CPU cycles for row-buffer hit / closed / conflict accesses,
    implying a 5 GHz core clock.  We express everything in CPU cycles.

    ``*_occupancy`` is how long the bank (and, for the burst portion,
    the channel data bus) is kept busy; ``fixed_overhead`` is the
    remaining round-trip latency (interconnect, controller, L2 fill)
    that does not occupy the bank.
    """

    t_cl: int = 75       # 15ns @ 5GHz
    t_rcd: int = 75
    t_rp: int = 75
    burst: int = 50      # BL/2 = 10ns @ 5GHz (32-byte cache block)
    fixed_overhead: int = 150
    #: Row-buffer management: "open" keeps the row latched after an
    #: access (the paper's policy — row hits possible), "closed"
    #: auto-precharges after every access (no hits, but no conflicts
    #: either; every access pays the activate).
    page_policy: str = "open"
    #: Detailed command-level constraints (DDR2-800, Micron -25E).
    #: Enabled by ``detailed``; the default service-time model matches
    #: the paper's three-case latency abstraction and is what the
    #: calibrated results use.
    detailed: bool = False
    t_ras: int = 225     # 45ns: activate-to-precharge minimum
    t_rc: int = 300      # 60ns: activate-to-activate, same bank
    t_rrd: int = 37      # 7.5ns: activate-to-activate, different banks
    t_faw: int = 187     # 37.5ns: four-activate window
    t_refi: int = 39_000  # 7.8us: average refresh interval
    t_rfc: int = 637     # 127.5ns: refresh cycle time

    def __post_init__(self):
        if self.page_policy not in ("open", "closed"):
            raise ValueError(f"unknown page policy {self.page_policy!r}")

    @property
    def hit_occupancy(self) -> int:
        """Bank-busy cycles for a row-buffer hit (burst only)."""
        return self.burst

    @property
    def closed_occupancy(self) -> int:
        """Bank-busy cycles when the row must first be activated."""
        return self.t_rcd + self.burst

    @property
    def conflict_occupancy(self) -> int:
        """Bank-busy cycles when another row must first be precharged."""
        return self.t_rp + self.t_rcd + self.burst


@dataclass(frozen=True)
class SimConfig:
    """Top-level system configuration (paper Table 3, scaled).

    Attributes mirror the baseline CMP and memory system configuration:
    24 cores, 4 independent DRAM controllers, 4 banks each, 128-entry
    instruction window, 3-wide issue.
    """

    num_threads: int = 24
    num_channels: int = 4
    banks_per_channel: int = 4
    num_rows: int = 16_384           # 2KB rows; plenty for address diversity
    window_size: int = 128           # instruction window entries
    ipc_peak: float = 3.0            # issue width
    quantum_cycles: int = int(PAPER_QUANTUM_CYCLES * DEFAULT_SCALE)
    run_cycles: int = int(PAPER_QUANTUM_CYCLES * DEFAULT_SCALE) * 12
    #: Mean length (cycles) of a benchmark phase; the miss rate per
    #: instruction is modulated by x0.5 / x1 / x2 across phases,
    #: mirroring the phase behaviour of real SPEC traces.  0 disables
    #: phases (fully stationary traces).
    phase_mean_cycles: int = 40_000
    #: Model write traffic (dirty-eviction writebacks).  Off by
    #: default: writes are off the critical path (paper Table 3 buffers
    #: them and prioritises reads) and none of the studied algorithms
    #: schedule them differently; enable for bandwidth-fidelity studies.
    model_writes: bool = False
    #: Fraction of misses that evict a dirty line (when model_writes).
    writeback_ratio: float = 0.33
    #: Per-controller write data buffer entries (paper Table 3: 64).
    write_buffer_size: int = 64
    #: Stream-prefetcher degree per thread; 0 disables prefetching.
    #: Prefetch requests are tagged and serviced demand-first (related
    #: work [6], combinable with all schedulers here).
    prefetch_degree: int = 0
    timings: DramTimings = field(default_factory=DramTimings)
    seed: int = 42

    @property
    def num_banks(self) -> int:
        """Total banks across all channels (16 in the baseline)."""
        return self.num_channels * self.banks_per_channel

    def with_(self, **kwargs) -> "SimConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def cache_key(self) -> Tuple:
        """A hashable key covering *every* field of the configuration.

        Derived from :func:`dataclasses.fields` (recursing into nested
        dataclasses such as :class:`DramTimings`), so adding a config
        field automatically changes the key — cache entries can never
        silently alias across configurations that differ in a field the
        key's author forgot about.
        """
        return _flatten_dataclass(self)


def _flatten_dataclass(obj) -> Tuple:
    """Recursively flatten a dataclass into a hashable (name, value) tuple."""
    import dataclasses

    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return tuple(
            (f.name, _flatten_dataclass(getattr(obj, f.name)))
            for f in dataclasses.fields(obj)
        )
    if isinstance(obj, (list, tuple)):
        return tuple(_flatten_dataclass(v) for v in obj)
    if isinstance(obj, dict):
        return tuple(
            sorted((k, _flatten_dataclass(v)) for k, v in obj.items())
        )
    return obj


@dataclass(frozen=True)
class TCMParams:
    """TCM algorithmic parameters (paper Section 6).

    ``cluster_thresh`` is the fraction of the previous quantum's total
    bandwidth usage allotted to the latency-sensitive cluster (paper
    default 4/24).  ``shuffle_interval`` is in cycles; the paper uses
    800.  ``shuffle_algo_thresh`` controls the insertion-vs-random
    shuffle fallback; 1.0 forces pure random shuffling.
    """

    cluster_thresh: float = 4.0 / 24.0
    shuffle_interval: int = 800
    shuffle_algo_thresh: float = 0.1
    shuffle_mode: str = "dynamic"  # dynamic | insertion | random | round_robin
    #: Paper default: one global shuffled order agreed by all
    #: controllers.  False de-synchronises shuffling per channel (an
    #: ablation of the paper's synchronised-shuffling design point).
    sync_shuffle: bool = True
    thread_weights: Optional[Tuple[int, ...]] = None
    #: Niceness definition ablation: "blp_minus_rbl" (the paper's
    #: b_i - r_i), "blp_only", "rbl_only".
    niceness_mode: str = "blp_minus_rbl"


@dataclass(frozen=True)
class ATLASParams:
    """ATLAS parameters (paper §6: QuantumLength 10M cycles, alpha=0.875).

    The quantum is scaled more aggressively than TCM's (to two base
    quanta rather than ten) so that several ATLAS ranking epochs fit in
    a scaled run; Figure 6 of the paper shows ATLAS behaviour is
    insensitive to QuantumLength across 1K-20M cycles.
    """

    quantum_cycles: int = int(2 * PAPER_QUANTUM_CYCLES * DEFAULT_SCALE)
    history_weight: float = 0.875
    #: T: requests older than this jump the ranking.  Kept at the paper
    #: value (not scaled): queueing/service times are physical and do
    #: not shrink with the statistics-gathering quanta.
    starvation_threshold: int = 100_000


@dataclass(frozen=True)
class StaticParams:
    """Static-priority parameters: thread ids, highest priority first.

    An empty order ranks every thread equally, which degenerates to
    FR-FCFS (row-hit-first, oldest-first) — the identity baseline used
    by the validation suite's differential checks.
    """

    order: Tuple[int, ...] = ()


@dataclass(frozen=True)
class PARBSParams:
    """PAR-BS parameters: BatchCap (marking cap per thread per bank)."""

    batch_cap: int = 5


@dataclass(frozen=True)
class STFMParams:
    """STFM parameters: unfairness threshold and update interval."""

    fairness_threshold: float = 1.1
    interval_length: int = 2 ** 14   # slowdown re-evaluation period (scaled)


#: Registry of default scheduler parameter objects, keyed by scheduler name.
DEFAULT_PARAMS: Dict[str, object] = {
    "tcm": TCMParams(),
    "atlas": ATLASParams(),
    "parbs": PARBSParams(),
    "stfm": STFMParams(),
}
