"""Per-thread architectural statistics."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ThreadStats:
    """Counters a core exposes to the memory-scheduling machinery.

    A retirement writes only the ``quantum_*`` counters.  Every quantum
    boundary (:meth:`reset_quantum`) folds them into the run totals and
    clears them, so ``instructions`` and ``misses`` read the folded
    totals plus the current quantum.  ``episodes`` reads ``misses`` plus
    an offset that each :meth:`retire` moves by ``1 - misses``: one
    episode per call, whatever its miss count.  The counts are ints, so
    the fold is exact.  MPKI here is the L2 MPKI the paper's monitors
    compute at the cache controller.
    """

    quantum_instructions: int = 0
    quantum_misses: int = 0
    #: run totals of the quanta already ended
    _folded_instructions: int = 0
    _folded_misses: int = 0
    #: ``episodes - misses``
    _episode_offset: int = 0

    @property
    def instructions(self) -> int:
        """Instructions retired over the whole run."""
        return self._folded_instructions + self.quantum_instructions

    @property
    def misses(self) -> int:
        """Misses retired over the whole run."""
        return self._folded_misses + self.quantum_misses

    @property
    def episodes(self) -> int:
        """:meth:`retire` calls over the whole run."""
        return self.misses + self._episode_offset

    def retire(self, instructions: int, misses: int) -> None:
        """Account one completed episode's instructions and misses."""
        self.quantum_instructions += instructions
        self.quantum_misses += misses
        self._episode_offset += 1 - misses

    def quantum_mpki(self) -> float:
        """Misses per kilo-instruction over the current quantum."""
        if self.quantum_instructions == 0:
            return 0.0
        return 1000.0 * self.quantum_misses / self.quantum_instructions

    def lifetime_mpki(self) -> float:
        """Misses per kilo-instruction over the whole run."""
        instructions = self.instructions
        if instructions == 0:
            return 0.0
        return 1000.0 * self.misses / instructions

    def ipc(self, elapsed_cycles: int) -> float:
        """Retired instructions per cycle over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return 0.0
        return self.instructions / elapsed_cycles

    def reset_quantum(self) -> None:
        """Fold the quantum into the run totals and start a fresh one."""
        self._folded_instructions += self.quantum_instructions
        self._folded_misses += self.quantum_misses
        self.quantum_instructions = 0
        self.quantum_misses = 0
