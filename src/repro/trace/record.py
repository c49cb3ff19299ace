"""Recording the miss streams of a simulated system."""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Union

from repro.sim.observer import Observer
from repro.trace.format import TraceEvent, write_trace


class TraceRecorder(Observer):
    """Collects every thread's miss stream during a simulation run.

    Attach an instance as an observer (``System(..., observers=[...])``);
    after the run, ``save_all`` writes one trace file per thread.
    """

    name = "trace"

    def __init__(self):
        self.events: Dict[int, List[TraceEvent]] = {}
        self.benchmarks: Dict[int, str] = {}
        self._threads = []

    def begin(self, system) -> None:
        self._threads = system.threads

    def on_arrival(self, request, now: int) -> None:
        # demand misses only, positioned on the thread's virtual program
        # time, so recorded traces are free of contention stalls
        if request.is_prefetch:
            return
        tid = request.thread_id
        thread = self._threads[tid]
        self.events.setdefault(tid, []).append(TraceEvent(
            cycle=thread.program_time, channel=request.channel_id,
            bank=request.bank_id, row=request.row,
        ))
        self.benchmarks.setdefault(tid, thread.spec.name)

    def save(self, thread_id: int, path: Union[str, Path]) -> int:
        """Write one thread's trace; returns the event count."""
        return write_trace(
            path,
            self.events.get(thread_id, []),
            benchmark=self.benchmarks.get(thread_id, "unknown"),
        )

    def save_all(self, directory: Union[str, Path]) -> Dict[int, Path]:
        """Write every thread's trace into ``directory``.

        Files are named ``t<NN>-<benchmark>.trace``; returns the path
        per thread id.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = {}
        for thread_id in sorted(self.events):
            benchmark = self.benchmarks.get(thread_id, "unknown")
            path = directory / f"t{thread_id:02d}-{benchmark}.trace"
            self.save(thread_id, path)
            paths[thread_id] = path
        return paths
