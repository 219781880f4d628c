"""Generic thread executor: turns an op stream into simulated time.

Both NMP cores and baseline host cores execute the same workload op
streams (:mod:`repro.workloads.ops`).  This base class implements the
shared machinery — the bounded outstanding-request window, request
draining, and stall-time attribution (local vs. remote/IDC, which is where
Fig. 10's "non-overlapped IDC cycles" metric comes from) — while
subclasses define how each op class actually costs time on their system.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, Optional, Tuple

from repro.errors import WorkloadError
from repro.sim.engine import AllOf, Process, SimEvent, Simulator
from repro.sim.resource import SlotResource
from repro.sim.stats import StatRegistry
from repro.sim.time import cycles
from repro.workloads.ops import Barrier, Broadcast, Compute, Flush, Read, Stamp, Write


class ThreadExecutor(abc.ABC):
    """Executes one software thread's op stream on one core."""

    def __init__(
        self,
        sim: Simulator,
        freq_ghz: float,
        window: int,
        stats: StatRegistry,
        name: str = "core",
        compute_scale: float = 1.0,
    ) -> None:
        self.sim = sim
        self.freq_ghz = freq_ghz
        self.stats = stats
        self.name = name
        #: >1.0 slows compute (host cores time-multiplexing many threads).
        self.compute_scale = compute_scale
        self._window = SlotResource(sim, window, name=f"{name}.window")
        #: in-flight request -> whether it is remote, in issue order.
        self._pending: Dict[SimEvent, bool] = {}
        self._outstanding_remote = 0
        #: completion callback of every request, bound once.
        self._complete = self._on_complete
        #: optional shared page table (repro.mapping.pagetable.PageTable);
        #: None keeps the legacy static-shard addressing untouched.
        self.pagetable = None

    def resolve_target(self, op, toucher: int) -> Tuple[int, Optional[Tuple[int, int]]]:
        """Serving DIMM for a Read/Write, plus a pending page migration.

        Without a page table (or for ops that carry no page id) this is
        exactly the legacy behaviour: the op's static ``dimm``.
        """
        if self.pagetable is None or op.page is None:
            return op.dimm, None
        return self.pagetable.resolve(op.page, toucher)

    # -- hooks ----------------------------------------------------------------

    @abc.abstractmethod
    def memory_access(self, op) -> Tuple[Optional[SimEvent], bool]:
        """Issue a Read/Write.  Returns (completion event | None, is_remote).

        Returning ``None`` means the access was satisfied immediately
        (e.g. a cache hit whose latency the hook already charged).
        """

    @abc.abstractmethod
    def broadcast(self, op: Broadcast) -> SimEvent:
        """Issue a broadcast; event fires when all receivers have the data."""

    @abc.abstractmethod
    def barrier(self, thread_id: int) -> SimEvent:
        """Enter the global barrier; event fires on release."""

    # -- execution --------------------------------------------------------------

    def run_thread(self, thread_id: int, ops: Iterable) -> Process:
        """Start executing ``ops`` as a simulation process."""
        return self.sim.process(
            self._thread_proc(thread_id, ops), name=f"{self.name}.t{thread_id}"
        )

    def _thread_proc(self, thread_id: int, ops: Iterable):
        sim = self.sim
        stats = self.stats
        window = self._window
        pending = self._pending
        start = sim.now
        interval_start = start
        trace = sim.trace
        thread_span = (
            trace.begin("nmp", "thread", self.name, thread=thread_id)
            if trace.enabled
            else None
        )
        for op in ops:
            if isinstance(op, Compute):
                duration = cycles(op.cycles * self.compute_scale, self.freq_ghz)
                stats.add("core.busy_ps", duration)
                yield duration
            elif isinstance(op, (Read, Write)):
                blocked_from = sim.now
                yield window.acquire()
                self._attribute_stall(sim.now - blocked_from)
                event, is_remote = self.memory_access(op)
                stats.add("core.mem_ops")
                if is_remote:
                    stats.add("core.remote_ops")
                    stats.add("core.remote_bytes", op.nbytes)
                if event is None:
                    window.release()
                    continue
                pending[event] = is_remote
                if is_remote:
                    self._outstanding_remote += 1
                event.add_callback(self._complete)
            elif isinstance(op, Broadcast):
                yield from self._drain()
                blocked_from = sim.now
                span = (
                    trace.begin("nmp", "broadcast", self.name, thread=thread_id)
                    if trace.enabled
                    else None
                )
                yield self.broadcast(op)
                trace.end(span)
                stats.add("core.stall_remote_ps", sim.now - blocked_from)
                stats.add("core.broadcasts")
            elif isinstance(op, Barrier):
                yield from self._drain()
                blocked_from = sim.now
                span = (
                    trace.begin("nmp", "barrier", self.name, thread=thread_id)
                    if trace.enabled
                    else None
                )
                yield self.barrier(thread_id)
                trace.end(span)
                stats.add("core.stall_sync_ps", sim.now - blocked_from)
                stats.add("core.barriers")
            elif isinstance(op, Flush):
                yield from self._drain()
            elif isinstance(op, Stamp):
                yield from self._drain()
                stats.histogram(op.key).record(sim.now - interval_start)
                interval_start = sim.now
            else:
                raise WorkloadError(f"unknown op {op!r}")
        yield from self._drain()
        stats.add("core.thread_ps", sim.now - start)
        stats.add("core.threads")
        trace.end(thread_span)
        return sim.now

    def _on_complete(self, event: SimEvent) -> None:
        if self._pending.pop(event):
            self._outstanding_remote -= 1
        self._window.release()

    def _drain(self):
        while self._pending:
            blocked_from = self.sim.now
            events = list(self._pending)
            remote_fraction = self._remote_fraction()
            yield AllOf(events)
            self._split_stall(self.sim.now - blocked_from, remote_fraction)

    def _remote_fraction(self) -> float:
        if not self._pending:
            return 0.0
        return self._outstanding_remote / len(self._pending)

    def _attribute_stall(self, blocked_ps: int) -> None:
        if blocked_ps <= 0:
            return
        self._split_stall(blocked_ps, self._remote_fraction())

    def _split_stall(self, blocked_ps: int, remote_fraction: float) -> None:
        if blocked_ps <= 0:
            return
        remote_part = int(blocked_ps * remote_fraction)
        self.stats.add("core.stall_remote_ps", remote_part)
        self.stats.add("core.stall_local_ps", blocked_ps - remote_part)
