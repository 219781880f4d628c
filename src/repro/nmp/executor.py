"""Generic thread executor: turns an op stream into simulated time.

Both NMP cores and baseline host cores execute the same workload op
streams (:mod:`repro.workloads.ops`).  This base class implements the
shared machinery — the bounded outstanding-request window, request
draining, and stall-time attribution (local vs. remote/IDC, which is where
Fig. 10's "non-overlapped IDC cycles" metric comes from) — while
subclasses define how each op class actually costs time on their system.

A thread runs as a callback chain over a :class:`Thread` record.  Ops
that take no simulated time run inline in the current step; an op that
waits — a ``Compute`` delay, a window slot, a drain of the outstanding
requests, a broadcast or a barrier — ends the step, and the next step
runs in the slot where that wait completes (DESIGN.md §12).
:func:`run_threads` runs a kernel's threads to their end for both
systems.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import DeadlockError, WorkloadError
from repro.sim.engine import Join, SimEvent, Simulator
from repro.sim.resource import SlotResource
from repro.sim.stats import StatRegistry
from repro.sim.time import cycles
from repro.workloads.ops import Barrier, Broadcast, Compute, Flush, Read, Stamp, Write


def deterministic_hit(counter: int, hit_rate: float) -> bool:
    """Reproducible pseudo-random cache-hit decision (Weyl-style hash)."""
    return ((counter * 0x9E3779B1) >> 8) % 1000 < int(hit_rate * 1000)


class Thread:
    """One software thread in flight: the record its callback chain
    advances.

    ``wait`` is what the thread is blocked on (a delay in ps, an event,
    or the :class:`~repro.sim.engine.Join` of a request drain) and
    ``end`` its finish time, None while it runs.  A running thread sits
    in its simulator's ``live`` set, which stall and deadlock diagnoses
    list.
    """

    __slots__ = (
        "name", "thread_id", "ops", "op", "start", "interval_start", "span",
        "op_span", "blocked_from", "remote_fraction", "wait", "end",
    )

    def __init__(self, name: str, thread_id: int, ops: Iterable) -> None:
        self.name = name
        self.thread_id = thread_id
        self.ops = ops
        #: the op in progress: a Read/Write awaiting its slot, or the
        #: fence, broadcast or barrier behind a drain (None: the end drain)
        self.op = None
        self.start = 0
        self.interval_start = 0
        self.span = None
        self.op_span = None
        self.blocked_from = 0
        self.remote_fraction = 0.0
        self.wait = None
        self.end: Optional[int] = None

    def waiting_on(self) -> str:
        """What the thread is blocked on (diagnostics)."""
        wait = self.wait
        if wait is None:
            return "nothing (not yet waiting)"
        if type(wait) is int:
            return f"delay {wait}ps"
        if type(wait) is Join:
            return f"drain of {wait.pending} requests"
        return f"event {wait.name!r}"


def run_threads(
    sim: Simulator, placed: Iterable[Tuple["ThreadExecutor", Iterable]]
) -> List[int]:
    """Run one op stream per ``(executor, ops)`` pair, numbered in order,
    until the event queue drains; return each thread's end time relative
    to the start.

    Raises :class:`~repro.errors.DeadlockError` naming the threads that
    never finished, with what every live thread waits on.
    """
    threads = [
        executor.run_thread(thread_id, ops)
        for thread_id, (executor, ops) in enumerate(placed)
    ]
    start = sim.now
    sim.run()
    unfinished = [thread.name for thread in threads if thread.end is None]
    if unfinished:
        raise DeadlockError(
            f"kernel deadlocked; stuck threads: {unfinished}",
            blocked=sim.blocked_threads(),
            time_ps=sim.now,
        )
    return [thread.end - start for thread in threads]


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

    def run_thread(self, thread_id: int, ops: Iterable) -> Thread:
        """Start executing ``ops``; the first step takes the next lane slot."""
        thread = Thread(f"{self.name}.t{thread_id}", thread_id, iter(ops))
        self.sim.live.add(thread)
        self.sim.schedule(0, self._start, thread)
        return thread

    def _start(self, thread: Thread) -> None:
        sim = self.sim
        thread.start = thread.interval_start = sim.now
        trace = sim.trace
        thread.span = (
            trace.begin("nmp", "thread", self.name, thread=thread.thread_id)
            if trace.enabled
            else None
        )
        self._step(thread)

    def _step(self, thread: Thread) -> None:
        """Run ops until one waits, then register the step that resumes."""
        for op in thread.ops:
            if isinstance(op, Compute):
                duration = cycles(op.cycles * self.compute_scale, self.freq_ghz)
                self.stats.add("core.busy_ps", duration)
                thread.wait = duration
                self.sim.schedule(duration, self._step, thread)
                return
            if isinstance(op, (Read, Write)):
                thread.op = op
                thread.blocked_from = self.sim.now
                grant = thread.wait = self._window.acquire()
                grant.then(self._granted, thread)
                return
            if not isinstance(op, (Broadcast, Barrier, Flush, Stamp)):
                raise WorkloadError(f"unknown op {op!r}")
            thread.op = op
            if self._drain(thread) or self._after_drain(thread):
                return
        thread.op = None
        if not self._drain(thread):
            self._after_drain(thread)

    def _granted(self, thread: Thread) -> None:
        """A window slot is the thread's: issue its Read/Write."""
        stats = self.stats
        self._attribute_stall(self.sim.now - thread.blocked_from)
        op = thread.op
        event, is_remote = self.memory_access(op)
        stats.add("core.mem_ops")
        if is_remote:
            stats.add("core.remote_ops")
            stats.add("core.remote_bytes", op.nbytes)
        if event is None:
            self._window.release()
        else:
            self._pending[event] = is_remote
            if is_remote:
                self._outstanding_remote += 1
            event.add_callback(self._complete)
        self._step(thread)

    def _on_complete(self, event: SimEvent) -> None:
        if self._pending.pop(event):
            self._outstanding_remote -= 1
        self._window.release()

    def _drain(self, thread: Thread) -> bool:
        """Wait for every outstanding request.

        False when none is pending: the thread goes on in this step.
        Otherwise :meth:`_drained` runs in the lane slot after the last
        request completes.
        """
        pending = self._pending
        if not pending:
            return False
        thread.blocked_from = self.sim.now
        thread.remote_fraction = self._remote_fraction()
        join = thread.wait = Join(self.sim, len(pending) + 1, self._drained, thread)
        for event in pending:
            event.add_callback(join.ok)
        join.ok()
        return True

    def _drained(self, thread: Thread) -> None:
        self._split_stall(self.sim.now - thread.blocked_from, thread.remote_fraction)
        if not (self._drain(thread) or self._after_drain(thread)):
            self._step(thread)

    def _after_drain(self, thread: Thread) -> bool:
        """Run the op behind a completed drain (None: the thread's end).

        False when the thread goes on to its next op in this step.
        """
        op = thread.op
        sim = self.sim
        if op is None:
            self._finish(thread)
            return True
        if isinstance(op, Flush):
            return False
        if isinstance(op, Stamp):
            self.stats.histogram(op.key).record(sim.now - thread.interval_start)
            thread.interval_start = sim.now
            return False
        thread.blocked_from = sim.now
        is_broadcast = isinstance(op, Broadcast)
        trace = sim.trace
        thread.op_span = (
            trace.begin(
                "nmp", "broadcast" if is_broadcast else "barrier", self.name,
                thread=thread.thread_id,
            )
            if trace.enabled
            else None
        )
        event = thread.wait = (
            self.broadcast(op) if is_broadcast else self.barrier(thread.thread_id)
        )
        event.then(self._synced, thread)
        return True

    def _synced(self, thread: Thread) -> None:
        """The broadcast or barrier completed; a failed one raises."""
        event = thread.wait
        if event.failed:
            raise event.value
        sim = self.sim
        sim.trace.end(thread.op_span)
        if isinstance(thread.op, Broadcast):
            self.stats.add("core.stall_remote_ps", sim.now - thread.blocked_from)
            self.stats.add("core.broadcasts")
        else:
            self.stats.add("core.stall_sync_ps", sim.now - thread.blocked_from)
            self.stats.add("core.barriers")
        self._step(thread)

    def _finish(self, thread: Thread) -> None:
        sim = self.sim
        self.stats.add("core.thread_ps", sim.now - thread.start)
        self.stats.add("core.threads")
        sim.trace.end(thread.span)
        thread.end = sim.now
        sim.live.discard(thread)

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
