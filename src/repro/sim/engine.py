"""Discrete-event simulation engine.

A deliberately small kernel: a binary-heap event queue over integer
picosecond timestamps, one-shot events (:class:`SimEvent`), and
*callback chains*.  A chain is a set of plain functions over a record,
one per simulator slot: each step schedules the next with
:meth:`Simulator.schedule` (a delay) or :meth:`SimEvent.then` (an
event), and a :class:`Join` counts down the branches of a fork.  The
whole model runs this way — the cores' threads
(:mod:`repro.nmp.executor`), memory requests, DL packets, IDC operations,
barriers and polling notices.

Events can also *fail* (:meth:`SimEvent.fail`): a continuation still
runs in its slot and reads :attr:`SimEvent.failed` itself, so failover
is the step after the failed wait.  A failure nobody waits on raises at
the fail site (failures are never silent).

The kernel is single-threaded and deterministic: events scheduled at the
same timestamp fire in scheduling order.

One loop drains the work (:meth:`Simulator.run`).  Callbacks due at a
*future* time wait on a heap of ``(time, seq, callback, arg)``; callbacks
due *now* — zero-delay schedules, thread starts, continuations of fired
events — go on a FIFO **lane** of ``(callback, arg)`` with no heap
traffic.  At each timestamp the loop runs the heap entries due now, then
the lane, then advances the clock to the next heap time.  Every heap
entry due now was pushed before the clock reached now, so its seq is
below every lane entry's: the order is exactly the global ``(time,
seq)`` order (DESIGN.md §14).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import SimStallError, SimulationError, SpecTimeoutError
from repro.trace.recorder import NULL_RECORDER

#: sentinel bound for the run loop: an int compares smaller than +inf, so
#: "no limit" needs no per-event None check.
_NO_BOUND = float("inf")

_heappush = heapq.heappush


class SimEvent:
    """A one-shot event that callback chains wait on.

    An event starts untriggered; calling :meth:`succeed` fires it exactly
    once with an optional value.  Calling :meth:`fail` instead fires it
    with an exception, which every continuation reads off the event.

    ``_callbacks`` holds, in registration order, plain callbacks
    (:meth:`add_callback`) and ``(step, arg)`` continuations
    (:meth:`then`).  Firing runs the former and puts the latter on the
    simulator's lane.
    """

    __slots__ = ("sim", "name", "_value", "_triggered", "_failed", "_callbacks")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._value: Any = None
        self._triggered = False
        self._failed = False
        self._callbacks: List[Any] = []

    @property
    def triggered(self) -> bool:
        """Whether the event has already fired."""
        return self._triggered

    @property
    def failed(self) -> bool:
        """Whether the event fired with an exception instead of a value."""
        return self._failed

    @property
    def value(self) -> Any:
        """The value the event fired with (None before triggering).

        For failed events this is the exception instance.
        """
        return self._value

    def succeed(self, value: Any = None) -> "SimEvent":
        """Fire the event: run its plain callbacks, lane its continuations."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            sim = self.sim
            lane = sim._lane
            for callback in callbacks:
                if type(callback) is tuple:
                    sim._seq += 1
                    lane.append(callback)
                else:
                    callback(self)
        return self

    def fail(self, exc: BaseException) -> "SimEvent":
        """Fire the event with an exception as its value.

        A failure with no registered callback raises ``exc`` immediately
        at the fail site — failures must be handled, never dropped.
        """
        if not isinstance(exc, BaseException):
            raise SimulationError(
                f"event {self.name!r} failed with non-exception {exc!r}"
            )
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._failed = True
        if not self._callbacks:
            self._triggered = True
            self._value = exc
            raise exc
        return self.succeed(exc)

    def add_callback(self, callback: Callable[["SimEvent"], None]) -> None:
        """Run ``callback(event)`` when the event fires (now if already fired)."""
        if self._triggered:
            callback(self)
        else:
            self._callbacks.append(callback)

    def then(self, step: Callable[[Any], None], arg: Any = None) -> None:
        """Run ``step(arg)`` in the lane slot after the event fires.

        The continuation of a callback chain: appended to the lane when
        the event fires, in registration order among the event's other
        callbacks, or at once if it has already fired.  It runs whether
        the event succeeded or failed; a step that can see a failure
        reads :attr:`failed` and :attr:`value` itself.
        """
        if self._triggered:
            sim = self.sim
            sim._seq += 1
            sim._lane.append((step, arg))
        else:
            self._callbacks.append((step, arg))


class Join:
    """A countdown over the branches of a fork in a callback chain.

    ``Join(sim, pending, step, arg)`` runs ``step(arg)`` in the lane slot
    after its ``pending``-th :meth:`ok`.  The creator counts one hold of
    its own and releases it with :meth:`ok` once every branch is
    registered; every branch — a chain ending, or an event through
    ``event.add_callback(join.ok)`` — calls :meth:`ok` once.  A branch
    that ended before the release counts at the release, a later one
    when it ends, and only the last count lane-schedules the step: one
    lane slot after the last branch, or after the release if none is
    left (DESIGN.md §12).  A chain branch that fails never counts down;
    its owner handles the failure.
    """

    __slots__ = ("sim", "pending", "step", "arg")

    def __init__(
        self, sim: "Simulator", pending: int, step: Callable[[Any], None], arg: Any = None
    ) -> None:
        self.sim = sim
        self.pending = pending
        self.step = step
        self.arg = arg

    def ok(self, _event: Any = None) -> None:
        """One branch, or the creator's hold, is done."""
        self.pending -= 1
        if not self.pending:
            sim = self.sim
            sim._seq += 1
            sim._lane.append((self.step, self.arg))


class Simulator:
    """The event loop: a heap of future ``(time, seq, callback, arg)``
    entries plus a FIFO lane of ``(callback, arg)`` due at the current
    time."""

    __slots__ = ("_now", "_seq", "_queue", "_lane", "live", "trace")

    def __init__(self) -> None:
        self._now = 0
        #: scheduled-callback counter: heap tie-break, and the run's event
        #: count (lane entries take a seq too, so it counts every callback)
        self._seq = 0
        #: callbacks due after ``now``, ordered by ``(time, seq)``.
        self._queue: List[Tuple[int, int, Callable[[Any], None], Any]] = []
        #: callbacks due at ``now``, in scheduling order.
        self._lane: Deque[Tuple[Callable[[Any], None], Any]] = deque()
        #: unfinished threads, each with a ``name`` and a ``waiting_on()``
        #: (diagnostics: who is blocked, and on what).
        self.live: set = set()
        #: observability hook; the shared no-op recorder unless a
        #: :class:`~repro.trace.recorder.TraceRecorder` is installed.
        self.trace = NULL_RECORDER

    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    def blocked_threads(self) -> List[Tuple[str, str]]:
        """``(name, waiting_on)`` for every unfinished thread, sorted.

        Deterministic (name-sorted) so stall/deadlock diagnoses are
        stable across runs of the same simulation.
        """
        return sorted((thread.name, thread.waiting_on()) for thread in self.live)

    def _queued_events(self) -> int:
        """Every scheduled-but-unexecuted callback, heap and lane."""
        return len(self._queue) + len(self._lane)

    def snapshot(self) -> Dict[str, Any]:
        """Diagnostic state dump used by stall reports."""
        blocked = self.blocked_threads()
        return {
            "time_ps": self._now,
            "events": self._seq,
            "queue_depth": self._queued_events(),
            "live_threads": len(blocked),
            "blocked": blocked[:16],
        }

    def event(self, name: str = "") -> SimEvent:
        """Create a fresh untriggered event bound to this simulator."""
        return SimEvent(self, name=name)

    def schedule(self, delay: int, callback: Callable[[Any], None], arg: Any = None) -> None:
        """Run ``callback(arg)`` after ``delay`` picoseconds."""
        if delay > 0:
            self._seq += 1
            _heappush(self._queue, (self._now + delay, self._seq, callback, arg))
        elif delay == 0:
            self._seq += 1
            self._lane.append((callback, arg))
        else:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")

    def at(self, time: int, callback: Callable[[Any], None], arg: Any = None) -> None:
        """Run ``callback(arg)`` at absolute time ``time``."""
        if time > self._now:
            self._seq += 1
            _heappush(self._queue, (time, self._seq, callback, arg))
        elif time == self._now:
            self._seq += 1
            self._lane.append((callback, arg))
        else:
            raise SimulationError(
                f"cannot schedule in the past (delay={time - self._now})"
            )

    def run(self, until: Optional[int] = None) -> int:
        """Drain the event queue; return the final simulation time.

        ``until`` bounds simulated time.  Whether the queue empties
        before the horizon or not, the clock lands on ``until`` (never
        moving backwards), so time-based rate denominators are
        consistent across both cases.

        A spec's wall-clock budget is the sweep harness's SIGALRM
        (:func:`repro.experiments.runner.supervised_call`).  Its
        :class:`~repro.errors.SpecTimeoutError`, raised in the middle of
        the loop, leaves as :class:`~repro.errors.SimStallError` carrying
        :meth:`snapshot`, so a hung simulation names its blocked threads.
        The snapshot's ``interrupted`` is the qualified name of the
        callback the alarm landed in, or ``None`` if it landed between
        callbacks.
        """
        trace = self.trace
        tracing = trace.enabled
        # hot loop: loop invariants live in locals, and the horizon guard
        # compares against a +inf sentinel
        queue = self._queue
        lane = self._lane
        pop = heapq.heappop
        popleft = lane.popleft
        horizon = until if until is not None else _NO_BOUND
        now = self._now
        if now <= horizon:  # until < now: nothing may run, lane included
            try:
                while True:
                    if queue and queue[0][0] <= now:
                        pass  # a heap entry due now precedes the whole lane
                    elif lane:
                        callback, arg = popleft()
                        callback(arg)
                        continue
                    elif queue and queue[0][0] <= horizon:
                        # nothing left at now: advance to the next heap time
                        self._now = now = queue[0][0]
                        if tracing:
                            trace.on_time_advance(now)
                    else:
                        break
                    entry = pop(queue)
                    entry[2](entry[3])
            except SpecTimeoutError as exc:
                snapshot = self.snapshot()
                # the frame below run's is the callback the alarm landed in;
                # between callbacks it is the alarm handler's own, the frame
                # that raised
                below = exc.__traceback__.tb_next
                interrupted = None
                if below is not None and below.tb_next is not None:
                    code = below.tb_frame.f_code
                    # Python 3.10 has no co_qualname
                    interrupted = getattr(code, "co_qualname", code.co_name)
                snapshot["interrupted"] = interrupted
                raise SimStallError(
                    f"simulation exceeded its wall-clock budget at "
                    f"t={self._now}ps ({snapshot['events']} events, "
                    f"{snapshot['queue_depth']} queued, "
                    f"{snapshot['live_threads']} live threads)",
                    snapshot=snapshot,
                ) from exc
        if until is not None and until > self._now:
            self._now = until
            if self.trace.enabled:
                self.trace.on_time_advance(until)
        return self._now
