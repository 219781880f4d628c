"""Discrete-event simulation engine.

A deliberately small SimPy-style kernel: a binary-heap event queue over
integer picosecond timestamps, plus generator-based *processes*.  A process
is a Python generator that yields one of:

* an ``int`` — sleep for that many picoseconds,
* a :class:`SimEvent` — suspend until the event succeeds; the event's value
  is sent back into the generator,
* a :class:`Process` — suspend until that process finishes,
* :class:`AllOf` — suspend until every listed event/process has finished,
* :class:`AnyOf` — suspend until the first listed event/process fires.

Events can also *fail* (:meth:`SimEvent.fail`): the exception is thrown
into every waiting process at its ``yield``, so ordinary ``try/except``
implements failover across processes.  A process whose generator raises
an :class:`Exception` fails its ``done`` event when someone is waiting on
it, and propagates the exception out of :meth:`Simulator.run` otherwise
(failures are never silent).  Any other ``BaseException`` —
``KeyboardInterrupt``, ``SystemExit`` — always aborts the run.  :meth:`Process.interrupt` cancels a pending wait
by throwing an exception into the process at the current time.

The kernel is single-threaded and deterministic: events scheduled at the
same timestamp fire in scheduling order.

Most of the model does not run as processes but as *callback chains*:
plain functions over a record, one per simulator slot, where each step
schedules the next with :meth:`Simulator.schedule` (a delay) or
:meth:`SimEvent.then` (an event), and a :class:`Join` counts down the
branches of a fork.  ``then`` takes exactly the lane slot a waiting
process's resume would, so a chain replays its generator's event order.

One loop drains the work (:meth:`Simulator.run`).  Callbacks due at a
*future* time wait on a heap of ``(time, seq, callback, arg)``; callbacks
due *now* — zero-delay schedules, process starts, event resumes — go on a
FIFO **lane** of ``(callback, arg)`` with no heap traffic.  At each
timestamp the loop runs the heap entries due now, then the lane, then
advances the clock to the next heap time.  Every heap entry due now was
pushed before the clock reached now, so its seq is below every lane
entry's: the order is exactly the global ``(time, seq)`` order
(DESIGN.md §14).
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, Iterable, List, Optional, Tuple

from repro.errors import DeadlockError, SimStallError, SimulationError
from repro.trace.recorder import NULL_RECORDER

ProcessGen = Generator[Any, Any, Any]

#: sentinel bound for the run loop: an int compares smaller than +inf, so
#: "no limit" needs no per-event None check.
_NO_BOUND = float("inf")

_heappush = heapq.heappush


class StallWatchdog:
    """No-progress detector consulted by :meth:`Simulator.run`.

    Two independent checks, both optional:

    * **Wall-clock budget** — ``wall_clock_limit_s`` starts a monotonic
      deadline *at construction time*, so one watchdog bounds a whole
      spec execution even when it spans several ``run()`` calls.  The
      loop samples the clock every ``check_interval_events`` events and
      raises :class:`~repro.errors.SimStallError` with a diagnostic
      snapshot (simulated time, event count, queue depth, blocked
      processes) once the budget is spent.
    * **Deadlock on drain** — with ``detect_deadlock`` set, a queue that
      empties while processes are still suspended raises a structured
      :class:`~repro.errors.DeadlockError` naming every waiting process
      and what it waits on.  Off by default: simulations may legitimately
      finish with service loops parked on events that never fire.

    Install process-wide with :func:`install_watchdog` (how the sweep
    harness arms per-spec budgets without threading a handle through
    every layer) or pass one directly to ``Simulator.run``.
    """

    __slots__ = (
        "wall_clock_limit_s",
        "detect_deadlock",
        "check_interval_events",
        "deadline",
    )

    def __init__(
        self,
        wall_clock_limit_s: Optional[float] = None,
        detect_deadlock: bool = False,
        check_interval_events: int = 4096,
    ) -> None:
        if wall_clock_limit_s is not None and wall_clock_limit_s <= 0:
            raise SimulationError(
                f"wall_clock_limit_s must be positive, got {wall_clock_limit_s}"
            )
        self.wall_clock_limit_s = wall_clock_limit_s
        self.detect_deadlock = detect_deadlock
        self.check_interval_events = max(1, check_interval_events)
        self.deadline = (
            time.monotonic() + wall_clock_limit_s
            if wall_clock_limit_s is not None
            else None
        )

    def check(self, sim: "Simulator", processed: int) -> None:
        """Raise :class:`SimStallError` if the wall-clock budget is spent."""
        if self.deadline is None or time.monotonic() <= self.deadline:
            return
        snapshot = sim.snapshot(events_processed=processed)
        raise SimStallError(
            f"simulation exceeded its {self.wall_clock_limit_s}s wall-clock "
            f"budget at t={sim.now}ps ({processed} events this run, "
            f"{snapshot['queue_depth']} queued, "
            f"{snapshot['live_processes']} live processes)",
            snapshot=snapshot,
        )


#: process-wide watchdog consulted by every ``Simulator.run`` when the
#: caller passes none explicitly (armed per spec by the sweep harness).
_ACTIVE_WATCHDOG: Optional[StallWatchdog] = None


def install_watchdog(watchdog: StallWatchdog) -> StallWatchdog:
    """Arm ``watchdog`` as the process-wide default; returns it."""
    global _ACTIVE_WATCHDOG
    _ACTIVE_WATCHDOG = watchdog
    return watchdog


def clear_watchdog() -> None:
    """Disarm the process-wide watchdog."""
    global _ACTIVE_WATCHDOG
    _ACTIVE_WATCHDOG = None


def active_watchdog() -> Optional[StallWatchdog]:
    """The currently armed process-wide watchdog, if any."""
    return _ACTIVE_WATCHDOG


def _describe_wait(target: Any) -> str:
    """Human-readable description of what a process is suspended on."""
    if isinstance(target, int):
        return f"delay {target}ps"
    if isinstance(target, Process):
        return f"process {target.name!r}"
    if isinstance(target, SimEvent):
        return f"event {target.name!r}"
    if isinstance(target, AllOf):
        return f"AllOf({len(target.children)} children)"
    if isinstance(target, AnyOf):
        return f"AnyOf({len(target.children)} children)"
    return "nothing (not yet waiting)" if target is None else repr(target)


class SimEvent:
    """A one-shot event that processes can wait on.

    An event starts untriggered; calling :meth:`succeed` fires it exactly
    once with an optional value, resuming every waiter.  Calling
    :meth:`fail` instead fires it with an exception, which is thrown into
    every waiting process.

    ``_callbacks`` holds, in registration order, plain callbacks and
    ``(step, arg)`` continuations — :meth:`then` records and the
    ``(_resume_waiter, waiter)`` records of suspended processes alike.
    Firing runs the former and puts the latter on the simulator's lane.
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
        """Fire the event, resuming all waiters at the current time."""
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
        """Fire the event with an exception, throwing it into every waiter.

        A failure with no registered waiter raises ``exc`` immediately at
        the fail site — failures must be handled, never dropped.
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

        The continuation of a callback chain: it takes exactly the slot a
        process waiting on the event would resume in — appended to the
        lane when the event fires, in registration order among the
        event's other callbacks, or at once if it has already fired.  It
        runs whether the event succeeded or failed; a step that can see a
        failure reads :attr:`failed` and :attr:`value` itself.
        """
        if self._triggered:
            sim = self.sim
            sim._seq += 1
            sim._lane.append((step, arg))
        else:
            self._callbacks.append((step, arg))


class _Waiter:
    """A process suspended on an event: the wait's *epoch* is frozen here,
    so a resume whose wait was cancelled in the meantime is dropped."""

    __slots__ = ("process", "epoch", "event")

    def __init__(self, process: "Process", epoch: int, event: SimEvent) -> None:
        self.process = process
        self.epoch = epoch
        self.event = event

    def resume(self) -> None:
        process = self.process
        if process._finished or self.epoch != process._epoch:
            return
        event = self.event
        process._advance(event._value, event._failed)


#: the lane callback of a fired event's waiter (plain function: no bound
#: method per resume).
_resume_waiter = _Waiter.resume


class AllOf:
    """Condition satisfied when all child events/processes have fired.

    A failing child throws its exception into the waiting process (first
    failure wins; later results are discarded).
    """

    __slots__ = ("children",)

    def __init__(self, children: Iterable[Any]) -> None:
        self.children = list(children)


class AnyOf:
    """Condition satisfied when the *first* child event/process fires.

    The waiting process resumes with the first child's value (or has its
    exception thrown, if that child failed); later firings are ignored.
    Used for timeout patterns: ``yield AnyOf([ack, sim.timeout(t)])``.
    """

    __slots__ = ("children",)

    def __init__(self, children: Iterable[Any]) -> None:
        self.children = list(children)
        if not self.children:
            raise SimulationError("AnyOf needs at least one child")


class Join:
    """A countdown over the branches of a callback chain: the chain
    counterpart of a process waiting on :class:`AllOf`.

    ``Join(sim, pending, step, arg)`` runs ``step(arg)`` in the lane slot
    after its ``pending``-th :meth:`ok`.  The creator counts one hold of
    its own and releases it with :meth:`ok` where a process would have
    yielded the ``AllOf``; every branch — a chain ending, or an event
    through ``event.add_callback(join.ok)`` — calls :meth:`ok` once.
    That takes exactly ``Process._wait_all``'s slots: a branch that ended
    before the wait counts at the wait, a later one when it ends, and
    only the last count lane-schedules the step.  A branch that fails
    never counts down; its owner handles the failure.
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


class Process:
    """A running simulation process wrapping a generator.

    The generator's return value becomes :attr:`value`, and :attr:`done`
    is a :class:`SimEvent` fired on completion.  If the generator raises
    an :class:`Exception`, ``done`` fails (throwing into any waiter); with
    no waiter the exception propagates out of :meth:`Simulator.run`, and
    ``done`` stays untriggered.  ``done`` is built on first use: a process
    nobody waits on never needs one.

    Every suspension records a wait *epoch*; resumes carry the epoch they
    were registered under and are ignored once stale.  That is what lets
    :meth:`interrupt` (and :class:`AnyOf` losers) cancel a pending wait
    without the resumed process being woken twice.
    """

    __slots__ = (
        "sim", "name", "_done", "_value", "_gen", "_finished", "_epoch", "_blocked_on"
    )

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "") -> None:
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self._done: Optional[SimEvent] = None
        self._value: Any = None
        self._gen = gen
        self._finished = False
        self._epoch = 0
        self._blocked_on: Any = None
        sim._live.add(self)
        sim._seq += 1
        sim._lane.append((self._advance, None))

    @property
    def done(self) -> SimEvent:
        """The completion event (created on first access)."""
        done = self._done
        if done is None:
            done = self._done = SimEvent(self.sim, name=f"{self.name}.done")
            if self._finished:
                # a failed process creates its (untriggered) done eagerly,
                # so finishing without one means the generator returned
                done._triggered = True
                done._value = self._value
        return done

    @property
    def finished(self) -> bool:
        """Whether the underlying generator has returned."""
        return self._finished

    @property
    def value(self) -> Any:
        """The generator's return value (None until finished)."""
        return self.done.value

    def waiting_on(self) -> str:
        """What the process is currently suspended on (diagnostics)."""
        if self._finished:
            return "finished"
        return _describe_wait(self._blocked_on)

    def interrupt(self, exc: BaseException) -> None:
        """Throw ``exc`` into the process at the current time.

        Cancels whatever the process is waiting on (timeout/cancellation
        support); a finished process ignores the interrupt.
        """
        if not isinstance(exc, BaseException):
            raise SimulationError(
                f"process {self.name!r} interrupted with non-exception {exc!r}"
            )
        self.sim._schedule_now(
            lambda _arg: None if self._finished else self._advance(exc, True), None
        )

    def _resume(self, epoch: int, throw: bool, value: Any) -> None:
        """Resume from a wait registered at ``epoch`` (ignored if stale)."""
        if self._finished or epoch != self._epoch:
            return
        self._advance(value, throw)

    def _timer_resume(self, epoch: int) -> None:
        """Callback for plain-delay waits (arg is the wait epoch)."""
        if self._finished or epoch != self._epoch:
            return
        self._advance(None)

    def _advance(self, value: Any, throw: bool = False) -> None:
        """Resume the generator with ``value`` (thrown in if ``throw``) and
        register whatever it yields next.

        The only place a generator is resumed.  Delays and plain events —
        nearly every wait — are registered inline; the rest go through
        :meth:`_wait_on`.
        """
        self._epoch += 1
        try:
            if throw:
                target = self._gen.throw(value)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self._finished = True
            self.sim._live.discard(self)
            self._value = stop.value
            if self._done is not None:
                self._done.succeed(stop.value)
            return
        except BaseException as exc:
            self._finished = True
            self.sim._live.discard(self)
            done = self._done
            if done is None:
                self._done = SimEvent(self.sim, name=f"{self.name}.done")
            elif done._callbacks and isinstance(exc, Exception):
                # deliver to a waiter if someone is listening; anything
                # else surfaces loudly out of the event loop
                done.fail(exc)
                return
            raise
        self._blocked_on = target
        kind = type(target)
        if kind is Process:
            target = target.done
            kind = SimEvent
        if kind is int:
            sim = self.sim
            if target > 0:
                sim._seq += 1
                _heappush(
                    sim._queue,
                    (sim._now + target, sim._seq, self._timer_resume, self._epoch),
                )
            elif target == 0:
                sim._seq += 1
                sim._lane.append((self._timer_resume, self._epoch))
            else:
                raise SimulationError(
                    f"process {self.name!r} yielded negative delay {target}"
                )
        elif kind is SimEvent:
            target.then(_resume_waiter, _Waiter(self, self._epoch, target))
        else:
            self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        """Register a wait on an :class:`AllOf` or :class:`AnyOf`."""
        if isinstance(target, AllOf):
            self._wait_all(target.children, self._epoch)
        elif isinstance(target, AnyOf):
            self._wait_any(target.children, self._epoch)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported {target!r}"
            )

    def _wait_all(self, children: List[Any], epoch: int) -> None:
        pending = len(children)
        if pending == 0:
            self.sim._schedule_now(lambda _arg: self._resume(epoch, False, []), None)
            return
        results: List[Any] = [None] * pending
        remaining = [pending]

        def on_done(index: int, ev: SimEvent) -> None:
            if ev.failed:
                # first failure wins; stale-epoch guard drops the rest
                self.sim._schedule_now(
                    lambda _arg: self._resume(epoch, True, ev.value), None
                )
                return
            results[index] = ev.value
            remaining[0] -= 1
            if remaining[0] == 0:
                self.sim._schedule_now(
                    lambda _arg: self._resume(epoch, False, results), None
                )

        for index, child in enumerate(children):
            event = child.done if isinstance(child, Process) else child
            if not isinstance(event, SimEvent):
                raise SimulationError(f"AllOf child {child!r} is not waitable")
            event.add_callback(lambda ev, i=index: on_done(i, ev))

    def _wait_any(self, children: List[Any], epoch: int) -> None:
        delivered = [False]

        def on_fire(ev: SimEvent) -> None:
            if delivered[0]:
                return
            delivered[0] = True
            self.sim._schedule_now(
                lambda _arg: self._resume(epoch, ev.failed, ev.value), None
            )

        for child in children:
            event = child.done if isinstance(child, Process) else child
            if not isinstance(event, SimEvent):
                raise SimulationError(f"AnyOf child {child!r} is not waitable")
            event.add_callback(on_fire)


class Simulator:
    """The event loop: a heap of future ``(time, seq, callback, arg)``
    entries plus a FIFO lane of ``(callback, arg)`` due at the current
    time."""

    __slots__ = ("_now", "_seq", "_queue", "_lane", "_live", "trace")

    def __init__(self) -> None:
        self._now = 0
        #: scheduled-callback counter: heap tie-break, and the run's event
        #: count (lane entries take a seq too, so it counts every callback)
        self._seq = 0
        #: callbacks due after ``now``, ordered by ``(time, seq)``.
        self._queue: List[Tuple[int, int, Callable[[Any], None], Any]] = []
        #: callbacks due at ``now``, in scheduling order.
        self._lane: Deque[Tuple[Callable[[Any], None], Any]] = deque()
        #: unfinished processes (diagnostics: who is blocked, and on what).
        self._live: set = set()
        #: observability hook; the shared no-op recorder unless a
        #: :class:`~repro.trace.recorder.TraceRecorder` is installed.
        self.trace = NULL_RECORDER

    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    def blocked_processes(self) -> List[Tuple[str, str]]:
        """``(name, waiting_on)`` for every unfinished process, sorted.

        Deterministic (name-sorted) so stall/deadlock diagnoses are
        stable across runs of the same simulation.
        """
        return sorted(
            (process.name, process.waiting_on()) for process in self._live
        )

    def _queued_events(self) -> int:
        """Every scheduled-but-unexecuted callback, heap and lane."""
        return len(self._queue) + len(self._lane)

    def snapshot(self, events_processed: int = 0) -> Dict[str, Any]:
        """Diagnostic state dump used by stall/deadlock reports."""
        blocked = self.blocked_processes()
        return {
            "time_ps": self._now,
            "events_processed": events_processed,
            "queue_depth": self._queued_events(),
            "live_processes": len(blocked),
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

    def _schedule_now(self, callback: Callable[[Any], None], arg: Any) -> None:
        self._seq += 1
        self._lane.append((callback, arg))

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        """Start a new process from a generator and return its handle."""
        return Process(self, gen, name=name)

    def timeout(self, delay: int, value: Any = None) -> SimEvent:
        """An event that fires ``delay`` picoseconds from now."""
        event = SimEvent(self, name="timeout")
        self.schedule(delay, event.succeed, value)
        return event

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        watchdog: Optional[StallWatchdog] = None,
    ) -> int:
        """Drain the event queue; return the final simulation time.

        ``until`` bounds simulated time; ``max_events`` guards against
        runaway simulations: the run may complete in *exactly*
        ``max_events`` events, and :class:`SimulationError` is raised only
        when one more in-horizon event would exceed the budget.  Whether
        the queue empties before the horizon or not, the clock lands on
        ``until`` (never moving backwards), so time-based rate
        denominators are consistent across both cases.

        ``watchdog`` (default: the process-wide one armed via
        :func:`install_watchdog`, if any) adds no-progress detection: a
        wall-clock budget enforced every ``check_interval_events``
        events (:class:`~repro.errors.SimStallError` with a diagnostic
        snapshot), and — when ``detect_deadlock`` is set — a structured
        :class:`~repro.errors.DeadlockError` naming the waiting
        processes if the queue drains while some are still suspended.
        """
        if watchdog is None:
            watchdog = _ACTIVE_WATCHDOG
        processed = 0
        trace = self.trace
        tracing = trace.enabled
        check_every = (
            watchdog.check_interval_events
            if watchdog is not None and watchdog.deadline is not None
            else 0
        )
        # hot loop: loop invariants live in locals, the horizon/budget
        # guards compare against +inf sentinels, and watchdog polling is
        # amortized onto a next-check threshold
        queue = self._queue
        lane = self._lane
        pop = heapq.heappop
        popleft = lane.popleft
        horizon = until if until is not None else _NO_BOUND
        budget = max_events if max_events is not None else _NO_BOUND
        next_check = check_every if check_every else _NO_BOUND
        now = self._now
        if now <= horizon:  # until < now: nothing may run, lane included
            while True:
                if queue and queue[0][0] <= now:
                    pass  # a heap entry due now precedes the whole lane
                elif lane:
                    if processed >= budget:
                        raise SimulationError(f"exceeded max_events={max_events}")
                    callback, arg = popleft()
                    callback(arg)
                    processed += 1
                    if processed >= next_check:
                        watchdog.check(self, processed)
                        next_check += check_every
                    continue
                elif queue and queue[0][0] <= horizon:
                    # nothing left at now: advance to the next heap time
                    self._now = now = queue[0][0]
                    if tracing:
                        trace.on_time_advance(now)
                else:
                    break
                if processed >= budget:
                    raise SimulationError(f"exceeded max_events={max_events}")
                entry = pop(queue)
                entry[2](entry[3])
                processed += 1
                if processed >= next_check:
                    watchdog.check(self, processed)
                    next_check += check_every
        if (
            watchdog is not None
            and watchdog.detect_deadlock
            and self._queued_events() == 0
        ):
            blocked = self.blocked_processes()
            if blocked:
                detail = "; ".join(f"{name} <- {wait}" for name, wait in blocked[:8])
                raise DeadlockError(
                    f"event queue drained at t={self._now}ps with "
                    f"{len(blocked)} blocked process(es): {detail}",
                    blocked=blocked,
                    time_ps=self._now,
                )
        if until is not None and until > self._now:
            self._now = until
            if self.trace.enabled:
                self.trace.on_time_advance(until)
        return self._now

    def run_process(self, gen: ProcessGen, name: str = "") -> Any:
        """Convenience: start a process, run to completion, return its value."""
        proc = self.process(gen, name=name)
        self.run()
        if not proc.finished:
            blocked = self.blocked_processes()
            detail = "; ".join(f"{name} <- {wait}" for name, wait in blocked[:8])
            raise DeadlockError(
                f"process {proc.name!r} deadlocked at t={self._now}ps"
                + (f" (blocked: {detail})" if detail else ""),
                blocked=blocked,
                time_ps=self._now,
            )
        return proc.value
