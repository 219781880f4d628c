"""Reference-order test for the event loop.

:mod:`repro.sim.engine` runs same-time work from a FIFO lane, continues
chains in lane slots (``SimEvent.then``, ``Join``) and hands out shared
pre-fired grants.  The referee below is the kernel it replaced, kept
deliberately naive: every schedule — same-time ones included — is a heap
push, every wait registers a closure, and a ``Join`` reaching zero
schedules its step with zero delay.  Its ``SimEvent.then`` is the lambda
bounce callback chains used before the primitive existed: a plain
callback that schedules the step with zero delay.  Seeded random
programs run as generator processes — the referee's own on its side,
:mod:`tests.genproc` on the engine's — and drive both kernels through
zero-delay and at-now callbacks, waits on fired events and finished
processes, ``then`` continuations, ``Join`` countdowns and plain
callbacks on fired, failing and shared events, ``AllOf`` with failures,
``run(until=)`` segments (including ``until < now``) and failures that
escape ``run`` with same-time work still on the lane.  The callback
order, clock values, final ``_seq``, return values and exceptions must
be identical.
"""

import heapq
import random
from typing import Any, List

import pytest

from repro.errors import SimulationError
from repro.sim import engine
from tests import genproc

# -- the referee: one heap push per schedule, closures ------------------------------


class SimEvent:
    def __init__(self, sim, name=""):
        self.sim = sim
        self.name = name
        self._value = None
        self._triggered = False
        self._failed = False
        self._callbacks = []

    @property
    def triggered(self):
        return self._triggered

    @property
    def failed(self):
        return self._failed

    @property
    def value(self):
        return self._value

    def succeed(self, value=None):
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)
        return self

    def fail(self, exc):
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._failed = True
        self._value = exc
        callbacks, self._callbacks = self._callbacks, []
        if not callbacks:
            raise exc
        for callback in callbacks:
            callback(self)
        return self

    def add_callback(self, callback):
        if self._triggered:
            callback(self)
        else:
            self._callbacks.append(callback)

    def then(self, step, arg=None):
        self.add_callback(lambda _event: self.sim.schedule(0, step, arg))


class AllOf:
    def __init__(self, children):
        self.children = list(children)


class Join:
    def __init__(self, sim, pending, step, arg=None):
        self.sim = sim
        self.pending = pending
        self.step = step
        self.arg = arg

    def ok(self, _event=None):
        self.pending -= 1
        if self.pending == 0:
            self.sim.schedule(0, self.step, self.arg)


class Process:
    def __init__(self, sim, gen, name=""):
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self.done = SimEvent(sim, name=f"{self.name}.done")
        self._gen = gen
        self._finished = False
        self._epoch = 0
        sim._schedule_now(lambda _arg: self._advance(False, None), None)

    @property
    def finished(self):
        return self._finished

    @property
    def value(self):
        return self.done.value

    def _resume(self, epoch, throw, value):
        if self._finished or epoch != self._epoch:
            return
        self._advance(throw, value)

    def _advance(self, throw, value):
        self._epoch += 1
        try:
            target = self._gen.throw(value) if throw else self._gen.send(value)
        except StopIteration as stop:
            self._finished = True
            self.done.succeed(stop.value)
            return
        except BaseException as exc:
            self._finished = True
            if self.done._callbacks:
                self.done.fail(exc)
                return
            raise
        self._wait_on(target)

    def _wait_on(self, target):
        epoch = self._epoch
        if isinstance(target, int):
            if target < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded negative delay {target}"
                )
            self.sim.schedule(target, lambda _arg: self._resume(epoch, False, None))
        elif isinstance(target, (SimEvent, Process)):
            event = target.done if isinstance(target, Process) else target
            event.add_callback(
                lambda ev: self.sim._schedule_now(
                    lambda _arg: self._resume(epoch, ev.failed, ev.value), None
                )
            )
        elif isinstance(target, AllOf):
            self._wait_all(target.children, epoch)
        else:
            raise SimulationError(f"process {self.name!r} yielded unsupported {target!r}")

    def _wait_all(self, children, epoch):
        pending = len(children)
        if pending == 0:
            self.sim._schedule_now(lambda _arg: self._resume(epoch, False, []), None)
            return
        results: List[Any] = [None] * pending
        remaining = [pending]

        def on_done(index, ev):
            if ev.failed:
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
            event.add_callback(lambda ev, i=index: on_done(i, ev))


class Simulator:
    def __init__(self):
        self._now = 0
        self._seq = 0
        self._queue = []

    @property
    def now(self):
        return self._now

    def _queued_events(self):
        return len(self._queue)

    def event(self, name=""):
        return SimEvent(self, name=name)

    def schedule(self, delay, callback, arg=None):
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, callback, arg))

    def at(self, time, callback, arg=None):
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past (delay={time - self._now})"
            )
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, callback, arg))

    def _schedule_now(self, callback, arg):
        self._seq += 1
        heapq.heappush(self._queue, (self._now, self._seq, callback, arg))

    def run(self, until=None):
        queue = self._queue
        while queue:
            time = queue[0][0]
            if until is not None and time > until:
                break
            entry = heapq.heappop(queue)
            self._now = time
            entry[2](entry[3])
        if until is not None and until > self._now:
            self._now = until
        return self._now


class _Referee:
    """Namespace with the same names the programs use from a kernel."""

    Simulator = Simulator
    Process = Process
    AllOf = AllOf
    Join = Join


class _Lane:
    """The engine, with generator processes from :mod:`tests.genproc`."""

    Simulator = engine.Simulator
    Process = genproc.Process
    AllOf = genproc.AllOf
    Join = engine.Join


KERNELS = {"lane": _Lane, "referee": _Referee}

# -- seeded random process programs -------------------------------------------------


OPS = (
    "sleep", "sched", "at_now", "at", "event", "wait_event", "spawn", "then", "plain",
    "shared", "wait_proc", "allof", "join", "fire", "raise",
)


def make_program(rng, depth, chaos):
    steps = []
    for _ in range(rng.randint(2, 8)):
        op = rng.choice(OPS)
        if op == "sleep":
            steps.append(("sleep", rng.choice((0, 0, 1, 3, 8))))
        elif op == "sched":
            steps.append(("sched", rng.choice((0, 0, 2, 5))))
        elif op == "at_now":
            steps.append(("at_now",))
        elif op == "at":
            steps.append(("at", rng.choice((0, 1, 4, 9))))
        elif op == "event":
            steps.append(("event", rng.choice((0, 0, 2, 6)), chaos and rng.random() < 0.3))
        elif op == "shared":
            fails = chaos and rng.random() < 0.4
            steps.append(("shared", rng.choice((0, 1, 4)), fails, rng.random() < 0.5))
        elif op in ("wait_event", "wait_proc", "fire", "then", "plain"):
            steps.append((op, rng.randrange(64)))
        elif op == "spawn" and depth < 2:
            steps.append(("spawn", make_program(rng, depth + 1, chaos)))
        elif op in ("allof", "join"):
            steps.append((op, [rng.randrange(64) for _ in range(rng.randint(0, 3))]))
        elif op == "raise" and chaos:
            steps.append(("raise",))
    return steps


class World:
    """One simulator plus the shared event/process pools its programs use."""

    def __init__(self, kernel, seed, chaos=True):
        self.kernel = kernel
        self.sim = kernel.Simulator()
        self.log = []
        self.events = []
        self.procs = []
        rng = random.Random(seed)
        for _ in range(rng.randint(2, 5)):
            self.spawn(make_program(rng, 0, chaos))
        for i in range(rng.randint(0, 4)):
            self.sim.schedule(rng.choice((0, 1, 5, 12)), self.note, f"raw{i}")
        self.horizons = sorted(rng.sample(range(0, 40), 4))
        #: how often the rarer paths were hit (coverage only, not logged)
        self.seen = dict.fromkeys(
            ("fired_wait", "finished_wait", "mid_lane_raise", "lane_behind_horizon",
             "fired_then", "failed_then", "shared_event", "pending_join"), 0
        )
        #: event index -> kinds registered on it while untriggered
        self.kinds = {}

    def note(self, tag):
        self.log.append((self.sim.now, "cb", tag))

    def register(self, index, kind):
        event = self.events[index]
        if not event.triggered:
            kinds = self.kinds.setdefault(index, set())
            kinds.add(kind)
            self.seen["shared_event"] += kinds == {"waiter", "then", "plain"}

    def resumed(self, step):
        """A ``then`` continuation: logs what it reads off its event."""
        tag, event = step
        self.seen["failed_then"] += event.failed
        self.log.append((self.sim.now, "then", tag, event.failed, repr(event.value)))

    def joined(self, tag):
        """A ``Join`` step: logs when its last branch counted down."""
        self.log.append((self.sim.now, "join", tag))

    def spawn(self, steps):
        pid = f"p{len(self.procs)}"
        self.procs.append(self.kernel.Process(self.sim, self.body(pid, steps), name=pid))

    def fire(self, index, fail):
        event = self.events[index]
        if event.triggered:
            return
        if fail:
            event.fail(ValueError(f"e{index} failed"))
        else:
            event.succeed(("e", index))

    def pool(self, index):
        pool = self.events + self.procs
        return pool[index % len(pool)]

    def body(self, pid, steps):
        sim, log, kernel = self.sim, self.log, self.kernel
        for n, step in enumerate(steps):
            op = step[0]
            if op == "raise":
                raise ValueError(f"{pid} raised")
            outcome: Any = None
            try:
                if op == "sleep":
                    outcome = yield step[1]
                elif op == "sched":
                    sim.schedule(step[1], self.note, f"{pid}.{n}")
                elif op == "at_now":
                    sim.at(sim.now, self.note, f"{pid}.{n}")
                elif op == "at":
                    sim.at(sim.now + step[1], self.note, f"{pid}.{n}")
                elif op == "event":
                    index = len(self.events)
                    self.events.append(sim.event(f"e{index}"))
                    sim.schedule(step[1], lambda _a, i=index, f=step[2]: self.fire(i, f))
                elif op == "wait_event" and self.events:
                    index = step[1] % len(self.events)
                    event = self.events[index]
                    self.seen["fired_wait"] += event.triggered
                    self.register(index, "waiter")
                    outcome = yield event
                elif op == "then" and self.events:
                    index = step[1] % len(self.events)
                    event = self.events[index]
                    self.seen["fired_then"] += event.triggered
                    self.register(index, "then")
                    event.then(self.resumed, (f"{pid}.{n}", event))
                elif op == "shared":
                    # a continuation, a plain callback and this process's
                    # wait, all on one fresh event
                    index = len(self.events)
                    event = sim.event(f"e{index}")
                    self.events.append(event)
                    sim.schedule(step[1], lambda _a, i=index, f=step[2]: self.fire(i, f))
                    kinds = ("then", "plain") if step[3] else ("plain", "then")
                    for kind in kinds:
                        self.register(index, kind)
                        if kind == "then":
                            event.then(self.resumed, (f"{pid}.{n}", event))
                        else:
                            event.add_callback(
                                lambda ev, tag=f"{pid}.{n}": self.log.append(
                                    (sim.now, "plain", tag, ev.failed, repr(ev.value))
                                )
                            )
                    self.register(index, "waiter")
                    outcome = yield event
                elif op == "plain" and self.events:
                    index = step[1] % len(self.events)
                    self.register(index, "plain")
                    self.events[index].add_callback(
                        lambda ev, tag=f"{pid}.{n}": self.log.append(
                            (sim.now, "plain", tag, ev.failed, repr(ev.value))
                        )
                    )
                elif op == "spawn":
                    self.spawn(step[1])
                elif op == "wait_proc":
                    target = self.procs[step[1] % len(self.procs)]
                    self.seen["finished_wait"] += target.finished
                    outcome = yield target
                elif op == "allof":
                    outcome = yield kernel.AllOf([self.pool(i) for i in step[1]])
                elif op == "join":
                    # a chain's fork: one hold, then each branch counts down
                    events = [
                        child.done if isinstance(child, kernel.Process) else child
                        for child in map(self.pool, step[1])
                    ]
                    self.seen["pending_join"] += any(not e.triggered for e in events)
                    join = kernel.Join(sim, len(events) + 1, self.joined, f"{pid}.{n}")
                    for event in events:
                        event.add_callback(join.ok)
                    join.ok()
                elif op == "fire" and self.events:
                    self.fire(step[1] % len(self.events), False)
            except Exception as exc:
                outcome = ("exc", type(exc).__name__, str(exc))
            log.append((sim.now, pid, n, op, outcome))
        return ("ret", pid)

    def run(self, **kwargs):
        """One ``run`` call; logs how it ended.  True if it returned."""
        sim = self.sim
        try:
            end = sim.run(**kwargs)
        except Exception as exc:
            self.seen["mid_lane_raise"] += bool(getattr(sim, "_lane", None))
            self.log.append(("raised", type(exc).__name__, str(exc), sim.now,
                             sim._seq, sim._queued_events()))
            return False
        self.log.append(("ran", end, sim.now, sim._seq, sim._queued_events()))
        return True

    def outcome(self):
        return {
            "log": self.log,
            "now": self.sim.now,
            "seq": self.sim._seq,
            "queued": self.sim._queued_events(),
            "procs": [(p.finished, repr(p.value)) for p in self.procs],
            "events": [(e.triggered, e.failed, repr(e.value)) for e in self.events],
        }


def drive(kernel, seed):
    world = World(kernel, seed)
    for horizon in world.horizons:
        world.run(until=horizon)
        if world.sim.now > 0:
            # until < now: nothing may run, lane included
            world.seen["lane_behind_horizon"] += bool(getattr(world.sim, "_lane", None))
            world.run(until=world.sim.now - 1)
    for _ in range(64):  # resume after every escaping failure
        if world.run():
            break
    return world.outcome(), world.seen


SEEDS = range(60)


@pytest.mark.parametrize("seed", SEEDS)
def test_lane_kernel_matches_referee(seed):
    lane, _ = drive(KERNELS["lane"], seed)
    referee, _ = drive(KERNELS["referee"], seed)
    assert lane == referee


def test_programs_reach_the_interesting_paths():
    """The seeds above must actually exercise what they claim to."""
    seen_total = {}
    kinds = set()
    for seed in SEEDS:
        outcome, seen = drive(KERNELS["lane"], seed)
        for key, count in seen.items():
            seen_total[key] = seen_total.get(key, 0) + count
        for entry in outcome["log"]:
            if entry[0] == "ran":
                kinds.add(entry[0])
            elif entry[0] == "raised":
                kinds.add(entry[1])
            elif entry[1] in ("cb", "join"):
                kinds.add(entry[1])
            elif isinstance(entry[4], tuple) and entry[4][0] == "exc":
                kinds.add(("exc", entry[4][1]))
    # waits on fired events and finished processes, failures escaping
    # with same-time work pending, past horizons with the lane non-empty,
    # and joins that waited on a branch
    assert all(count > 0 for count in seen_total.values()), seen_total
    assert {"ran", "cb", "join"} <= kinds
    assert {"ValueError", ("exc", "ValueError")} <= kinds
