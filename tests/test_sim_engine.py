"""Tests for the discrete-event engine (repro.sim.engine), and for the
generator runtime the referee tests run on (tests/genproc.py)."""

import functools
import itertools
import signal

import pytest

from repro.errors import DeadlockError, SimStallError, SimulationError, SpecTimeoutError
from repro.experiments.runner import _alarm_handler
from repro.nmp.executor import ThreadExecutor, run_threads
from repro.sim import Join, Simulator, StatRegistry
from repro.sim.time import ns
from repro.workloads.ops import Barrier, Compute, Flush, Read
from tests.genproc import AllOf, Process


class _Core(ThreadExecutor):
    """Accesses complete after 1 ns; broadcasts and barriers never do."""

    def __init__(self, sim, name="core"):
        super().__init__(sim, freq_ghz=1.0, window=2, stats=StatRegistry(), name=name)

    def memory_access(self, op):
        done = self.sim.event("core.mem")
        self.sim.schedule(ns(1), done.succeed, op.nbytes)
        return done, False

    def broadcast(self, op):
        return self.sim.event("core.broadcast")

    def barrier(self, thread_id):
        return self.sim.event("core.barrier")


def _run_process(sim, gen, name=""):
    """Run ``gen`` as a process to its end; its return value."""
    handle = Process(sim, gen, name=name)
    sim.run()
    assert handle.finished
    return handle.value


def test_schedule_order_is_time_then_fifo():
    sim = Simulator()
    log = []
    sim.schedule(10, lambda _: log.append("b"))
    sim.schedule(5, lambda _: log.append("a"))
    sim.schedule(10, lambda _: log.append("c"))
    sim.run()
    assert log == ["a", "b", "c"]


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(ns(7), lambda _: seen.append(sim.now))
    sim.run()
    assert seen == [ns(7)]
    assert sim.now == ns(7)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda _: None)


def test_run_until_stops_clock():
    sim = Simulator()
    fired = []
    sim.schedule(100, lambda _: fired.append(True))
    assert sim.run(until=50) == 50
    assert not fired
    sim.run()
    assert fired


def test_run_until_advances_clock_when_queue_drains_early():
    # regression: if the queue emptied before the horizon, ``now`` stayed at
    # the last event time, making bytes/elapsed denominators inconsistent
    # with runs where the horizon cut the queue off
    sim = Simulator()
    sim.schedule(10, lambda _: None)
    assert sim.run(until=100) == 100
    assert sim.now == 100


def test_run_until_advances_clock_on_empty_queue():
    sim = Simulator()
    assert sim.run(until=75) == 75
    assert sim.now == 75


def test_run_until_never_moves_clock_backwards():
    sim = Simulator()
    sim.schedule(50, lambda _: None)
    sim.run()
    assert sim.now == 50
    assert sim.run(until=20) == 50
    assert sim.now == 50


def test_process_sleep_and_return_value():
    sim = Simulator()

    def proc():
        yield 25
        yield 25
        return "done"

    assert _run_process(sim, proc()) == "done"
    assert sim.now == 50


def test_process_waits_on_event_and_receives_value():
    sim = Simulator()
    gate = sim.event("gate")
    sim.schedule(30, lambda _: gate.succeed(42))

    def proc():
        value = yield gate
        return value

    assert _run_process(sim, proc()) == 42
    assert sim.now == 30


def test_process_waits_on_other_process():
    sim = Simulator()

    def child():
        yield 10
        return "child-value"

    def parent():
        value = yield Process(sim, child())
        return value

    assert _run_process(sim, parent()) == "child-value"


def test_allof_waits_for_every_child():
    sim = Simulator()

    def child(delay, tag):
        yield delay
        return tag

    def parent():
        procs = [Process(sim, child(d, i)) for i, d in enumerate([30, 10, 20])]
        results = yield AllOf(procs)
        return results

    assert _run_process(sim, parent()) == [0, 1, 2]
    assert sim.now == 30


def test_allof_empty_resumes_immediately():
    sim = Simulator()

    def parent():
        results = yield AllOf([])
        return results

    assert _run_process(sim, parent()) == []


def test_event_double_succeed_raises():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_yield_on_already_triggered_event():
    sim = Simulator()
    event = sim.event()
    event.succeed("early")

    def proc():
        value = yield event
        return value

    assert _run_process(sim, proc()) == "early"


def test_deadlocked_process_detected():
    # a thread whose barrier never releases is still live when the queue
    # drains: run_threads names it, and what it waits on
    sim = Simulator()
    placed = [(_Core(sim, "a"), [Compute(3), Barrier()]), (_Core(sim, "b"), [Compute(1)])]
    with pytest.raises(DeadlockError) as excinfo:
        run_threads(sim, placed)
    err = excinfo.value
    assert "stuck threads: ['a.t0']" in str(err)
    assert err.blocked == [("a.t0", "event 'core.barrier'")]
    assert err.time_ps == ns(3)


def test_yielding_garbage_raises():
    sim = Simulator()

    def proc():
        yield "not-a-waitable"

    Process(sim, proc())
    with pytest.raises(SimulationError):
        sim.run()


# -- failures --------------------------------------------------------------------


def test_event_fail_throws_into_waiter():
    sim = Simulator()
    gate = sim.event("gate")
    sim.schedule(10, lambda _: gate.fail(ValueError("boom")))

    def proc():
        try:
            yield gate
        except ValueError as exc:
            return f"recovered:{exc}"

    assert _run_process(sim, proc()) == "recovered:boom"
    assert sim.now == 10
    assert gate.failed


def test_event_fail_without_waiter_raises_at_fail_site():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.event("gate").fail(ValueError("unhandled"))


def test_event_fail_with_non_exception_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.event().fail("not-an-exception")


def test_process_failure_propagates_out_of_run_without_waiter():
    sim = Simulator()

    def proc():
        yield 5
        raise RuntimeError("loud")

    Process(sim, proc())
    with pytest.raises(RuntimeError):
        sim.run()


def test_process_failure_delivered_to_waiting_parent():
    sim = Simulator()

    def child():
        yield 5
        raise RuntimeError("child died")

    def parent():
        try:
            yield Process(sim, child())
        except RuntimeError:
            return "handled"

    assert _run_process(sim, parent()) == "handled"


def test_allof_child_failure_throws_first_failure():
    sim = Simulator()
    bad = sim.event("bad")
    sim.schedule(5, lambda _: bad.fail(ValueError("first")))

    slow = sim.event("slow")
    sim.schedule(50, slow.succeed)

    def proc():
        try:
            yield AllOf([slow, bad])
        except ValueError:
            return sim.now

    assert _run_process(sim, proc()) == 5


# -- stall and deadlock diagnosis ----------------------------------------------------


def test_blocked_processes_describe_their_wait_targets():
    sim = Simulator()
    programs = {
        "waiter": [Barrier()],
        "sleeper": [Compute(5)],
        "drainer": [Read(dimm=0, offset=0, nbytes=64), Flush()],
        "queued": [Read(dimm=0, offset=0, nbytes=64)] * 3,
    }
    for name, ops in programs.items():
        _Core(sim, name).run_thread(0, ops)
    assert dict(sim.blocked_threads())["waiter.t0"] == "nothing (not yet waiting)"
    sim.run(until=0)  # every thread reaches its first wait, nothing fires
    assert dict(sim.blocked_threads()) == {
        "waiter.t0": "event 'core.barrier'",
        "sleeper.t0": "delay 5000ps",
        "drainer.t0": "drain of 1 requests",
        "queued.t0": "event 'queued.window.acquire'",
    }


def test_wall_clock_stall_raises_with_snapshot():
    """The sweep harness's alarm, fired inside ``run``, leaves as a stall
    naming every blocked thread and what it waits on."""

    def alarm(signum, frame):
        raise SpecTimeoutError("budget spent")

    sim = Simulator()
    _Core(sim, "spinner").run_thread(0, itertools.repeat(Compute(1)))
    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, 0.05)
    try:
        with pytest.raises(SimStallError) as excinfo:
            sim.run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert isinstance(excinfo.value.__cause__, SpecTimeoutError)
    snapshot = excinfo.value.snapshot
    assert snapshot["time_ps"] == sim.now
    assert snapshot["events"] == sim._seq > 0
    assert snapshot["live_threads"] == 1
    assert snapshot["blocked"] == [("spinner.t0", "delay 1000ps")]
    assert snapshot["interrupted"] in ("ThreadExecutor._step", "_step", None)


def _stuck_callback(_arg):
    """A callback the sweep harness's alarm lands in."""
    _alarm_handler(signal.SIGALRM, None)


def test_stall_snapshot_names_the_interrupted_callback():
    """An alarm inside a callback names that callback; one between
    callbacks, where the handler's own frame sits right below ``run``'s,
    reads ``None``.  Each case calls the handler from a scheduled
    callable, so neither depends on timing."""
    cases = [
        (_stuck_callback, "_stuck_callback"),
        (functools.partial(_alarm_handler, signal.SIGALRM), None),
    ]
    for callback, interrupted in cases:
        sim = Simulator()
        sim.schedule(ns(1), callback)
        with pytest.raises(SimStallError) as excinfo:
            sim.run()
        assert excinfo.value.snapshot["interrupted"] == interrupted
        assert excinfo.value.snapshot["queue_depth"] == 0


# -- non-Exception BaseExceptions abort the run ----------------------------------------


class _Abort(BaseException):
    """Stands in for KeyboardInterrupt / SystemExit."""


def test_base_exception_thrown_into_a_waiter_is_not_a_failure():
    sim = Simulator()
    gate = sim.event("gate")

    def child():
        yield gate

    def parent():
        try:
            yield Process(sim, child(), name="child")
        except BaseException:  # a failure delivery would land here
            return "swallowed"

    handle = Process(sim, parent(), name="parent")
    sim.schedule(5, lambda _arg: gate.fail(KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        sim.run()
    assert not handle.finished


def test_failed_process_done_stays_untriggered():
    sim = Simulator()

    def proc():
        yield 5
        raise RuntimeError("loud")

    handle = Process(sim, proc())
    with pytest.raises(RuntimeError):
        sim.run()
    assert handle.finished
    assert not handle.done.triggered
    assert handle.value is None


def test_done_of_a_finished_process_is_built_fired():
    sim = Simulator()

    def proc():
        yield 5
        return "ok"

    handle = Process(sim, proc())
    sim.run()
    assert handle.done.triggered and handle.done.value == "ok"
    assert handle.done.name == "proc.done"


# -- continuations (SimEvent.then) and joins -------------------------------------------


def test_then_on_a_fired_event_takes_the_next_lane_slot():
    sim = Simulator()
    log = []
    event = sim.event("e").succeed(7)
    seq = sim._seq
    event.then(lambda arg: log.append(("step", arg, sim.now)), "a")
    sim.schedule(0, lambda arg: log.append(("after", arg, sim.now)), "b")
    assert log == [] and sim._seq == seq + 2  # queued, not run inline
    sim.run()
    assert log == [("step", "a", 0), ("after", "b", 0)]


def test_then_runs_after_a_failure_and_reads_it():
    sim = Simulator()
    seen = []
    event = sim.event("lost")

    def step(arg):
        seen.append((arg, event.failed, str(event.value), sim.now))

    event.then(step, "op")
    sim.schedule(5, event.fail, RuntimeError("link down"))
    sim.run()  # the continuation counts as a waiter: fail() does not raise
    assert seen == [("op", True, "link down", 5)]


def test_then_keeps_its_place_among_waiters_and_plain_callbacks():
    sim = Simulator()
    log = []
    event = sim.event("shared")

    def waiter(tag):
        value = yield event
        log.append((tag, value))

    Process(sim, waiter("w1"))
    sim.run()  # the waiter registers first
    event.then(lambda arg: log.append((arg, event.value)), "then")
    event.add_callback(lambda ev: log.append(("plain", ev.value)))
    Process(sim, waiter("w2"))
    sim.run()
    sim.schedule(3, event.succeed, "v")
    sim.run()
    # the plain callback runs inside succeed(); the processes' waits and
    # the continuation take lane slots in registration order
    assert log == [("plain", "v"), ("w1", "v"), ("then", "v"), ("w2", "v")]


def _join_twins(outcomes):
    """Run a process waiting on ``AllOf`` and a ``Join`` over the same
    branch events; ``outcomes`` lists ``(delay, fails)`` per branch, delay
    0 meaning fired before the wait.  Both waits register in the first
    lane slot: the process start, or the step that builds the join.  A
    failed branch takes a lane slot of its own, and the first one ends
    the wait, as the packet network's floods do."""
    runs = []
    for use_join in (False, True):
        sim = Simulator()
        log = []
        events = [sim.event(f"b{i}") for i in range(len(outcomes))]
        for event, (delay, fails) in zip(events, outcomes):
            if delay == 0:
                event.succeed("early")
            elif fails:
                sim.schedule(delay, event.fail, RuntimeError(f"{event.name} failed"))
            else:
                sim.schedule(delay, event.succeed, event.name)
        # a bystander lane entry after every wake-up shows the slot order
        for time in sorted({d for d, _f in outcomes} | {0}):
            sim.schedule(time, lambda t: sim.schedule(0, log.append, ("tick", t)), time)
        if use_join:
            failed = []

            def failure(exc):
                if not failed:
                    failed.append(exc)
                    log.append(("done", sim.now, str(exc)))

            def wait(_arg):
                for event, (_delay, fails) in zip(events, outcomes):
                    if fails:
                        event.add_callback(lambda ev: sim.schedule(0, failure, ev.value))
                    else:
                        event.add_callback(join.ok)
                join.ok()

            join = Join(sim, len(events) + 1, lambda _arg: log.append(("done", sim.now, None)))
            sim.schedule(0, wait)
        else:

            def waiting():
                try:
                    yield AllOf(events)
                except RuntimeError as exc:
                    log.append(("done", sim.now, str(exc)))
                    return
                log.append(("done", sim.now, None))

            Process(sim, waiting())
        sim.run()
        runs.append((log, sim.now, sim._seq))
    return runs


@pytest.mark.parametrize(
    "outcomes",
    [
        [(0, False), (0, False)],
        [],
        [(0, False), (4, False), (2, False)],
        [(3, True), (5, True), (1, False)],
        [(2, False), (2, True), (2, True)],
    ],
)
def test_join_takes_the_slots_of_a_wait_on_allof(outcomes):
    process_run, join_run = _join_twins(outcomes)
    assert join_run == process_run
