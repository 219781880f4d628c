"""Tests for the discrete-event engine (repro.sim.engine)."""

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, AnyOf, Join, Simulator
from repro.sim.time import ns


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

    assert sim.run_process(proc()) == "done"
    assert sim.now == 50


def test_process_waits_on_event_and_receives_value():
    sim = Simulator()
    gate = sim.event("gate")
    sim.schedule(30, lambda _: gate.succeed(42))

    def proc():
        value = yield gate
        return value

    assert sim.run_process(proc()) == 42
    assert sim.now == 30


def test_process_waits_on_other_process():
    sim = Simulator()

    def child():
        yield 10
        return "child-value"

    def parent():
        value = yield sim.process(child())
        return value

    assert sim.run_process(parent()) == "child-value"


def test_allof_waits_for_every_child():
    sim = Simulator()

    def child(delay, tag):
        yield delay
        return tag

    def parent():
        procs = [sim.process(child(d, i)) for i, d in enumerate([30, 10, 20])]
        results = yield AllOf(procs)
        return results

    assert sim.run_process(parent()) == [0, 1, 2]
    assert sim.now == 30


def test_allof_empty_resumes_immediately():
    sim = Simulator()

    def parent():
        results = yield AllOf([])
        return results

    assert sim.run_process(parent()) == []


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

    assert sim.run_process(proc()) == "early"


def test_timeout_event_value():
    sim = Simulator()

    def proc():
        value = yield sim.timeout(15, value="tick")
        return value

    assert sim.run_process(proc()) == "tick"
    assert sim.now == 15


def test_max_events_guard():
    sim = Simulator()

    def rearm(_):
        sim.schedule(1, rearm)

    sim.schedule(1, rearm)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_deadlocked_process_detected():
    sim = Simulator()

    def proc():
        yield sim.event("never")

    proc_handle = sim.process(proc())
    sim.run()
    assert not proc_handle.finished
    with pytest.raises(SimulationError):
        sim.run_process(iter([sim.event("never2")].__iter__()) if False else _stuck(sim))


def _stuck(sim):
    yield sim.event("never3")


def test_yielding_garbage_raises():
    sim = Simulator()

    def proc():
        yield "not-a-waitable"

    sim.process(proc())
    with pytest.raises(SimulationError):
        sim.run()


# -- failure, cancellation, and AnyOf semantics ------------------------------------


def test_event_fail_throws_into_waiter():
    sim = Simulator()
    gate = sim.event("gate")
    sim.schedule(10, lambda _: gate.fail(ValueError("boom")))

    def proc():
        try:
            yield gate
        except ValueError as exc:
            return f"recovered:{exc}"

    assert sim.run_process(proc()) == "recovered:boom"
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

    sim.process(proc())
    with pytest.raises(RuntimeError):
        sim.run()


def test_process_failure_delivered_to_waiting_parent():
    sim = Simulator()

    def child():
        yield 5
        raise RuntimeError("child died")

    def parent():
        try:
            yield sim.process(child())
        except RuntimeError:
            return "handled"

    assert sim.run_process(parent()) == "handled"


def test_anyof_first_event_wins_and_losers_are_ignored():
    sim = Simulator()
    def proc():
        value = yield AnyOf([sim.timeout(50, "slow"), sim.timeout(10, "fast")])
        return value

    assert sim.run_process(proc()) == "fast"


def test_anyof_timeout_pattern_guards_a_hung_event():
    sim = Simulator()
    def proc():
        result = yield AnyOf([sim.event("never-acked"), sim.timeout(100, "timeout")])
        return result

    assert sim.run_process(proc()) == "timeout"
    assert sim.now == 100


def test_anyof_needs_children():
    with pytest.raises(SimulationError):
        AnyOf([])


def test_allof_child_failure_throws_first_failure():
    sim = Simulator()
    bad = sim.event("bad")
    sim.schedule(5, lambda _: bad.fail(ValueError("first")))

    def proc():
        try:
            yield AllOf([sim.timeout(50), bad])
        except ValueError:
            return sim.now

    assert sim.run_process(proc()) == 5


def test_interrupt_cancels_pending_sleep():
    sim = Simulator()

    def proc():
        try:
            yield 1000
        except TimeoutError:
            return sim.now

    handle = sim.process(proc())
    sim.schedule(100, lambda _: handle.interrupt(TimeoutError()))
    sim.run()
    assert handle.value == 100
    # the stale 1000ps wakeup must not resume the finished process
    assert sim.now >= 1000 or handle.finished


def test_interrupt_after_finish_is_ignored():
    sim = Simulator()

    def proc():
        yield 10
        return "ok"

    handle = sim.process(proc())
    sim.schedule(50, lambda _: handle.interrupt(RuntimeError("late")))
    sim.run()
    assert handle.value == "ok"


def test_interrupt_with_non_exception_rejected():
    sim = Simulator()

    def proc():
        yield 10

    handle = sim.process(proc())
    with pytest.raises(SimulationError):
        handle.interrupt("oops")


# -- stall watchdog / deadlock diagnosis ---------------------------------------------


def test_run_process_deadlock_error_names_blocked_processes():
    from repro.errors import DeadlockError

    sim = Simulator()

    def stuck():
        yield sim.event("never-fires")

    with pytest.raises(DeadlockError) as excinfo:
        sim.run_process(stuck(), name="stuck-proc")
    err = excinfo.value
    assert ("stuck-proc", "event 'never-fires'") in err.blocked
    assert "stuck-proc" in str(err)
    assert "never-fires" in str(err)


def test_blocked_processes_describe_their_wait_targets():
    sim = Simulator()

    def on_event():
        yield sim.event("ack")

    def on_delay():
        yield ns(5)

    sim.process(on_event(), name="waiter")
    sim.process(on_delay(), name="sleeper")
    sim.run(until=0)  # let both reach their first yield, nothing fires
    blocked = dict(sim.blocked_processes())
    assert blocked["waiter"] == "event 'ack'"
    assert blocked["sleeper"].startswith("delay ")


def test_wall_clock_stall_raises_with_snapshot():
    from repro.errors import SimStallError
    from repro.sim import StallWatchdog

    sim = Simulator()

    def spin():
        while True:
            yield 1

    sim.process(spin(), name="spinner")
    watchdog = StallWatchdog(wall_clock_limit_s=0.05, check_interval_events=64)
    with pytest.raises(SimStallError) as excinfo:
        sim.run(watchdog=watchdog)
    snapshot = excinfo.value.snapshot
    assert snapshot["time_ps"] == sim.now
    assert snapshot["events_processed"] > 0
    assert ("spinner", "delay 1ps") in snapshot["blocked"]


def test_deadlock_detected_on_queue_drain_when_enabled():
    from repro.errors import DeadlockError
    from repro.sim import StallWatchdog

    sim = Simulator()

    def stuck():
        yield sim.event("missing-ack")

    sim.process(stuck(), name="orphan")
    with pytest.raises(DeadlockError) as excinfo:
        sim.run(watchdog=StallWatchdog(detect_deadlock=True))
    assert ("orphan", "event 'missing-ack'") in excinfo.value.blocked


def test_drain_without_blocked_processes_passes_deadlock_detection():
    from repro.sim import StallWatchdog

    sim = Simulator()

    def quick():
        yield 5
        return "done"

    handle = sim.process(quick())
    sim.run(watchdog=StallWatchdog(detect_deadlock=True))
    assert handle.value == "done"


def test_process_wide_watchdog_install_and_clear():
    from repro.errors import SimStallError
    from repro.sim import (
        StallWatchdog,
        active_watchdog,
        clear_watchdog,
        install_watchdog,
    )

    sim = Simulator()

    def spin():
        while True:
            yield 1

    sim.process(spin(), name="spinner")
    install_watchdog(StallWatchdog(wall_clock_limit_s=0.05, check_interval_events=64))
    try:
        assert active_watchdog() is not None
        with pytest.raises(SimStallError):
            sim.run()  # picks up the installed watchdog implicitly
    finally:
        clear_watchdog()
    assert active_watchdog() is None


def test_watchdog_rejects_nonpositive_budget():
    from repro.sim import StallWatchdog

    with pytest.raises(SimulationError):
        StallWatchdog(wall_clock_limit_s=0.0)


def test_max_events_exact_budget_completes():
    # a run finishing in exactly max_events events is within budget: the
    # guard fires only when one MORE in-horizon event would exceed it
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(i + 1, fired.append, i)
    assert sim.run(max_events=10) == 10
    assert fired == list(range(10))

    sim = Simulator()
    for i in range(10):
        sim.schedule(i + 1, fired.append, i)
    with pytest.raises(SimulationError):
        sim.run(max_events=9)


# -- non-Exception BaseExceptions abort the run ----------------------------------------


class _Abort(BaseException):
    """Stands in for KeyboardInterrupt / SystemExit."""


def test_base_exception_escapes_an_already_delivered_anyof():
    # regression: the child's BaseException used to become a process
    # failure, which the AnyOf waiter (already resumed by the timeout)
    # then dropped -- and run() returned normally
    sim = Simulator()

    def child():
        yield 10
        raise _Abort()

    def parent():
        yield AnyOf([sim.process(child(), name="child"), sim.timeout(5)])
        return "timed out"

    handle = sim.process(parent(), name="parent")
    with pytest.raises(_Abort):
        sim.run()
    assert handle.value == "timed out"
    assert sim.now == 10


def test_base_exception_escapes_an_interrupted_wait():
    # the waiter's epoch is stale (interrupted), so a failure delivered
    # through done would have been dropped
    sim = Simulator()

    def child():
        yield 10
        raise _Abort()

    def parent():
        try:
            yield sim.process(child(), name="child")
        except TimeoutError:
            return "interrupted"

    handle = sim.process(parent(), name="parent")
    sim.schedule(5, lambda _arg: handle.interrupt(TimeoutError()))
    with pytest.raises(_Abort):
        sim.run()
    assert handle.value == "interrupted"
    assert sim.now == 10


def test_base_exception_thrown_into_a_waiter_is_not_a_failure():
    sim = Simulator()
    gate = sim.event("gate")

    def child():
        yield gate

    def parent():
        try:
            yield sim.process(child(), name="child")
        except BaseException:  # a failure delivery would land here
            return "swallowed"

    handle = sim.process(parent(), name="parent")
    sim.schedule(5, lambda _arg: gate.fail(KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        sim.run()
    assert not handle.finished


def test_failed_process_done_stays_untriggered():
    sim = Simulator()

    def proc():
        yield 5
        raise RuntimeError("loud")

    handle = sim.process(proc())
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

    handle = sim.process(proc())
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

    sim.process(waiter("w1"))
    sim.run()  # the waiter registers first
    event.then(lambda arg: log.append((arg, event.value)), "then")
    event.add_callback(lambda ev: log.append(("plain", ev.value)))
    sim.process(waiter("w2"))
    sim.run()
    sim.schedule(3, event.succeed, "v")
    sim.run()
    # the plain callback runs inside succeed(); the waiter records and the
    # continuation take lane slots in registration order
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

            sim.process(waiting())
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
