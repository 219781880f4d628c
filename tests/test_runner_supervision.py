"""Supervised-sweep suite: incremental checkpointing, retry/quarantine,
the per-spec alarm with engine diagnosis, pool respawn without retries
in the parent, and KeyboardInterrupt flush semantics."""

import itertools
import json
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError, SweepExecutionError
from repro.experiments.runner import DeadLetter, RunSpec, SweepRunner
from repro.nmp.system import NMPSystem
from repro.results_cache import ResultsCache
from repro.workloads.ops import Compute
from tests.test_results_cache import fake_result

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

BAD_SEED = 666


def grid(count: int, bad_at=None):
    """``count`` distinct specs; position ``bad_at`` gets the bad seed."""
    return [
        RunSpec(
            config="4D-2C",
            workload="pagerank",
            size="tiny",
            seed=BAD_SEED if index == bad_at else index,
        )
        for index in range(count)
    ]


# -- module-level execute hooks (picklable for the process pool) ---------------------


def ok_execute(spec):
    return fake_result(spec)


def crashy_execute(spec):
    if spec.seed == BAD_SEED:
        raise RuntimeError("injected crash")
    return fake_result(spec)


def worker_killer_execute(spec):
    if spec.seed == BAD_SEED:
        time.sleep(0.2)  # let innocent neighbours finish first
        os._exit(17)  # kills the worker -> BrokenProcessPool in the parent
    return fake_result(spec)


def sleepy_execute(spec):
    if spec.seed == BAD_SEED:
        time.sleep(30.0)  # hang *outside* the simulator: the alarm's own error
    return fake_result(spec)


def stuck_sim_execute(spec):
    if spec.seed == BAD_SEED:
        # livelock: the kernel's one thread computes forever, so the event
        # queue never drains; the alarm must cut this off inside the loop
        NMPSystem(SystemConfig.named("4D-2C")).run([lambda: itertools.repeat(Compute(100))])
    return fake_result(spec)


def interrupt_execute(spec):
    if spec.seed == BAD_SEED:
        raise KeyboardInterrupt()
    return fake_result(spec)


class FlakyExecute:
    """Fails the bad spec ``failures`` times, then succeeds."""

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def __call__(self, spec):
        if spec.seed == BAD_SEED:
            self.calls += 1
            if self.calls <= self.failures:
                raise RuntimeError(f"transient failure #{self.calls}")
        return fake_result(spec)


# -- incremental checkpointing (satellite regression) --------------------------------


def test_partial_batch_keeps_finished_results(tmp_path):
    """Killing the Nth spec must not lose specs 1..N-1 from the cache."""
    specs = grid(5, bad_at=4)
    runner = SweepRunner(
        cache=ResultsCache(tmp_path), execute=crashy_execute, retries=0
    )
    with pytest.raises(SweepExecutionError) as excinfo:
        runner.run(specs)
    assert len(excinfo.value.dead_letters) == 1
    assert excinfo.value.dead_letters[0].spec.seed == BAD_SEED

    cache = ResultsCache(tmp_path)
    assert len(cache) == 4
    for spec in specs[:4]:
        assert cache.get(spec.cache_key()) is not None


def test_results_checkpoint_the_moment_each_completes(tmp_path):
    """Every completed spec is on disk before the next one starts."""
    cache = ResultsCache(tmp_path)
    seen_counts = []

    def checkpoint_spy(spec):
        seen_counts.append(len(cache))
        return fake_result(spec)

    SweepRunner(cache=cache, execute=checkpoint_spy).run(grid(4))
    assert seen_counts == [0, 1, 2, 3]


def test_keyboard_interrupt_flushes_completed_results(tmp_path):
    specs = grid(4, bad_at=2)
    runner = SweepRunner(cache=ResultsCache(tmp_path), execute=interrupt_execute)
    with pytest.raises(KeyboardInterrupt):
        runner.run(specs)
    cache = ResultsCache(tmp_path)
    assert cache.get(specs[0].cache_key()) is not None
    assert cache.get(specs[1].cache_key()) is not None
    assert cache.get(specs[2].cache_key()) is None


# -- retry and quarantine ------------------------------------------------------------


def test_transient_failure_retries_until_success(tmp_path):
    execute = FlakyExecute(failures=2)
    runner = SweepRunner(
        cache=ResultsCache(tmp_path), execute=execute, retries=2
    )
    results = runner.run(grid(3, bad_at=1))
    assert all(result is not None for result in results)
    assert runner.dead_letters == []
    assert execute.calls == 3  # two failures + the success


def test_exhausted_retries_quarantine_without_aborting(tmp_path):
    specs = grid(5, bad_at=2)
    runner = SweepRunner(
        cache=ResultsCache(tmp_path),
        execute=crashy_execute,
        retries=1,
        strict=False,
    )
    results = runner.run(specs)
    assert results[2] is None
    assert all(results[i] is not None for i in (0, 1, 3, 4))
    assert len(runner.dead_letters) == 1
    letter = runner.dead_letters[0]
    assert isinstance(letter, DeadLetter)
    assert letter.attempts == 2  # initial + one retry
    assert "injected crash" in letter.error
    assert letter.spec.seed == BAD_SEED
    # all healthy specs were checkpointed despite the quarantine
    assert len(ResultsCache(tmp_path)) == 4


def test_duplicate_failing_specs_quarantine_once(tmp_path):
    bad = grid(1, bad_at=0)[0]
    runner = SweepRunner(
        cache=ResultsCache(tmp_path),
        execute=crashy_execute,
        retries=0,
        strict=False,
    )
    results = runner.run([bad, bad])
    assert results == [None, None]
    assert len(runner.dead_letters) == 1


def test_strict_error_reports_retry_counts():
    runner = SweepRunner(execute=crashy_execute, retries=0)
    with pytest.raises(SweepExecutionError) as excinfo:
        runner.run(grid(2, bad_at=0))
    assert "quarantined" in str(excinfo.value)
    assert excinfo.value.dead_letters[0].attempts == 1


# -- per-spec wall-clock timeouts ----------------------------------------------------


def test_timeout_outside_simulator_hits_sigalrm_backstop(tmp_path):
    specs = grid(3, bad_at=1)
    runner = SweepRunner(
        cache=ResultsCache(tmp_path),
        execute=sleepy_execute,
        retries=0,
        spec_timeout=0.3,
        strict=False,
    )
    results = runner.run(specs)
    assert results[1] is None
    assert results[0] is not None and results[2] is not None
    assert len(runner.dead_letters) == 1
    assert "SpecTimeoutError" in runner.dead_letters[0].error


def test_timeout_inside_simulator_reports_blocked_processes(tmp_path):
    specs = grid(2, bad_at=1)
    runner = SweepRunner(
        cache=ResultsCache(tmp_path),
        execute=stuck_sim_execute,
        retries=0,
        spec_timeout=0.3,
        strict=False,
    )
    results = runner.run(specs)
    assert results[0] is not None and results[1] is None
    letter = runner.dead_letters[0]
    assert "SimStallError" in letter.error
    assert "stalled at" in letter.diagnosis
    assert "interrupted=" in letter.diagnosis
    assert "dimm0.core0.t0 <- delay " in letter.diagnosis  # names the hung thread


# -- worker crashes: respawn, never a retry in the parent ----------------------------


def test_worker_crash_respawns_pool_and_quarantines_only_the_killer(tmp_path):
    specs = grid(7, bad_at=3)
    runner = SweepRunner(
        jobs=2,
        cache=ResultsCache(tmp_path),
        execute=worker_killer_execute,
        retries=1,
        strict=False,
    )
    results = runner.run(specs)
    good = [i for i in range(7) if i != 3]
    assert all(results[i] is not None for i in good)
    assert results[3] is None
    assert [letter.spec.seed for letter in runner.dead_letters] == [BAD_SEED]
    assert "worker process died" in runner.dead_letters[0].error
    # the healthy six are all checkpointed for the next run
    cache = ResultsCache(tmp_path)
    for i in good:
        assert cache.get(specs[i].cache_key()) is not None


def test_worker_killer_never_reruns_in_the_parent():
    """Every attempt of a worker-killing spec runs in a pool worker, so a
    budget of four attempts costs four pool breaks and never the parent
    process, in a batch of seven and in a batch of the killer alone.  The
    sweep runs in a subprocess: a retry in the parent would kill it with
    the killer's exit code 17."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    for count, bad_at in ((7, 3), (1, 0)):
        script = textwrap.dedent(
            f"""
            import json
            from repro.experiments.runner import SweepRunner
            from tests.test_runner_supervision import grid, worker_killer_execute

            runner = SweepRunner(
                jobs=2, execute=worker_killer_execute, retries=3, strict=False,
            )
            results = runner.run(grid({count}, bad_at={bad_at}))
            print(json.dumps({{
                "ok": [result is not None for result in results],
                "letters": [
                    [letter.spec.seed, letter.attempts, letter.error]
                    for letter in runner.dead_letters
                ],
            }}))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=root, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, (count, proc.stderr)
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["ok"] == [index != bad_at for index in range(count)]
        [[seed, attempts, error]] = report["letters"]
        assert (seed, attempts) == (BAD_SEED, 4)
        assert "worker process died" in error


# -- equivalence guarantees stay intact ----------------------------------------------


def test_fault_free_supervised_run_matches_unsupervised(tmp_path):
    import json

    specs = grid(4)
    plain = SweepRunner(execute=ok_execute).run(specs)
    supervised = SweepRunner(
        execute=ok_execute,
        retries=3,
        spec_timeout=60.0,
    ).run(specs)
    assert json.dumps([r.to_json_dict() for r in plain], sort_keys=True) == (
        json.dumps([r.to_json_dict() for r in supervised], sort_keys=True)
    )


def test_validation_rejects_bad_supervision_parameters():
    with pytest.raises(ConfigError):
        SweepRunner(retries=-1)
    # setitimer rejects NaN, infinity and 1e10 s, so each would fail (and
    # quarantine) every spec the moment its alarm is armed
    for timeout in (0.0, float("nan"), float("inf"), 1e10):
        with pytest.raises(ConfigError, match="spec_timeout"):
            SweepRunner(spec_timeout=timeout)


def test_a_timeout_without_sigalrm_is_refused(monkeypatch):
    import signal

    monkeypatch.delattr(signal, "SIGALRM")
    with pytest.raises(ConfigError, match="SIGALRM"):
        SweepRunner(spec_timeout=1.0)
    SweepRunner()  # no timeout, nothing to arm


def test_a_timed_serial_batch_off_the_main_thread_is_refused_before_any_spec():
    calls = []

    def spy(spec):
        calls.append(spec)
        return fake_result(spec)

    runner = SweepRunner(execute=spy, spec_timeout=5.0)
    raised = []

    def sweep():
        try:
            runner.run(grid(2))
        except ConfigError as exc:
            raised.append(exc)

    worker = threading.Thread(target=sweep)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert len(raised) == 1 and "main thread" in str(raised[0])
    assert calls == [] and runner.dead_letters == []


def slow_interrupt_execute(spec):
    if spec.seed == BAD_SEED:
        time.sleep(0.6)  # healthy neighbours finish and checkpoint first
        raise KeyboardInterrupt()
    return fake_result(spec)


def test_keyboard_interrupt_in_pool_flushes_completed_results(tmp_path):
    """Ctrl-C during a ``--jobs N`` sweep keeps everything that finished
    before the interrupt: the pool stops handing out work, but completed
    checkpoints are already on disk for the resume."""
    specs = grid(6, bad_at=5)
    runner = SweepRunner(
        jobs=2, cache=ResultsCache(tmp_path), execute=slow_interrupt_execute
    )
    with pytest.raises(KeyboardInterrupt):
        runner.run(specs)
    cache = ResultsCache(tmp_path)
    for spec in specs[:5]:
        assert cache.get(spec.cache_key()) is not None
    assert cache.get(specs[5].cache_key()) is None


# -- SIGALRM state restoration (satellite regression) --------------------------------


def test_supervised_call_restores_previous_sigalrm_handler_and_itimer():
    """An outer alarm (another supervisor, a test harness) must survive a
    supervised call: same handler installed, timer still counting."""
    import signal

    from repro.experiments.runner import supervised_call

    fired = []

    def outer_handler(signum, frame):
        fired.append(signum)

    previous_handler = signal.signal(signal.SIGALRM, outer_handler)
    signal.setitimer(signal.ITIMER_REAL, 60.0)
    try:
        assert supervised_call(ok_execute, grid(1)[0], 5.0) is not None
        assert signal.getsignal(signal.SIGALRM) is outer_handler
        delay, interval = signal.setitimer(signal.ITIMER_REAL, 0.0)
        assert 0.0 < delay <= 60.0  # the outer alarm is still armed
        assert interval == 0.0
        assert fired == []  # and it never fired early
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous_handler)


def test_supervised_call_without_prior_alarm_disarms_cleanly():
    import signal

    from repro.experiments.runner import supervised_call

    before = signal.getsignal(signal.SIGALRM)
    supervised_call(ok_execute, grid(1)[0], 5.0)
    assert signal.getsignal(signal.SIGALRM) == before
    delay, _interval = signal.setitimer(signal.ITIMER_REAL, 0.0)
    assert delay == 0.0  # no stray timer left ticking
