"""Fabric chaos suite: the crash-safety acceptance tests.

Two families:

* **Fault-point recovery** — for every named crash point in the
  journal/lease protocol, simulate a worker dying at exactly that
  instruction and assert a fresh worker drives the spec to ``done`` with
  the correct, byte-stable result.
* **Subprocess chaos** — real worker processes against a shared broker
  directory; one is SIGKILLed mid-spec (and one hard-exits mid-journal
  write via the env fault schedule), and the surviving workers must
  finish the sweep with results byte-identical to a serial run.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.runner import SweepRunner
from repro.fabric import faultpoints
from repro.fabric.broker import BrokerConfig, WorkBroker
from repro.fabric.faultpoints import InjectedFaultError
from repro.fabric.worker import Worker
from repro.results_cache import ResultsCache
from tests.test_fabric import grid
from tests.test_results_cache import fake_result

REPO = Path(__file__).resolve().parent.parent

#: short enough that reclaim paths run in test time, long enough that a
#: healthy heartbeat never lapses.
TTL_S = 0.15


@pytest.fixture(autouse=True)
def _clean_faultpoints():
    faultpoints.reset()
    yield
    faultpoints.reset()


def open_broker(root):
    return WorkBroker(
        root,
        config=BrokerConfig(
            retries=5, lease_ttl_s=TTL_S, backoff_s=0.01, backoff_cap_s=0.05
        ),
    )


def drive_until_drained(broker, execute, timeout_s=30.0):
    """A recovery worker: step/poll until no live work remains."""
    worker = Worker(
        broker, execute=execute, poll_interval_s=0.01, heartbeat_interval_s=0.05
    )
    deadline = time.monotonic() + timeout_s
    while not broker.drained():
        assert time.monotonic() < deadline, "recovery did not converge"
        if not worker.step():
            time.sleep(0.02)
    return worker


class OnceCrashy:
    """Fails the first execution only (provokes the failure path)."""

    def __init__(self):
        self.calls = 0

    def __call__(self, spec):
        self.calls += 1
        if self.calls == 1:
            raise RuntimeError("first attempt crashes")
        return fake_result(spec)


# -- crash-at-every-fault-point recovery ---------------------------------------------


def _provoke_submit(broker, spec, execute):
    broker.submit([spec])


def _provoke_step(broker, spec, execute):
    broker.submit([spec])
    Worker(broker, execute=execute, heartbeat_interval_s=5.0).step()


def _provoke_renew(broker, spec, execute):
    broker.submit([spec])
    broker.claim("victim")
    broker.leases.renew(spec.cache_key(), "victim")


def _provoke_steal(broker, spec, execute):
    broker.submit([spec])
    broker.claim("victim")  # then the victim "dies" without heartbeating
    time.sleep(TTL_S + 0.05)
    broker.claim("janitor")


#: how to drive normal operation into each armed crash point.
PROVOKE = {
    "journal.enqueue.before_link": _provoke_submit,
    "journal.enqueue.after_link": _provoke_submit,
    "journal.append.partial": _provoke_step,
    "journal.append.before_write": _provoke_step,
    "journal.append.before_fsync": _provoke_step,
    "journal.append.after_fsync": _provoke_step,
    "lease.claim.after_create": _provoke_step,
    "lease.steal.after_rename": _provoke_steal,
    "lease.renew.before_write": _provoke_renew,
    "lease.release.before_unlink": _provoke_step,
    "broker.claim.after_lease": _provoke_step,
    "broker.complete.before_done": _provoke_step,
    "broker.fail.before_transition": _provoke_step,
    "worker.publish.after_cache_put": _provoke_step,
}


def test_every_fault_point_has_a_provoker():
    # FS_POINTS is every point the protocol exposes
    assert set(PROVOKE) == set(faultpoints.FS_POINTS)


@pytest.mark.parametrize("point", faultpoints.FS_POINTS)
def test_crash_at_any_fault_point_recovers(tmp_path, point):
    """A worker dying at *any* protocol instruction loses no work: after
    a restart the spec reaches ``done`` with the correct result."""
    spec = grid(1)[0]
    key = spec.cache_key()
    execute = (
        OnceCrashy() if point == "broker.fail.before_transition" else fake_result
    )
    broker = open_broker(tmp_path / "broker")

    faultpoints.arm(point, mode="raise")
    with pytest.raises(InjectedFaultError):
        PROVOKE[point](broker, spec, execute)
    faultpoints.reset()

    # "restart": a fresh broker handle on the same directory must replay
    # a consistent queue, resubmit idempotently, and drain to done
    recovered = open_broker(tmp_path / "broker")
    recovered.submit([spec])
    drive_until_drained(recovered, execute)
    record = recovered.records()[key]
    assert record.state == "done"
    assert recovered.cache.get(key) == fake_result(spec)
    assert recovered.counts()["total"] == 1  # never duplicated the spec


def test_torn_journal_write_never_loses_prior_state(tmp_path):
    """The ``partial`` point leaves real half-written bytes on disk; the
    journal must fold to the pre-crash state and later appends must not
    concatenate onto the torn fragment."""
    spec = grid(1)[0]
    key = spec.cache_key()
    broker = open_broker(tmp_path / "broker")
    broker.submit([spec])
    faultpoints.arm("journal.append.partial")
    with pytest.raises(InjectedFaultError):
        broker.claim("victim")  # the "leased" transition tears mid-line
    faultpoints.reset()
    record = broker.records()[key]
    assert record.state == "pending"  # the torn transition never happened
    drive_until_drained(broker, fake_result)
    assert broker.records()[key].state == "done"


# -- subprocess chaos ----------------------------------------------------------------

WORKER_SCRIPT = """\
import sys, time

from repro.fabric.broker import WorkBroker
from repro.fabric.worker import Worker
from tests.test_results_cache import fake_result

def execute(spec):
    time.sleep(float(sys.argv[2]))
    return fake_result(spec)

worker = Worker(WorkBroker(sys.argv[1]), execute=execute, poll_interval_s=0.05)
worker.run()
"""


def spawn_worker(script, broker_root, sleep_s, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update(extra_env or {})
    return subprocess.Popen(
        [sys.executable, str(script), str(broker_root), str(sleep_s)],
        cwd=REPO,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def wait_for_leased_record(broker, pid, timeout_s=20.0):
    """Block until the journal shows a spec leased by process ``pid``
    (claim fully journaled — killing now must go through reclaim)."""
    needle = f"-{pid}-"
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        for key, record in broker.records().items():
            if record.state == "leased" and needle in record.worker:
                return key
        time.sleep(0.01)
    raise AssertionError(f"worker {pid} never journaled a lease")


def serial_reference(specs, cache_dir):
    """The ``--jobs 1`` baseline the fabric must match byte-for-byte."""
    runner = SweepRunner(
        jobs=1, cache=ResultsCache(cache_dir), execute=fake_result
    )
    runner.run(specs)
    return runner.cache


def test_three_workers_one_sigkilled_matches_serial(tmp_path):
    """The acceptance bar: 3 worker processes, one SIGKILLed mid-spec;
    the sweep completes and every cache entry is byte-identical to a
    serial ``--jobs 1`` run."""
    specs = grid(8)
    broker = WorkBroker(
        tmp_path / "broker",
        config=BrokerConfig(retries=5, lease_ttl_s=0.6, backoff_s=0.01),
    )
    report = broker.submit(specs)
    assert report.enqueued == len(specs)

    script = tmp_path / "worker.py"
    script.write_text(WORKER_SCRIPT)
    # the victim's specs run 4x longer than the survivors', so the kill
    # lands squarely mid-execution of its freshly journaled claim
    victim = spawn_worker(script, broker.root, sleep_s=1.0)
    survivors = [spawn_worker(script, broker.root, sleep_s=0.25) for _ in range(2)]
    try:
        victim_key = wait_for_leased_record(broker, victim.pid)
        os.kill(victim.pid, signal.SIGKILL)
        assert victim.wait(timeout=20) == -signal.SIGKILL
        for proc in survivors:
            assert proc.wait(timeout=120) == 0
    finally:
        for proc in [victim] + survivors:
            if proc.poll() is None:
                proc.kill()

    assert broker.drained()
    counts = broker.counts()
    assert counts["done"] == len(specs) and counts["dead"] == 0
    # the victim's spec was reclaimed via lease expiry, not lost
    assert "lease expired" in broker.records()[victim_key].error
    # byte-identical to serial: same keys, same file content
    serial = serial_reference(specs, tmp_path / "serial_cache")
    for spec in specs:
        key = spec.cache_key()
        assert broker.cache.path_for(key).read_bytes() == (
            serial.path_for(key).read_bytes()
        )


def test_worker_hard_exit_mid_journal_write_is_recovered(tmp_path):
    """A worker that dies with ``os._exit`` *inside* a journal append
    (no cleanup, no finally blocks) must not wedge the sweep: a clean
    worker reclaims its lease and finishes."""
    specs = grid(3)
    broker = WorkBroker(
        tmp_path / "broker",
        config=BrokerConfig(retries=5, lease_ttl_s=0.4, backoff_s=0.01),
    )
    broker.submit(specs)

    script = tmp_path / "worker.py"
    script.write_text(WORKER_SCRIPT)
    crasher = spawn_worker(
        script,
        broker.root,
        sleep_s=0.05,
        extra_env={faultpoints.ENV_VAR: "journal.append.before_fsync:exit"},
    )
    assert crasher.wait(timeout=60) == faultpoints.EXIT_STATUS
    # the crasher died holding a lease, mid-append of its "leased" line
    cleaner = spawn_worker(script, broker.root, sleep_s=0.05)
    assert cleaner.wait(timeout=120) == 0

    counts = broker.counts()
    assert counts["done"] == len(specs) and counts["dead"] == 0
    for spec in specs:
        assert broker.cache.get(spec.cache_key()) == fake_result(spec)
