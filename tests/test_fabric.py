"""Fabric unit suite: journal durability, lease protocol, broker state
machine, worker loop, and the SweepRunner broker mode."""

import json
import os
import time

import pytest

from repro.errors import ConfigError, SweepExecutionError
from repro.experiments.runner import RunSpec, SweepRunner
from repro.fabric import faultpoints
from repro.fabric.broker import BrokerConfig, WorkBroker
from repro.fabric.journal import SpecJournal
from repro.fabric.lease import LeaseManager
from repro.fabric.worker import Worker
from repro.fsio import atomic_write_text, read_json_lines
from tests.test_results_cache import fake_result

BAD_SEED = 666


@pytest.fixture(autouse=True)
def _clean_faultpoints():
    faultpoints.reset()
    yield
    faultpoints.reset()


def grid(count, bad_at=None):
    return [
        RunSpec(
            config="4D-2C",
            workload="pagerank",
            size="tiny",
            seed=BAD_SEED if index == bad_at else index,
        )
        for index in range(count)
    ]


def crashy_execute(spec):
    if spec.seed == BAD_SEED:
        raise RuntimeError("injected crash")
    return fake_result(spec)


def make_broker(tmp_path, **config):
    config.setdefault("lease_ttl_s", 0.3)
    config.setdefault("backoff_s", 0.01)
    config.setdefault("backoff_cap_s", 0.05)
    return WorkBroker(tmp_path / "broker", config=BrokerConfig(**config))


def make_worker(broker, execute=fake_result, **kwargs):
    kwargs.setdefault("poll_interval_s", 0.02)
    return Worker(broker, execute=execute, **kwargs)


# -- fsio ----------------------------------------------------------------------------


def test_atomic_write_crash_before_rename_preserves_old_content(tmp_path, monkeypatch):
    target = tmp_path / "state.json"
    atomic_write_text(target, "old")

    import repro.fsio as fsio

    def explode(src, dst):
        raise OSError("crash injected between temp write and rename")

    monkeypatch.setattr(fsio.os, "replace", explode)
    with pytest.raises(OSError):
        atomic_write_text(target, "new")
    monkeypatch.undo()
    assert target.read_text() == "old"
    assert list(tmp_path.glob("*.tmp")) == []  # temp file cleaned up


def test_read_json_lines_skips_torn_and_foreign_lines(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_text('{"a": 1}\nnot json\n[1, 2]\n{"b": 2}\n{"torn": ')
    assert list(read_json_lines(path)) == [{"a": 1}, {"b": 2}]


# -- journal -------------------------------------------------------------------------


def test_enqueue_is_exclusive_and_idempotent(tmp_path):
    journal = SpecJournal(tmp_path)
    assert journal.enqueue("k1", {"seed": 1}) is True
    assert journal.enqueue("k1", {"seed": 999}) is False  # no clobber
    record = journal.read("k1")
    assert record.state == "pending" and record.spec == {"seed": 1}
    assert len(journal) == 1


def test_transitions_fold_in_order(tmp_path):
    journal = SpecJournal(tmp_path)
    journal.enqueue("k1", {"seed": 1})
    journal.append("k1", "leased", attempts=1, worker="w1")
    record = journal.read("k1")
    assert (record.state, record.attempts, record.worker) == ("leased", 1, "w1")
    journal.append("k1", "done", worker="w1")
    assert journal.read("k1").state == "done"


def test_torn_trailing_line_is_ignored_and_healed(tmp_path):
    journal = SpecJournal(tmp_path)
    journal.enqueue("k1", {"seed": 1})
    journal.append("k1", "leased", attempts=1, worker="w1")
    # simulate a crash mid-append: half a "done" line reaches the disk
    with open(journal.path_for("k1"), "a") as handle:
        handle.write('{"key": "k1", "state": "don')
    assert journal.read("k1").state == "leased"  # transition never committed
    # the next append heals the tail instead of concatenating onto it
    journal.append("k1", "done", worker="w2")
    assert journal.read("k1").state == "done"


def test_unreadable_journal_is_skipped_not_fatal(tmp_path):
    journal = SpecJournal(tmp_path)
    journal.enqueue("k1", {"seed": 1})
    (tmp_path / "garbage.jsonl").write_text("{{{{")
    assert set(journal.replay()) == {"k1"}


# -- leases --------------------------------------------------------------------------


def test_claim_is_exclusive_until_released(tmp_path):
    leases = LeaseManager(tmp_path, ttl_s=30.0)
    assert leases.try_claim("k1", "w1") is True
    assert leases.try_claim("k1", "w2") is False
    assert leases.holder("k1")[0] == "w1"
    assert leases.release("k1", "w2") is False  # not the holder
    assert leases.release("k1", "w1") is True
    assert leases.try_claim("k1", "w2") is True


def test_expired_lease_is_stolen_exactly_once(tmp_path):
    leases = LeaseManager(tmp_path, ttl_s=0.05)
    assert leases.try_claim("k1", "w1")
    time.sleep(0.08)
    assert leases.expired("k1")
    assert leases.try_claim("k1", "w2") is True  # steal
    assert leases.try_claim("k1", "w3") is False  # fresh lease is live


def test_renew_extends_and_detects_loss(tmp_path):
    leases = LeaseManager(tmp_path, ttl_s=0.2)
    leases.try_claim("k1", "w1")
    _, first_expiry = leases.holder("k1")
    time.sleep(0.05)
    assert leases.renew("k1", "w1") is True
    assert leases.holder("k1")[1] > first_expiry
    # steal after expiry: the original worker's renew must report loss
    time.sleep(0.25)
    leases.try_claim("k1", "w2")
    assert leases.renew("k1", "w1") is False
    assert leases.holder("k1")[0] == "w2"  # and not overwrite the thief


def test_unparsable_lease_falls_back_to_mtime_ttl(tmp_path):
    leases = LeaseManager(tmp_path, ttl_s=0.05)
    leases.path_for("k1").write_text("torn {")
    worker, expires = leases.holder("k1")
    assert worker == "<unreadable>"
    time.sleep(0.08)
    assert leases.expired("k1")
    assert leases.try_claim("k1", "w2") is True


# -- broker --------------------------------------------------------------------------


def test_submit_dedups_against_cache_inflight_and_duplicates(tmp_path):
    broker = make_broker(tmp_path)
    specs = grid(3)
    broker.cache.put(specs[0].cache_key(), fake_result(specs[0]))
    report = broker.submit(specs + [specs[1]])  # one in-grid duplicate
    assert (report.total, report.enqueued, report.cached) == (3, 2, 1)
    # the cached spec is journaled straight to done
    assert broker.records()[specs[0].cache_key()].state == "done"
    again = broker.submit(specs)
    assert (again.enqueued, again.done, again.inflight) == (0, 1, 2)


def test_claim_execute_complete_lifecycle(tmp_path):
    broker = make_broker(tmp_path)
    spec = grid(1)[0]
    broker.submit([spec])
    record = broker.claim("w1")
    assert record.key == spec.cache_key()
    assert record.attempts == 1
    assert broker.records()[record.key].state == "leased"
    assert broker.claim("w2") is None  # nothing else runnable
    broker.cache.put(record.key, fake_result(spec), spec=record.spec)
    assert broker.complete(record.key, "w1") is True
    tally = broker.counts()
    assert tally["done"] == 1 and broker.drained()
    assert broker.leases.holder(record.key) is None  # lease released


def test_fail_retries_with_backoff_then_quarantines(tmp_path):
    broker = make_broker(tmp_path, retries=1)
    spec = grid(1, bad_at=0)[0]
    broker.submit([spec])
    key = spec.cache_key()

    record = broker.claim("w1")
    broker.fail(key, "w1", "RuntimeError: boom", "diag")
    folded = broker.records()[key]
    assert folded.state == "pending" and folded.not_before > time.time() - 0.01
    assert broker.claim("w1") is None  # parked on backoff
    time.sleep(0.06)
    record = broker.claim("w1")
    assert record.attempts == 2
    broker.fail(key, "w1", "RuntimeError: boom again")
    folded = broker.records()[key]
    assert folded.state == "dead"
    assert key in broker.dead_letters
    assert broker.dead_letters.known(key)["attempts"] == 2
    assert broker.drained()


def test_expired_lease_is_reclaimed_and_retried(tmp_path):
    broker = make_broker(tmp_path, lease_ttl_s=0.05, retries=3)
    spec = grid(1)[0]
    broker.submit([spec])
    key = spec.cache_key()
    assert broker.claim("doomed") is not None
    # "doomed" never heartbeats: after the TTL any claimer reclaims it
    time.sleep(0.08)
    assert broker.claim("janitor") is None  # first pass journals the reclaim
    folded = broker.records()[key]
    assert folded.state == "pending"
    assert "lease expired" in folded.error and "doomed" in folded.error
    time.sleep(0.03)
    record = broker.claim("janitor")  # after backoff it is runnable again
    assert record is not None and record.attempts == 2


def test_reclaim_exhausted_budget_lands_in_dead_letters(tmp_path):
    broker = make_broker(tmp_path, lease_ttl_s=0.03, retries=0, backoff_s=0.001)
    spec = grid(1)[0]
    broker.submit([spec])
    key = spec.cache_key()
    assert broker.claim("crasher") is not None  # attempt 1, then "dies"
    time.sleep(0.05)
    broker.claim("janitor")
    folded = broker.records()[key]
    assert folded.state == "dead"
    assert key in broker.dead_letters
    assert "lease expired" in str(broker.dead_letters.known(key)["error"])


def test_complete_is_idempotent_after_lease_loss(tmp_path):
    broker = make_broker(tmp_path, lease_ttl_s=0.05, retries=3)
    spec = grid(1)[0]
    broker.submit([spec])
    key = spec.cache_key()
    broker.claim("slow")
    time.sleep(0.08)  # slow worker's lease expires; spec reclaimed + redone
    broker.claim("janitor")
    time.sleep(0.03)
    assert broker.claim("fast") is not None
    broker.cache.put(key, fake_result(spec), spec=spec.to_json_dict())
    assert broker.complete(key, "fast")
    # the presumed-dead worker finishes late and publishes anyway: no-op
    broker.cache.put(key, fake_result(spec), spec=spec.to_json_dict())
    assert broker.complete(key, "slow")
    assert broker.counts()["done"] == 1
    assert broker.cache.get(key) == fake_result(spec)


def test_broker_config_persists_and_wins(tmp_path):
    make_broker(tmp_path, retries=7, lease_ttl_s=1.5)
    reopened = WorkBroker(tmp_path / "broker", config=BrokerConfig(retries=0))
    assert reopened.config.retries == 7
    assert reopened.config.lease_ttl_s == 1.5


def test_submit_retry_dead_revives_quarantined_spec(tmp_path):
    broker = make_broker(tmp_path, retries=0, backoff_s=0.001)
    spec = grid(1, bad_at=0)[0]
    broker.submit([spec])
    key = spec.cache_key()
    broker.claim("w1")
    broker.fail(key, "w1", "RuntimeError: boom")
    assert broker.records()[key].state == "dead"
    assert broker.submit([spec]).dead == 1  # skipped while quarantined
    report = broker.submit([spec], retry_dead=True)
    assert report.revived == 1
    record = broker.claim("w1")
    assert record is not None and record.attempts == 1  # fresh budget


# -- worker --------------------------------------------------------------------------


def test_worker_drains_queue_and_publishes(tmp_path):
    broker = make_broker(tmp_path)
    specs = grid(4)
    broker.submit(specs)
    worker = make_worker(broker)
    assert worker.run() == 4
    assert worker.completed == 4
    assert broker.drained()
    for spec in specs:
        assert broker.cache.get(spec.cache_key()) == fake_result(spec)


def test_worker_serves_already_cached_claim_without_executing(tmp_path):
    broker = make_broker(tmp_path)
    spec = grid(1)[0]
    broker.journal.enqueue(spec.cache_key(), spec.to_json_dict())
    broker.cache.put(spec.cache_key(), fake_result(spec))

    def forbidden(spec):
        raise AssertionError("must not re-execute a cached spec")

    worker = make_worker(broker, execute=forbidden)
    assert worker.run() == 1
    assert worker.cache_served == 1 and worker.completed == 0
    assert broker.records()[spec.cache_key()].state == "done"


def test_worker_heartbeat_keeps_slow_spec_leased(tmp_path):
    broker = make_broker(tmp_path, lease_ttl_s=0.15)
    spec = grid(1)[0]
    broker.submit([spec])

    def slow(spec):
        time.sleep(0.5)  # several TTLs long
        return fake_result(spec)

    worker = make_worker(broker, execute=slow, heartbeat_interval_s=0.04)
    assert worker.run() == 1
    assert worker.completed == 1 and worker.leases_lost == 0
    assert broker.counts()["done"] == 1  # never reclaimed mid-run


def test_two_workers_split_the_queue(tmp_path):
    broker = make_broker(tmp_path)
    specs = grid(6)
    broker.submit(specs)
    w1, w2 = make_worker(broker), make_worker(broker)
    import threading

    threads = [threading.Thread(target=w.run) for w in (w1, w2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert broker.drained()
    assert w1.completed + w2.completed == 6
    for spec in specs:
        assert broker.cache.get(spec.cache_key()) == fake_result(spec)


def test_worker_failure_path_quarantines_via_broker(tmp_path):
    broker = make_broker(tmp_path, retries=1, backoff_s=0.001)
    specs = grid(3, bad_at=1)
    broker.submit(specs)
    worker = make_worker(broker, execute=crashy_execute)
    worker.run()
    bad_key = specs[1].cache_key()
    assert broker.records()[bad_key].state == "dead"
    assert broker.dead_letters.known(bad_key)["attempts"] == 2
    assert broker.counts()["done"] == 2


# -- SweepRunner broker mode ---------------------------------------------------------


def test_runner_broker_mode_matches_plain_run(tmp_path):
    specs = grid(5)
    broker = make_broker(tmp_path)
    fabric = SweepRunner(broker=broker, execute=fake_result).run(specs)
    plain = SweepRunner(execute=fake_result, use_cache=False).run(specs)
    assert json.dumps([r.to_json_dict() for r in fabric], sort_keys=True) == (
        json.dumps([r.to_json_dict() for r in plain], sort_keys=True)
    )


def test_runner_broker_mode_adopts_broker_cache_and_quarantine(tmp_path):
    broker = make_broker(tmp_path, retries=0, backoff_s=0.001)
    runner = SweepRunner(broker=broker, execute=crashy_execute, strict=False)
    assert runner.cache is broker.cache
    assert runner.dead_letter_store is broker.dead_letters
    specs = grid(4, bad_at=2)
    results = runner.run(specs)
    assert results[2] is None
    assert all(results[i] is not None for i in (0, 1, 3))
    assert len(runner.dead_letters) == 1
    assert "injected crash" in runner.dead_letters[0].error
    # the quarantine is farm-wide: the broker's store has it too
    assert specs[2].cache_key() in broker.dead_letters


def test_runner_broker_mode_strict_raises_after_healthy_specs(tmp_path):
    broker = make_broker(tmp_path, retries=0, backoff_s=0.001)
    runner = SweepRunner(broker=broker, execute=crashy_execute)
    specs = grid(3, bad_at=0)
    with pytest.raises(SweepExecutionError):
        runner.run(specs)
    for spec in specs[1:]:
        assert broker.cache.get(spec.cache_key()) is not None


def test_runner_broker_mode_collects_results_executed_elsewhere(tmp_path):
    broker = make_broker(tmp_path)
    specs = grid(3)
    # a foreign worker (other host) finishes the whole grid first
    broker.submit(specs)
    make_worker(broker).run()

    def forbidden(spec):
        raise AssertionError("grid was already executed elsewhere")

    runner = SweepRunner(broker=broker, execute=forbidden)
    results = runner.run(specs)
    assert [r.time_ps for r in results] == [fake_result(s).time_ps for s in specs]
    assert runner.hits == 3  # all served from the shared cache


def test_runner_broker_mode_rejects_no_cache(tmp_path):
    with pytest.raises(ConfigError):
        SweepRunner(broker=make_broker(tmp_path), use_cache=False)


def test_runner_broker_mode_reruns_spec_with_corrupt_cache_entry(tmp_path):
    broker = make_broker(tmp_path)
    spec = grid(1)[0]
    key = spec.cache_key()
    broker.submit([spec])
    make_worker(broker).run()
    broker.cache.path_for(key).write_text("corrupt {")
    results = SweepRunner(broker=broker, execute=fake_result).run([spec])
    assert results[0] == fake_result(spec)
    assert broker.cache.get(key) == fake_result(spec)  # repaired on disk


# -- lease races and heartbeat lifecycle (robustness satellites) ---------------------


def test_concurrent_steal_race_has_exactly_one_winner(tmp_path):
    """N threads race to steal one expired lease; the rename/create
    protocol must admit exactly one thief, and the presumed-dead
    holder's next renew must report the loss."""
    import threading

    # a long TTL with the victim's lease backdated to already-expired:
    # a thief's fresh lease then cannot itself lapse mid-race (a tiny
    # real TTL would let scheduling jitter admit a second, legitimate
    # steal of the first winner)
    leases = LeaseManager(tmp_path, ttl_s=30.0)
    assert leases.try_claim("k1", "victim")
    assert leases.renew("k1", "victim", ttl_s=-1.0)  # dies retroactively
    assert leases.expired("k1")

    thieves = 8
    barrier = threading.Barrier(thieves)
    wins, errors = [], []

    def steal(name):
        barrier.wait()
        try:
            if leases.try_claim("k1", name):
                wins.append(name)
        except Exception as exc:  # a loser must back off, not blow up
            errors.append(exc)

    threads = [
        threading.Thread(target=steal, args=(f"thief-{index}",))
        for index in range(thieves)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10.0)
    assert errors == []
    assert len(wins) == 1, f"steal admitted {len(wins)} winners: {wins}"
    winner = wins[0]
    assert leases.holder("k1")[0] == winner
    # the loser's renew detects the loss instead of clobbering the winner
    assert leases.renew("k1", "victim") is False
    assert leases.holder("k1")[0] == winner


def test_repeated_steal_races_never_double_grant(tmp_path):
    """The race above, iterated: across rounds the winner count is
    always exactly one (exercises different interleavings)."""
    import threading

    leases = LeaseManager(tmp_path, ttl_s=30.0)
    for round_index in range(5):
        key = f"spec-{round_index}"
        assert leases.try_claim(key, "victim")
        assert leases.renew(key, "victim", ttl_s=-1.0)  # expire it now
        barrier = threading.Barrier(4)
        wins = []

        def steal(name, key=key, barrier=barrier, wins=wins):
            barrier.wait()
            if leases.try_claim(key, name):
                wins.append(name)

        threads = [
            threading.Thread(target=steal, args=(f"t{round_index}.{i}",))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert len(wins) == 1


def test_heartbeat_thread_is_joined_after_each_spec(tmp_path):
    """The beat daemon must not outlive its spec: after the worker
    finishes, no lease-heartbeat thread remains and the handle is
    cleared (a leaked beat would renew a lease nobody holds)."""
    import threading

    broker = make_broker(tmp_path, lease_ttl_s=0.15)
    broker.submit(grid(2))
    worker = make_worker(broker, heartbeat_interval_s=0.03)

    def slow(spec):
        time.sleep(0.1)
        return fake_result(spec)

    worker.execute = slow
    assert worker.run() == 2
    assert worker._heartbeat_thread is None
    beats = [
        t for t in threading.enumerate() if t.name.startswith("lease-heartbeat")
    ]
    assert beats == []


def test_persistent_renew_failure_surfaces_as_lease_loss(tmp_path):
    """A renew path that keeps raising (dead mount, ENOSPC, EACCES) is
    lease loss in progress: the beat thread exits *loudly* — counted in
    ``heartbeat_errors`` and ``leases_lost`` — and the spec still
    completes through the idempotent publish path."""
    broker = make_broker(tmp_path, lease_ttl_s=0.12)
    spec = grid(1)[0]
    broker.submit([spec])

    real_renew = broker.leases.renew

    def broken_renew(key, worker, ttl_s=None):
        raise OSError(28, "No space left on device")

    broker.leases.renew = broken_renew
    worker = make_worker(broker, heartbeat_interval_s=0.02)

    def slow(spec):
        time.sleep(0.3)  # enough beats to exhaust the error budget
        return fake_result(spec)

    worker.execute = slow
    try:
        assert worker.run() == 1
    finally:
        broker.leases.renew = real_renew
    assert worker.heartbeat_errors >= Worker.HEARTBEAT_ERROR_BUDGET
    assert worker.leases_lost == 1
    assert worker.completed == 1  # execution finished and published anyway
    assert broker.cache.get(spec.cache_key()) == fake_result(spec)


def test_transient_renew_hiccup_does_not_lose_the_lease(tmp_path):
    """One failed renew write inside the error budget heals on the next
    beat: no lease loss is declared.  The 2 s TTL leaves a wide margin
    over the 0.25 s spec, so a scheduling stall cannot expire the lease."""
    broker = make_broker(tmp_path, lease_ttl_s=2.0)
    spec = grid(1)[0]
    broker.submit([spec])

    real_renew = broker.leases.renew
    calls = {"n": 0}

    def flaky_renew(key, worker, ttl_s=None):
        calls["n"] += 1
        if calls["n"] == 1:
            raise OSError("transient hiccup")
        return real_renew(key, worker, ttl_s=ttl_s)

    broker.leases.renew = flaky_renew
    worker = make_worker(broker, heartbeat_interval_s=0.03)

    def slow(spec):
        time.sleep(0.25)
        return fake_result(spec)

    worker.execute = slow
    try:
        assert worker.run() == 1
    finally:
        broker.leases.renew = real_renew
    assert calls["n"] >= 2  # the beat retried after the hiccup
    assert worker.heartbeat_errors == 1
    assert worker.leases_lost == 0


def test_relinquish_returns_claim_to_queue_uncharged(tmp_path):
    """Graceful drain: a relinquished claim goes straight back to
    ``pending`` with its attempt uncharged and no backoff stamp, so the
    next claimer picks it up immediately."""
    broker = make_broker(tmp_path, lease_ttl_s=30.0)
    spec = grid(1)[0]
    key = spec.cache_key()
    broker.submit([spec])
    record = broker.claim("drainee")
    assert record is not None and record.attempts == 1

    assert broker.relinquish(key, "drainee", reason="sigterm drain") is True
    record = broker.records()[key]
    assert record.state == "pending"
    assert record.attempts == 0  # uncharged: this was not a failure
    assert record.not_before == 0.0  # immediately claimable
    assert "sigterm drain" in record.error
    # no TTL wait: another worker claims right away despite the 30s TTL
    stolen = broker.claim("successor")
    assert stolen is not None and stolen.key == key


def test_relinquish_is_refused_for_non_holders_and_settled_specs(tmp_path):
    broker = make_broker(tmp_path, lease_ttl_s=30.0)
    spec = grid(1)[0]
    key = spec.cache_key()
    broker.submit([spec])
    assert broker.relinquish(key, "nobody") is False  # pending, unclaimed
    broker.claim("holder")
    assert broker.relinquish(key, "impostor") is False  # not the holder
    assert broker.records()[key].state == "leased"  # untouched
    broker.complete(key, "holder")
    assert broker.relinquish(key, "holder") is False  # already settled
    assert broker.records()[key].state == "done"


def test_worker_relinquish_current_hands_back_in_flight_claim(tmp_path):
    broker = make_broker(tmp_path, lease_ttl_s=30.0)
    spec = grid(1)[0]
    key = spec.cache_key()
    broker.submit([spec])
    worker = make_worker(broker)
    record = broker.claim(worker.worker_id)
    worker.current_key = record.key  # as _execute_claimed would set

    assert worker.relinquish_current(reason="drained by signal 15") is True
    assert worker.current_key is None
    assert broker.records()[key].state == "pending"
    assert worker.relinquish_current() is False  # idempotent: nothing left
