"""Persisted dead-letter list: reruns skip known-bad specs.

A sweep that quarantines a spec writes it to ``dead_letters.json`` in
the cache directory; a rerun skips that spec without re-attempting it
(no retry burn, no timeout burn) unless ``retry_dead_letter`` asks for
another try, in which case a success removes the record.
"""

import json

import pytest

from repro.errors import SweepExecutionError
from repro.experiments.deadletter import DeadLetterStore
from repro.experiments.runner import RunSpec, SweepRunner, configure, get_runner, set_runner
from tests.test_runner_supervision import BAD_SEED, crashy_execute, grid, ok_execute

ATTEMPT_LOG = []


def counting_crashy_execute(spec):
    ATTEMPT_LOG.append(spec.seed)
    return crashy_execute(spec)


def _runner(tmp_path, execute, **kwargs):
    return SweepRunner(
        cache=str(tmp_path / "cache"),
        execute=execute,
        retries=0,
        strict=False,
        dead_letter_store=str(tmp_path / "cache"),
        **kwargs,
    )


def test_quarantine_is_persisted_to_disk(tmp_path):
    runner = _runner(tmp_path, crashy_execute)
    specs = grid(3, bad_at=1)
    results = runner.run(specs)
    assert results[1] is None and results[0] is not None

    store_path = tmp_path / "cache" / "dead_letters.json"
    assert store_path.exists()
    payload = json.loads(store_path.read_text())
    assert len(payload["records"]) == 1
    (record,) = payload["records"].values()
    assert record["spec"]["seed"] == BAD_SEED
    assert "injected crash" in record["error"]


def test_rerun_skips_known_bad_specs(tmp_path):
    _runner(tmp_path, crashy_execute).run(grid(3, bad_at=1))

    ATTEMPT_LOG.clear()
    rerun = _runner(tmp_path, counting_crashy_execute)
    results = rerun.run(grid(3, bad_at=1))
    assert BAD_SEED not in ATTEMPT_LOG  # never re-attempted
    assert results[1] is None
    assert rerun.skipped_dead == 1
    (letter,) = rerun.dead_letters
    assert letter.error.startswith("skipped: persisted dead-letter")
    assert "retry-dead-letter" in letter.error


def test_skip_raises_in_strict_mode(tmp_path):
    _runner(tmp_path, crashy_execute).run(grid(3, bad_at=1))
    strict = SweepRunner(
        cache=str(tmp_path / "cache"),
        execute=crashy_execute,
        retries=0,
        strict=True,
        dead_letter_store=str(tmp_path / "cache"),
    )
    with pytest.raises(SweepExecutionError):
        strict.run(grid(3, bad_at=1))


def test_retry_dead_letter_reattempts_and_clears_on_success(tmp_path):
    _runner(tmp_path, crashy_execute).run(grid(3, bad_at=1))
    store = DeadLetterStore(tmp_path / "cache")
    assert len(store) == 1

    # the flaw is "fixed" (ok_execute): the retry succeeds and the
    # record disappears from disk
    retry = _runner(tmp_path, ok_execute, retry_dead_letter=True)
    results = retry.run(grid(3, bad_at=1))
    assert all(result is not None for result in results)
    assert retry.dead_letters == []
    assert len(DeadLetterStore(tmp_path / "cache")) == 0


def test_retry_dead_letter_keeps_record_on_repeat_failure(tmp_path):
    _runner(tmp_path, crashy_execute).run(grid(3, bad_at=1))
    retry = _runner(tmp_path, crashy_execute, retry_dead_letter=True)
    results = retry.run(grid(3, bad_at=1))
    assert results[1] is None
    assert len(DeadLetterStore(tmp_path / "cache")) == 1


def test_corrupt_store_treated_as_empty(tmp_path):
    directory = tmp_path / "cache"
    directory.mkdir()
    (directory / "dead_letters.json").write_text("{ not json")
    store = DeadLetterStore(directory)
    assert len(store) == 0
    store.record("k1", {"seed": 1}, attempts=2, error="boom")
    assert DeadLetterStore(directory).known("k1")["attempts"] == 2


def test_non_utf8_store_treated_as_empty(tmp_path):
    directory = tmp_path / "cache"
    directory.mkdir()
    (directory / "dead_letters.json").write_bytes(b"\x00\xff" * 64)
    store = DeadLetterStore(directory)
    assert len(store) == 0
    store.record("k1", {"seed": 1}, attempts=2, error="boom")
    assert DeadLetterStore(directory).known("k1")["attempts"] == 2


def test_configure_wires_store_into_default_runner(tmp_path):
    previous = get_runner()
    try:
        runner = configure(cache_dir=str(tmp_path / "cache"))
        assert runner.dead_letter_store is not None
        assert runner.dead_letter_store.directory == runner.cache.cache_dir
        assert not runner.retry_dead_letter
        retry = configure(cache_dir=str(tmp_path / "cache"), retry_dead_letter=True)
        assert retry.retry_dead_letter
    finally:
        set_runner(previous)


# -- crash safety of the store file (satellite regression) ---------------------------


def test_crash_between_temp_write_and_rename_keeps_old_store(tmp_path, monkeypatch):
    """A writer dying after opening the temp file but before the rename
    must leave the previous store readable — never truncated or lost."""
    store = DeadLetterStore(tmp_path)
    store.record("k1", {"seed": 1}, 2, "first failure")

    import repro.fsio as fsio

    def explode(src, dst):
        raise OSError("crash injected between temp write and rename")

    monkeypatch.setattr(fsio.os, "replace", explode)
    with pytest.raises(OSError):
        store.record("k2", {"seed": 2}, 1, "second failure")
    monkeypatch.undo()

    reloaded = DeadLetterStore(tmp_path)
    assert reloaded.keys() == ["k1"]
    assert reloaded.known("k1")["error"] == "first failure"
    # the aborted write left no temp-file litter next to the store
    assert [p.name for p in tmp_path.iterdir()] == ["dead_letters.json"]


def test_refresh_merges_other_processes_quarantines(tmp_path):
    """Two stores on the same directory (two workers) must merge their
    different-key writes instead of clobbering each other."""
    ours = DeadLetterStore(tmp_path)
    theirs = DeadLetterStore(tmp_path)
    ours.record("k1", {"seed": 1}, 1, "ours")
    theirs.record("k2", {"seed": 2}, 1, "theirs")  # refreshes before writing
    assert theirs.keys() == ["k1", "k2"]
    ours.refresh()
    assert ours.keys() == ["k1", "k2"]
    # and a discard sees the latest state too
    assert ours.discard("k2") is True
    theirs.refresh()
    assert theirs.keys() == ["k1"]
