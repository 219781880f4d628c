"""Cache-soundness suite: hits are value-equal and never re-simulate,
keys cover every spec field + the code version, ``--no-cache`` bypasses,
and corrupt entries degrade to misses instead of raising."""

import dataclasses
import json

import pytest

from repro.errors import ConfigError
from repro.experiments.runner import RunSpec, SweepRunner
from repro.fsio import atomic_write_text
from repro.nmp.results import RunResult
from repro.results_cache import CODE_VERSION, ResultsCache
from repro.sim.stats import StatRegistry


def fake_result(spec: RunSpec) -> RunResult:
    """A cheap synthetic result that still exercises the full schema."""
    stats = StatRegistry()
    stats.add("idc.local_bytes", 4096.0)
    stats.scope("dimm0").add("core.busy_ps", 123456.0)
    hist = stats.histogram("dl.packet_ns")
    for value in (0.0, 0.5, 3.0, 700.0):
        hist.record(value)
    return RunResult(
        system_name=spec.config,
        mechanism=spec.mechanism,
        workload=spec.workload,
        time_ps=1_000_000 + spec.seed,
        thread_end_ps=[900_000, 1_000_000 + spec.seed],
        stats=stats,
        bus_occupancy=[0.25, 0.125],
        profile_ps=42,
        polling="proxy",
    )


class CountingExecute:
    """Wraps an execute function with a call counter."""

    def __init__(self, func=fake_result):
        self.func = func
        self.calls = 0

    def __call__(self, spec: RunSpec) -> RunResult:
        self.calls += 1
        return self.func(spec)


SPEC = RunSpec(config="4D-2C", workload="pagerank", size="tiny")


# -- hit behavior --------------------------------------------------------------------


def test_hit_returns_value_equal_result_without_resimulating(tmp_path):
    execute = CountingExecute()
    runner = SweepRunner(cache=ResultsCache(tmp_path), execute=execute)
    first = runner.run([SPEC])[0]
    assert execute.calls == 1

    warm = SweepRunner(cache=ResultsCache(tmp_path), execute=execute)
    second = warm.run([SPEC])[0]
    assert execute.calls == 1  # served from disk, no re-simulation
    assert second == first  # value-equal, stats and histograms included
    assert second is not first
    assert warm.stats == {"cache.hits": 1, "cache.misses": 0}


def test_in_batch_duplicates_simulate_once(tmp_path):
    execute = CountingExecute()
    runner = SweepRunner(cache=ResultsCache(tmp_path), execute=execute)
    results = runner.run([SPEC, SPEC, SPEC])
    assert execute.calls == 1
    assert results[0] == results[1] == results[2]
    assert runner.stats == {"cache.hits": 2, "cache.misses": 1}


# -- key coverage --------------------------------------------------------------------


def test_key_changes_on_every_spec_field():
    variants = {
        "config": "8D-4C",
        "workload": "bfs",
        "size": "small",
        "seed": 43,
        "kind": "optimized",
        "mechanism": "mcn",
        "polling": "baseline",
        "sync_mode": "central",
        "topology": "ring",
        "link_gbps": 64.0,
        "placement": "random",
        "placement_seed": 8,
        "fault_fraction": 0.5,
        "params": "n=60",
        "data_placement": "next_touch",
    }
    # every declared field has a variant above: extending RunSpec without
    # extending this table fails here, not as a silent stale-cache bug
    assert set(variants) == {f.name for f in dataclasses.fields(RunSpec)}
    base_key = SPEC.cache_key()
    for field, value in variants.items():
        changed = dataclasses.replace(SPEC, **{field: value})
        assert changed.cache_key() != base_key, f"key ignores field {field!r}"


def test_key_changes_on_code_version_bump():
    assert SPEC.cache_key(CODE_VERSION) != SPEC.cache_key(CODE_VERSION + 1)


def test_key_is_stable_across_equal_specs():
    assert SPEC.cache_key() == RunSpec(
        config="4D-2C", workload="pagerank", size="tiny"
    ).cache_key()


def test_spec_rejects_nonsense():
    with pytest.raises(ConfigError):
        RunSpec(config="4D-2C", workload="bfs", kind="gpu")
    with pytest.raises(ConfigError):
        RunSpec(config="4D-2C", workload="bfs", placement="best")
    with pytest.raises(ConfigError):
        RunSpec(config="4D-2C", workload="bfs", fault_fraction=1.5)
    # only kind="nmp" installs a fault schedule: the other kinds would
    # replay the fault-free run under a different cache key
    for kind in ("cpu", "optimized"):
        with pytest.raises(ConfigError):
            RunSpec(config="4D-2C", workload="bfs", kind=kind, fault_fraction=0.5)
    # kind="optimized" always runs DIMM-Link, and only kind="nmp" places
    # threads by policy: the other values would alias another spec's run
    with pytest.raises(ConfigError):
        RunSpec(config="4D-2C", workload="bfs", kind="optimized", mechanism="mcn")
    for kind in ("cpu", "optimized"):
        with pytest.raises(ConfigError):
            RunSpec(config="4D-2C", workload="bfs", kind=kind, placement="random")


# -- bypass --------------------------------------------------------------------------


def test_no_cache_bypasses_reads_and_writes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    execute = CountingExecute()
    runner = SweepRunner(execute=execute)
    runner.run([SPEC, SPEC])
    runner.run([SPEC])
    assert execute.calls == 3  # every spec re-simulates, duplicates included
    assert not any(tmp_path.iterdir())  # and nothing was persisted
    assert runner.stats == {"cache.hits": 0, "cache.misses": 3}


# -- corruption ----------------------------------------------------------------------


def _entry_with_string_histogram_min() -> bytes:
    """A well-formed entry for SPEC whose one histogram ``min`` is a string."""
    result = fake_result(SPEC).to_json_dict()
    result["stats"]["histograms"]["dl.packet_ns"]["min"] = "0.0"
    payload = {"key": SPEC.cache_key(), "code_version": CODE_VERSION,
               "spec": None, "result": result}
    return json.dumps(payload, sort_keys=True).encode()


@pytest.mark.parametrize(
    "corruption",
    [
        b"",  # truncated to nothing
        b'{"key": "x", "result": {',  # cut mid-JSON
        b"not json at all",
        b'{"unexpected": "schema"}',  # valid JSON, wrong shape
        b'{"result": {"time_ps": "NaNish"}}',  # schema half-right
        pytest.param(b"\x00\xff" * 64, id="not-utf8"),
        pytest.param(  # right key and version, one wrong field type
            _entry_with_string_histogram_min(), id="histogram-min-is-a-string"
        ),
    ],
)
def test_corrupted_entries_are_misses_not_errors(tmp_path, corruption):
    cache = ResultsCache(tmp_path)
    key = SPEC.cache_key()
    cache.put(key, fake_result(SPEC))
    cache.path_for(key).write_bytes(corruption)

    assert cache.get(key) is None
    assert cache.misses == 1

    # and the runner transparently re-simulates and repairs the entry
    execute = CountingExecute()
    runner = SweepRunner(cache=cache, execute=execute)
    result = runner.run([SPEC])[0]
    assert execute.calls == 1
    assert cache.get(key) == result


def test_missing_entry_is_a_miss(tmp_path):
    cache = ResultsCache(tmp_path)
    assert cache.get("deadbeef" * 8) is None
    assert (cache.hits, cache.misses) == (0, 1)


def test_put_is_atomic_and_leaves_no_temp_files(tmp_path):
    cache = ResultsCache(tmp_path)
    path = cache.put(SPEC.cache_key(), fake_result(SPEC))
    assert path.exists()
    assert list(tmp_path.glob("*.tmp")) == []
    payload = json.loads(path.read_text())
    assert payload["code_version"] == CODE_VERSION
    assert RunResult.from_json_dict(payload["result"]) == fake_result(SPEC)


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


def test_clear_empties_the_cache(tmp_path):
    cache = ResultsCache(tmp_path)
    cache.put(SPEC.cache_key(), fake_result(SPEC))
    assert len(cache) == 1
    assert cache.clear() == 1
    assert len(cache) == 0


# -- stored-key / code-version validation --------------------------------------------


def test_renamed_entry_is_a_corruption_miss(tmp_path):
    """A hand-copied or renamed entry must not answer for another key."""
    cache = ResultsCache(tmp_path)
    key = SPEC.cache_key()
    cache.put(key, fake_result(SPEC))
    other_key = "0" * 64
    cache.path_for(key).rename(cache.path_for(other_key))
    assert cache.get(other_key) is None  # stored key disagrees with filename
    assert cache.misses == 1


def test_stored_code_version_mismatch_is_a_miss(tmp_path):
    cache = ResultsCache(tmp_path)
    key = SPEC.cache_key()
    path = cache.put(key, fake_result(SPEC))
    payload = json.loads(path.read_text())
    payload["code_version"] = CODE_VERSION - 1
    path.write_text(json.dumps(payload, sort_keys=True))
    assert cache.get(key) is None
    assert cache.misses == 1


def test_edited_stored_key_is_a_miss(tmp_path):
    cache = ResultsCache(tmp_path)
    key = SPEC.cache_key()
    path = cache.put(key, fake_result(SPEC))
    payload = json.loads(path.read_text())
    payload["key"] = "f" * 64
    path.write_text(json.dumps(payload, sort_keys=True))
    assert cache.get(key) is None


# -- concurrent multi-process writers ------------------------------------------------


def _put_from_child(cache_dir, key, barrier):
    from repro.results_cache import ResultsCache as ChildCache

    cache = ChildCache(cache_dir)
    barrier.wait(timeout=30)  # both writers rename as close together as we can
    cache.put(key, fake_result(SPEC), spec=SPEC.to_json_dict())


def test_concurrent_writers_of_the_same_key_both_leave_a_valid_entry(tmp_path):
    """Atomic temp-file+rename: racing writers never interleave bytes."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    key = SPEC.cache_key()
    barrier = ctx.Barrier(2)
    writers = [
        ctx.Process(target=_put_from_child, args=(str(tmp_path), key, barrier))
        for _ in range(2)
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=60)
        assert writer.exitcode == 0

    first = ResultsCache(tmp_path).get(key)
    second = ResultsCache(tmp_path).get(key)
    assert first is not None and second is not None
    assert first == second == fake_result(SPEC)
    assert list(tmp_path.glob("*.tmp")) == []


# -- golden keys: seed-era cache entries must survive this refactor ------------------


#: exact cache keys produced before the hot-path refactor.  The refactor
#: preserves serialized results bit-for-bit, so CODE_VERSION stays at 2
#: and every warm cache built against the seed tree must keep hitting.
#: If a change alters simulated results, bump CODE_VERSION — these
#: expectations then need regenerating alongside it.
GOLDEN_KEYS = {
    "cpu": "1c613094e091b56fcde3526e97b09b9567f4354a05a48a8755e8f193cea69b39",
    "abc": "955069fab8494b6ffe19b2feda125404ca2ca7e792f705cd72b8a257494d5415",
    "dimm_link": "a74c74329f67e22b4f262d574778a4ba775d55a127fbc25675cfa02458588c89",
    "dl_opt": "127139ed497cc74502e7548876435b9e6eb724449a40440f1580935bbccaeb67",
    "faulted": "ae8526ea4649d3b636e518383ed7368601fbb6629671c958a46d3c57acfb73fc",
}

GOLDEN_SPECS = {
    "cpu": RunSpec(
        config="4D-2C", workload="pagerank", size="tiny", kind="cpu", mechanism="cpu"
    ),
    "abc": RunSpec(config="4D-2C", workload="spmv_bc", size="tiny", mechanism="abc"),
    "dimm_link": RunSpec(
        config="4D-2C", workload="pagerank", size="tiny", mechanism="dimm_link"
    ),
    "dl_opt": RunSpec(
        config="4D-2C", workload="pagerank", size="tiny", kind="optimized"
    ),
    "faulted": RunSpec(
        config="8D-4C",
        workload="uniform_random",
        size="tiny",
        seed=11,
        mechanism="dimm_link",
        fault_fraction=0.67,
    ),
}


def test_code_version_is_unchanged_by_hot_path_refactor():
    assert CODE_VERSION == 2


@pytest.mark.parametrize("label", sorted(GOLDEN_KEYS))
def test_golden_cache_keys_are_stable(label):
    assert GOLDEN_SPECS[label].cache_key() == GOLDEN_KEYS[label], (
        "cache key drifted: pre-refactor warm caches would silently "
        "re-simulate (or worse, a stale CODE_VERSION would serve results "
        "from different code)"
    )


def test_seed_era_entry_still_warm_hits(tmp_path):
    """An entry written under a golden key is served without re-simulating."""
    spec = GOLDEN_SPECS["dimm_link"]
    cache = ResultsCache(tmp_path)
    cache.put(GOLDEN_KEYS["dimm_link"], fake_result(spec), spec=spec.to_json_dict())

    execute = CountingExecute()
    runner = SweepRunner(cache=ResultsCache(tmp_path), execute=execute)
    result = runner.run([spec])[0]
    assert execute.calls == 0  # pure warm hit across the refactor boundary
    assert result == fake_result(spec)
    assert runner.stats == {"cache.hits": 1, "cache.misses": 0}


# -- corrupt-entry quarantine (satellite regression) ---------------------------------


def test_corrupt_entry_is_quarantined_for_post_mortem(tmp_path):
    """A corrupt entry is moved to ``corrupt/`` on first sight: the bytes
    survive for debugging, and later lookups never re-parse them."""
    cache = ResultsCache(tmp_path)
    key = SPEC.cache_key()
    cache.put(key, fake_result(SPEC))
    cache.path_for(key).write_text("not json at all")

    assert cache.get(key) is None
    assert cache.corrupt == 1
    assert not cache.path_for(key).exists()
    assert (cache.corrupt_dir / f"{key}.json").read_text() == "not json at all"

    # second lookup: a plain miss — nothing left to re-parse
    assert cache.get(key) is None
    assert cache.corrupt == 1
    assert cache.misses == 2
    assert "corrupt=1" in repr(cache)


def test_missing_entry_is_not_quarantined(tmp_path):
    cache = ResultsCache(tmp_path)
    assert cache.get(SPEC.cache_key()) is None
    assert cache.corrupt == 0
    assert not cache.corrupt_dir.exists()


def test_quarantined_entries_do_not_count_or_block_repair(tmp_path):
    cache = ResultsCache(tmp_path)
    key = SPEC.cache_key()
    cache.put(key, fake_result(SPEC))
    cache.path_for(key).write_text("{}")
    assert cache.get(key) is None
    assert len(cache) == 0  # quarantined files are not entries

    # re-simulating repairs in place; the quarantined bytes remain aside
    cache.put(key, fake_result(SPEC))
    assert len(cache) == 1
    assert cache.get(key) == fake_result(SPEC)
    assert (cache.corrupt_dir / f"{key}.json").exists()
