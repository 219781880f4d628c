"""Parallel-equivalence suite: the ProcessPoolExecutor fan-out changes
wall-clock only — results are byte-identical and identically ordered to
the serial path, whatever the worker count."""

import json

from repro.experiments import fig16_bandwidth
from repro.experiments.runner import RunSpec, SweepRunner, clear_run_memo
from repro.results_cache import ResultsCache

#: a small fig16-style grid: CPU reference + a bandwidth sweep.
GRID = fig16_bandwidth.specs(
    size="tiny",
    bandwidths=(4.0, 64.0),
    config_names=("4D-2C",),
    workload_names=("pagerank",),
)


def serialize(results):
    return json.dumps([r.to_json_dict() for r in results], sort_keys=True)


def test_jobs2_output_is_byte_identical_and_ordered_like_jobs1():
    serial = SweepRunner(jobs=1).run(GRID)
    clear_run_memo()  # forked workers must simulate, not replay the parent
    parallel = SweepRunner(jobs=2).run(GRID)
    assert serialize(parallel) == serialize(serial)
    # same order: each result lines up with its spec
    for spec, result in zip(GRID, parallel):
        assert result.workload == "pagerank"
        expected = "cpu" if spec.kind == "cpu" else "dimm_link"
        assert result.mechanism == expected


def test_parallel_run_populates_cache_serial_run_replays(tmp_path):
    cold = SweepRunner(jobs=2, cache=ResultsCache(tmp_path))
    first = cold.run(GRID)
    assert cold.stats == {"cache.hits": 0, "cache.misses": len(GRID)}

    warm = SweepRunner(jobs=1, cache=ResultsCache(tmp_path))
    second = warm.run(GRID)
    assert warm.stats == {"cache.hits": len(GRID), "cache.misses": 0}
    assert serialize(second) == serialize(first)


def test_mixed_hit_miss_batches_keep_order(tmp_path):
    cache = ResultsCache(tmp_path)
    SweepRunner(jobs=1, cache=cache).run(GRID[:2])  # warm a prefix only

    clear_run_memo()
    runner = SweepRunner(jobs=2, cache=ResultsCache(tmp_path))
    results = runner.run(GRID)
    assert runner.stats == {"cache.hits": 2, "cache.misses": len(GRID) - 2}
    clear_run_memo()
    assert serialize(results) == serialize(SweepRunner(jobs=1).run(GRID))


def test_experiment_rows_equal_under_parallelism():
    serial_rows = fig16_bandwidth.run(
        size="tiny",
        bandwidths=(4.0, 64.0),
        config_names=("4D-2C",),
        workload_names=("pagerank",),
        runner=SweepRunner(jobs=1),
    )
    clear_run_memo()
    parallel_rows = fig16_bandwidth.run(
        size="tiny",
        bandwidths=(4.0, 64.0),
        config_names=("4D-2C",),
        workload_names=("pagerank",),
        runner=SweepRunner(jobs=2),
    )
    assert parallel_rows == serial_rows
