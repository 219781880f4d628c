"""Self-test of the benchmark: ``python -m pytest bench -q``.

Outside the tier-1 ``testpaths``; covers the layer mapping, the
``BENCHMARK.json`` schema, the compare/bound logic, result digests
through the cache, and the sweep ``execute=`` wrapper under ``jobs=2``.
"""

import json
import pickle
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import grids  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from repro.experiments.runner import SweepRunner, execute_spec  # noqa: E402
from repro.results_cache import ResultsCache  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def tiny_specs():
    """A few fast sweep specs: a P2P kernel, a broadcast one, a paged one."""
    specs = grids.grid("sweep_tiny_jobs2", 42)
    picks = [
        next(s for s in specs if s.workload == "bfs" and s.mechanism == "mcn"),
        next(s for s in specs if s.workload == "spmv_bc"),
        next(s for s in specs if s.data_placement == "next_touch"),
    ]
    return picks


# -- layer mapping -----------------------------------------------------------------


@pytest.mark.parametrize(
    "relpath, layer",
    [
        ("sim/engine.py", "sim.engine"),
        ("sim/time.py", "sim.engine"),
        ("sim/stats.py", "sim.stats"),
        ("sim/resource.py", "sim.resource"),
        ("dram/bank.py", "dram"),
        ("interconnect/network.py", "interconnect"),
        ("experiments/runner.py", "experiments"),
        ("fabric/broker.py", "fabric"),
        ("results_cache.py", "results_cache"),
        ("config.py", "other_repro"),
        ("energy/params.py", "other_repro"),
    ],
)
def test_module_layer(relpath, layer):
    assert tracing.module_layer(relpath) == layer


def test_layer_of_real_files():
    import json as stdlib_json
    import repro.dram.module

    assert tracing.layer_of(repro.dram.module.__file__) == "dram"
    assert tracing.layer_of(stdlib_json.__file__) == "python"
    assert tracing.layer_of("~") == "python"


def test_every_source_file_maps_to_a_declared_layer():
    root = Path(tracing._REPRO_ROOT)
    layers = {tracing.layer_of(str(p)) for p in root.rglob("*.py")}
    assert layers <= set(tracing.LAYERS)
    assert layers >= set(tracing.LAYERS) - {"python"}


def test_counter_targets_resolve():
    assert sorted(tracing._counter_keys().values()) == sorted(tracing.COUNTERS)


# -- schema and units --------------------------------------------------------------


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(grids.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == grids.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    for metric in metrics:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert len({m["name"] for m in metrics}) == len(metrics)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    assert bounds["setup_s"]["unit"] == "s" and bounds["setup_s"]["better"] == "lower"
    assert bounds["setup_s"]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _span(key, seconds, scale=1.0):
    return {
        "key": key,
        "seconds": seconds,
        "events": 10,
        "layers": {layer: scale for layer in tracing.LAYERS},
        "calls": {counter: 3 for counter in tracing.COUNTERS},
    }


def _pass_record(wall=2.0, spans=()):
    return {
        "wall_s": wall, "cpu_s": wall, "peak_rss_mb": 40.0, "jobs": 2,
        "keys": ["k1", "k2", "k1"], "labels": {"k1": "a", "k2": "b"},
        "digests": {"k1": "d1", "k2": "d2"}, "errors": {}, "violations": {},
        "puts": 2, "put_s": 0.01, "spans": list(spans),
    }


def test_layer_metrics_match_benchmark_json():
    timed = _pass_record(spans=[_span("k1", 1.0), _span("k2", 2.0)])
    profiled = _pass_record(wall=7.0, spans=[_span("k1", 3.0), _span("k2", 4.0, 2.0)])
    metrics, slowest = run.layer_metrics(timed, profiled)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    shares = sum(metrics[f"{layer}.share"] for layer in tracing.LAYERS)
    assert shares == pytest.approx(100.0)
    assert metrics["sim.events"] == 20
    assert metrics["experiments.executor_overhead_s"] == pytest.approx(2.0 - 3.0 / 2)
    assert metrics["experiments.parallel_efficiency"] == pytest.approx(0.75)
    assert metrics["trace.overhead"] == pytest.approx(3.5)
    assert slowest[0] == ["b", 2.0]


def test_result_line_schema():
    record = {"workload": "p2p_small", "correct": True, "attempted": 3, "failed": 0,
              "metrics": {"wall_s": 1.5, "cpu_s": 1.4, "setup_s": 0.3, "peak_rss_mb": 40.0}}
    line = run.result_line([record], SPEC["end_to_end"])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert line["metrics"]["wall_s"] == {"value": 1.5, "unit": "s"}
    two = run.result_line([record, {**record, "workload": "placement_small"}],
                          SPEC["end_to_end"])
    assert "placement_small.wall_s" in two["metrics"] and two["attempted"] == 6


# -- correctness checks ------------------------------------------------------------


def test_verify_counts_each_failing_position():
    good = _pass_record()
    assert run.verify([good, good], {"k1": "d1", "k2": "d2"})["failed"] == 0
    verdict = run.verify([good], {"k1": "d1", "k2": "other"})
    assert (verdict["attempted"], verdict["failed"], verdict["correct"]) == (3, 1, False)
    assert run.verify([good], {"k2": "d2"})["failed"] == 2  # k1 not in golden
    drifted = {**good, "digests": {"k1": "d1", "k2": "d3"}}
    assert run.verify([good, drifted], None)["failed"] == 1
    assert run.verify([good], None)["verified"] == "unverified"


# -- compare -----------------------------------------------------------------------


def _result_file(path, wall=10.0, events=100, grid="g"):
    runs = [
        {"workload": "p2p_small", "correct": True, "grid_digest": grid,
         "metrics": {"wall_s": wall * f, "cpu_s": wall * f, "setup_s": 0.3,
                     "peak_rss_mb": 50.0},
         "layer_metrics": {m["name"]: events for m in SPEC["per_layer"]}}
        for f in (0.99, 1.0, 1.01)
    ]
    context = {"nproc": 2, "python": "3", "calibrate_ops_per_s": 1e6}
    path.write_text(json.dumps({"context": context, "seed": 42, "trace": True, "runs": runs}))
    return path


def test_compare_agrees_within_bounds(tmp_path, capsys):
    a = _result_file(tmp_path / "a.json")
    b = _result_file(tmp_path / "b.json", wall=10.0 * 1.05)
    assert run.compare(a, b, SPEC) == 0
    assert capsys.readouterr().out.rstrip().endswith("agree")


@pytest.mark.parametrize(
    "change",
    [{"wall": 10.0 * 1.3}, {"events": 101}, {"grid": "h"}],
    ids=["median-beyond-bound", "count-differs", "digest-differs"],
)
def test_compare_rejects(tmp_path, change):
    a = _result_file(tmp_path / "a.json")
    b = _result_file(tmp_path / "b.json", **change)
    assert run.compare(a, b, SPEC) == 1


def test_compare_faster_is_not_a_regression(tmp_path):
    a = _result_file(tmp_path / "a.json")
    b = _result_file(tmp_path / "b.json", wall=5.0)
    assert run.compare(a, b, SPEC) == 0


# -- digests through the cache, and the execute= wrapper -----------------------------


def test_direct_and_cache_round_trip_digests_match(tiny_specs, tmp_path):
    direct = {s.cache_key(): grids.digest(execute_spec(s)) for s in tiny_specs}
    cold = SweepRunner(cache=str(tmp_path / "cache")).run(tiny_specs)
    warm_runner = SweepRunner(cache=str(tmp_path / "cache"))
    warm = warm_runner.run(tiny_specs)
    assert warm_runner.hits == len(tiny_specs)
    for spec, c, w in zip(tiny_specs, cold, warm):
        assert grids.digest(c) == grids.digest(w) == direct[spec.cache_key()]
    cache = ResultsCache(str(tmp_path / "cache"))
    assert {k: grids.digest(cache.get(k)) for k in direct} == direct


def test_span_wrapper_pickles_and_times_under_jobs2(tiny_specs, tmp_path):
    spans = tmp_path / "spans"
    spans.mkdir()
    wrapper = tracing.SpanExecute(str(spans))
    assert pickle.loads(pickle.dumps(wrapper)) == wrapper
    cache = grids.SpanCache(str(tmp_path / "cache"))
    runner = SweepRunner(jobs=2, cache=cache, execute=wrapper, strict=False)
    results = runner.run(tiny_specs)
    assert all(r is not None for r in results) and not runner.dead_letters
    recorded = tracing.read_spans(spans)
    assert sorted(s["key"] for s in recorded) == sorted(s.cache_key() for s in tiny_specs)
    assert all(s["seconds"] > 0 for s in recorded)
    assert cache.puts == len(tiny_specs) and cache.put_s > 0


def test_profiled_span_attributes_layers_and_counts(tiny_specs, tmp_path):
    spec = tiny_specs[0]
    result = tracing.SpanExecute(str(tmp_path), profile=True)(spec)
    assert grids.digest(result) == grids.digest(execute_spec(spec))
    (span,) = tracing.read_spans(tmp_path)
    assert span["events"] > 0 and span["calls"]["sim.process_resumes"] > 0
    assert span["calls"]["host.forwards"] > 0  # mcn forwards through the host
    assert sum(span["layers"].values()) == pytest.approx(span["seconds"], rel=0.5)
