"""Round-trip property suite for RunResult / StatRegistry / Histogram
JSON serialization (seeded-random generation, no external deps)."""

import json
import random

import pytest

from repro.experiments.runner import RunSpec, execute_spec
from repro.nmp.results import RunResult
from repro.sim.stats import Histogram, StatRegistry

NAME_PARTS = ("idc", "dl", "core", "dram", "fault", "bus", "sync")


def random_registry(rng: random.Random) -> StatRegistry:
    stats = StatRegistry()
    for _ in range(rng.randint(0, 30)):
        name = ".".join(rng.sample(NAME_PARTS, rng.randint(1, 3)))
        value = rng.choice(
            [
                rng.uniform(-1e12, 1e12),
                float(rng.randint(-(2**48), 2**48)),
                0.0,
                rng.random(),
            ]
        )
        stats.add(f"{name}.c{rng.randint(0, 5)}", value)
    for _ in range(rng.randint(0, 5)):
        hist = stats.histogram(f"{rng.choice(NAME_PARTS)}.h{rng.randint(0, 3)}")
        for _ in range(rng.randint(0, 50)):
            hist.record(
                rng.choice(
                    [
                        rng.uniform(-100.0, 1e9),
                        0.0,
                        rng.random(),  # (0, 1): the log2-bucket edge case
                        float(rng.randint(1, 2**40)),
                    ]
                )
            )
    return stats


def random_result(rng: random.Random) -> RunResult:
    threads = rng.randint(1, 64)
    ends = sorted(rng.randint(0, 2**50) for _ in range(threads))
    return RunResult(
        system_name=rng.choice(["4D-2C", "16D-8C", "cpu-16D-8C"]),
        mechanism=rng.choice(["cpu", "mcn", "aim", "abc", "dimm_link"]),
        workload=rng.choice(["pagerank", "bfs", "uniform_random"]),
        time_ps=ends[-1],
        thread_end_ps=ends,
        stats=random_registry(rng),
        bus_occupancy=[rng.random() for _ in range(rng.randint(0, 8))],
        profile_ps=rng.randint(0, 2**40),
        polling=rng.choice(["none", "baseline", "proxy", "proxy+interrupt"]),
    )


@pytest.mark.parametrize("seed", range(20))
def test_run_result_round_trips_through_json(seed):
    result = random_result(random.Random(seed))
    wire = json.dumps(result.to_json_dict(), sort_keys=True)
    rebuilt = RunResult.from_json_dict(json.loads(wire))
    assert rebuilt == result
    # and the round trip is a fixed point: serializing again is identical
    assert json.dumps(rebuilt.to_json_dict(), sort_keys=True) == wire


@pytest.mark.parametrize("seed", range(10))
def test_stat_registry_round_trips_through_json(seed):
    stats = random_registry(random.Random(1000 + seed))
    rebuilt = StatRegistry.from_json_dict(json.loads(json.dumps(stats.to_json_dict())))
    assert rebuilt == stats
    # aggregate views must survive: the experiments read these off caches
    assert rebuilt.sum_suffix("c0") == stats.sum_suffix("c0")
    assert rebuilt.counters("idc") == stats.counters("idc")


def test_histogram_round_trip_preserves_buckets_and_extrema():
    hist = Histogram("dl.latency")
    for value in (-3.0, 0.0, 0.25, 0.5, 1.0, 7.0, 1024.0):
        hist.record(value)
    rebuilt = Histogram.from_json_dict(json.loads(json.dumps(hist.to_json_dict())))
    assert rebuilt == hist
    assert rebuilt.buckets() == hist.buckets()
    assert (rebuilt.min, rebuilt.max, rebuilt.mean) == (hist.min, hist.max, hist.mean)


def test_empty_histogram_round_trips():
    hist = Histogram("empty")
    rebuilt = Histogram.from_json_dict(json.loads(json.dumps(hist.to_json_dict())))
    assert rebuilt == hist
    assert rebuilt.min is None and rebuilt.max is None and rebuilt.count == 0


def test_real_simulation_result_round_trips():
    # a genuine tiny run: covers the actual stat names, histograms,
    # profile_ps (DL-opt charges it) and bus_occupancy the sim produces
    result = execute_spec(
        RunSpec(config="4D-2C", workload="pagerank", size="tiny", kind="optimized")
    )
    assert result.profile_ps > 0
    assert result.bus_occupancy
    rebuilt = RunResult.from_json_dict(
        json.loads(json.dumps(result.to_json_dict(), sort_keys=True))
    )
    assert rebuilt == result
    assert rebuilt.traffic_breakdown == result.traffic_breakdown
    assert rebuilt.mean_bus_occupancy == result.mean_bus_occupancy

    # a reload serializes to the same bytes; ``==`` cannot see int
    # histogram extrema (DLRM/APSP stamps) coming back as floats
    dlrm = RunSpec(config="16D-8C", workload="dlrm", size="tiny",
                   params="batch_size=4")
    apsp = RunSpec(config="16D-8C", workload="apsp", size="tiny",
                   params="block=12,n=48")
    for fresh in (result, execute_spec(dlrm), execute_spec(apsp)):
        wire = json.dumps(fresh.to_json_dict(), sort_keys=True)
        reloaded = RunResult.from_json_dict(json.loads(wire))
        assert json.dumps(reloaded.to_json_dict(), sort_keys=True) == wire
