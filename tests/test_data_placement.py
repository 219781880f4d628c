"""Tests for data-placement specs: validation, cache-key stability, the
static-policy compatibility shim, and the migration crossover."""

import json

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.experiments import mapping_ablation
from repro.experiments.common import build_workload, threads_for
from repro.experiments.runner import (
    RunSpec,
    SweepRunner,
    clear_run_memo,
    execute_spec,
)
from repro.mapping.pagetable import PageTable, make_policy
from repro.nmp.system import NMPSystem


# -- spec validation -----------------------------------------------------------------


def test_spec_rejects_unknown_data_placement():
    with pytest.raises(ConfigError):
        RunSpec(config="4D-2C", workload="hotpage", data_placement="best_effort")


def test_spec_rejects_dynamic_placement_on_optimized_kind():
    with pytest.raises(ConfigError):
        RunSpec(
            config="4D-2C",
            workload="hotpage",
            kind="optimized",
            data_placement="next_touch",
        )
    # the supported spelling of the same intent
    RunSpec(
        config="4D-2C",
        workload="hotpage",
        kind="nmp",
        placement="optimized",
        data_placement="profiled",
    )


def test_build_workload_rejects_paging_unpaged_workloads():
    with pytest.raises(ConfigError):
        build_workload("kmeans", size="tiny", paged=True)


# -- cache-key stability -------------------------------------------------------------


def test_static_placement_is_omitted_from_payload_and_key():
    legacy = RunSpec(config="4D-2C", workload="pagerank", size="tiny")
    payload = legacy.to_json_dict()
    assert "data_placement" not in payload
    # a pre-placement-era payload reconstructs to an equal spec
    assert RunSpec(**payload) == legacy
    assert RunSpec(**payload).cache_key() == legacy.cache_key()


def test_dynamic_placement_changes_the_key():
    static = RunSpec(config="4D-2C", workload="hotpage", size="tiny")
    dynamic = RunSpec(
        config="4D-2C", workload="hotpage", size="tiny", data_placement="next_touch"
    )
    assert dynamic.to_json_dict()["data_placement"] == "next_touch"
    assert dynamic.cache_key() != static.cache_key()


# -- the static shim reproduces the legacy path byte for byte ------------------------


def test_static_pagetable_is_byte_identical_to_legacy_run():
    config = SystemConfig.named("4D-2C")
    threads = threads_for(config)

    legacy = build_workload("pagerank", size="tiny")
    baseline = NMPSystem(config, idc="mcn").run(
        legacy.thread_factories(threads, config.num_dimms),
        workload_name=legacy.name,
    )

    paged = build_workload("pagerank", size="tiny", paged=True)
    shimmed = NMPSystem(config, idc="mcn").run(
        paged.thread_factories(threads, config.num_dimms),
        workload_name=paged.name,
        pagetable=PageTable(make_policy("static"), config.num_dimms),
    )

    assert json.dumps(shimmed.to_json_dict(), sort_keys=True) == json.dumps(
        baseline.to_json_dict(), sort_keys=True
    )


def test_static_spec_matches_spec_without_placement_field():
    implicit = execute_spec(RunSpec(config="4D-2C", workload="hotpage", size="tiny"))
    clear_run_memo()  # the explicit spec must simulate, not replay
    explicit = execute_spec(
        RunSpec(config="4D-2C", workload="hotpage", size="tiny", data_placement="static")
    )
    assert json.dumps(explicit.to_json_dict(), sort_keys=True) == json.dumps(
        implicit.to_json_dict(), sort_keys=True
    )


# -- the crossover: migration beats the static shard on skew -------------------------


def _hotpage(policy, kind="nmp"):
    return RunSpec(
        config="4D-2C",
        workload="hotpage",
        size="tiny",
        kind=kind,
        mechanism="mcn",
        data_placement=policy,
    )


def test_dynamic_policies_beat_static_on_hotpage():
    times = {
        policy: execute_spec(_hotpage(policy)).time_us
        for policy in ("static", "first_touch", "next_touch", "profiled")
    }
    assert times["first_touch"] < times["static"]
    assert times["next_touch"] < times["static"]
    assert times["profiled"] < times["static"]
    # the offline policies avoid the online policy's migration cost
    assert times["profiled"] <= times["next_touch"]


def test_cpu_kind_supports_dynamic_placement():
    result = execute_spec(_hotpage("next_touch", kind="cpu"))
    assert result.stats.sum_suffix("placement.migrations") > 0
    static = execute_spec(_hotpage("static", kind="cpu"))
    assert static.stats.sum_suffix("placement.migrations") == 0
    assert result.time_us != static.time_us


# -- parallel equivalence over a migration-heavy grid --------------------------------


def test_jobs2_equals_jobs1_on_mixed_placement_grid():
    grid = [
        RunSpec(config="4D-2C", workload="hotpage", size="tiny", mechanism="mcn"),
        _hotpage("next_touch"),
        _hotpage("first_touch"),
        _hotpage("profiled"),
        _hotpage("next_touch", kind="cpu"),
        RunSpec(
            config="4D-2C",
            workload="pagerank",
            size="tiny",
            data_placement="profiled",
            placement="optimized",
        ),
    ]
    serialize = lambda results: json.dumps(
        [r.to_json_dict() for r in results], sort_keys=True
    )
    serial = SweepRunner(jobs=1).run(grid)
    clear_run_memo()  # forked workers must simulate, not replay the parent
    parallel = SweepRunner(jobs=2).run(grid)
    assert serialize(parallel) == serialize(serial)


# -- mapping ablation: the natural row landed ----------------------------------------


def test_mapping_ablation_reports_natural_row():
    assert mapping_ablation.POLICIES == ("random", "optimized", "natural")
    results = mapping_ablation.run(size="tiny", workload_names=("pagerank",))
    row = results["pagerank"]
    for key in ("natural_us", "natural_cost", "random_cost", "optimized_cost"):
        assert key in row
    # Fig.10-style workloads co-locate threads with their shard, so the
    # natural placement's Algorithm-1 cost is no worse than random's
    assert row["natural_cost"] <= row["random_cost"]
