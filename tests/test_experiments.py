"""Integration tests: every experiment harness runs and reproduces the
paper's qualitative shapes at the tiny size preset."""

import json

import pytest

from repro.config import SystemConfig
from repro.experiments import (
    build_workload,
    fig01_idc_bandwidth,
    fig10_p2p,
    fig11_breakdown,
    fig12_broadcast,
    fig13_energy,
    fig14_sync,
    fig15_polling,
    fig16_bandwidth,
    fig17_topology,
    mapping_ablation,
    table1_bandwidth_model,
    table2_serdes,
)
from repro.errors import ConfigError
from repro.experiments.common import threads_for
from repro.experiments.runner import SweepRunner, execute_spec
from repro.nmp.system import NMPSystem
from repro.workloads.microbench import SyncInterval


# -- workload registry -----------------------------------------------------------

def test_build_workload_all_names():
    for name in (
        "bfs", "sssp", "pagerank", "spmv", "hotspot", "kmeans", "nw",
        "ts_pow", "pagerank_bc", "sssp_bc", "spmv_bc",
    ):
        workload = build_workload(name, "tiny")
        assert workload.thread_factories(8, 4)


def test_build_workload_rejects_unknown():
    with pytest.raises(ConfigError):
        build_workload("matrix_inverse", "tiny")
    with pytest.raises(ConfigError):
        build_workload("bfs", "gigantic")


def test_build_workload_overrides_sync_interval_shape():
    workload = build_workload(
        "sync_interval", "tiny", overrides={"barriers": 3, "interval_instructions": 100}
    )
    assert isinstance(workload, SyncInterval)
    assert (workload.barriers, workload.interval_instructions) == (3, 100)
    assert workload.local_reads_per_interval == 4  # rest of the shape intact


# -- Fig. 1 -----------------------------------------------------------------------

def test_fig1_bandwidth_grows_then_saturates():
    rows = fig01_idc_bandwidth.run(sizes=(4096, 65536), total_bytes=1 << 18)
    small, large = rows[0]["p2p_gbps"], rows[1]["p2p_gbps"]
    assert large > small          # bigger transfers amortise overheads
    assert large < 19.2           # but stay far below the channel peak


def test_fig1_aggregate_gap_is_large():
    gap = fig01_idc_bandwidth.aggregate_gap()
    assert gap["nmp_aggregate_gbps"] == pytest.approx(1228.8)
    assert gap["gap_x"] > 20      # paper: 51x


# -- Tables -----------------------------------------------------------------------

def test_table1_dimm_link_scales_and_bus_does_not():
    rows = table1_bandwidth_model.run()
    by_config = {r["config"]: r for r in rows}
    assert by_config["16D-8C"]["dimm_link"] > by_config["4D-2C"]["dimm_link"]
    assert by_config["16D-8C"]["dedicated_bus"] == by_config["4D-2C"]["dedicated_bus"]


def test_table2_grs_best_rate_shortest_reach():
    rows = {r["name"]: r for r in table2_serdes.run()}
    assert rows["grs"]["rate_gbps_per_pin"] == max(
        r["rate_gbps_per_pin"] for r in rows.values()
    )
    assert rows["grs"]["reach_mm"] == min(r["reach_mm"] for r in rows.values())


# -- Fig. 10 -----------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig10_rows():
    return fig10_p2p.run(
        size="tiny",
        config_names=("4D-2C", "16D-8C"),
        workload_names=("pagerank", "hotspot"),
    )


def test_fig10_dimm_link_beats_mcn(fig10_rows):
    stats = fig10_p2p.summary(fig10_rows)
    assert stats["dl_opt_over_mcn"] > 1.0


def test_fig10_rows_have_all_systems(fig10_rows):
    for row in fig10_rows:
        for system in fig10_p2p.SYSTEMS:
            assert float(row[system]) > 0
        assert 0 <= float(row["dl_opt_idc_ratio"]) <= 1


def test_fig10_mcn_has_higher_idc_stall_than_dl(fig10_rows):
    for row in fig10_rows:
        assert row["mcn_idc_ratio"] >= row["dl_opt_idc_ratio"] * 0.8


# -- Fig. 11 -----------------------------------------------------------------------

def test_fig11_shares_sum_to_one():
    rows = fig11_breakdown.run(size="tiny", workload_names=("pagerank",))
    for row in rows:
        total = row["local_share"] + row["intra_group_share"] + row["forwarded_share"]
        assert total == pytest.approx(1.0)
        assert row["local_share"] > row["forwarded_share"]


# -- Fig. 12 -----------------------------------------------------------------------

def test_fig12_broadcast_ordering():
    rows = fig12_broadcast.run(
        size="tiny", dpc_configs=(("2DPC", "16D-8C"),),
        workload_names=("spmv_bc",),
    )
    stats = fig12_broadcast.summary(rows)
    assert stats["dl_over_mcn_bc"] > 1.0       # DL beats MCN-BC
    assert stats["dl_over_abc"] > 1.0          # and ABC-DIMM
    assert stats["aim_over_dl"] > 1.0          # AIM-BC's ideal bus wins


# -- Fig. 13 -----------------------------------------------------------------------

def test_fig13_energy_mcn_worst():
    rows = fig13_energy.run(size="tiny", workload_names=("pagerank",))
    stats = fig13_energy.summary(rows)
    assert stats["mcn_over_dl_energy"] > 1.0
    assert stats["aim_has_lowest_idc_energy"] == 1.0


# -- Fig. 14 -----------------------------------------------------------------------

def test_fig14_hier_wins_and_gap_grows_with_frequency():
    rows, _tspow = fig14_sync.run(size="tiny", intervals=(500, 5000), barriers=5)
    for row in rows:
        assert row["DL-Hier"] <= row["MCN"]
        assert row["DL-Hier"] <= row["DL-Central"]
    tight = fig14_sync.speedups_at(rows, 500)
    loose = fig14_sync.speedups_at(rows, 5000)
    assert tight["MCN"] > loose["MCN"]


def test_fig14_tspow_dl_beats_mcn():
    _rows, results = fig14_sync.run(size="tiny")
    assert results["DL-Hier"] < results["MCN"]


def test_fig14_runs_through_the_sweep_runner(tmp_path):
    runner = SweepRunner(cache=str(tmp_path))
    cold = fig14_sync.run(size="tiny", barriers=2, runner=runner)
    assert runner.stats == {"cache.hits": 0, "cache.misses": 20}
    warm = fig14_sync.run(size="tiny", barriers=2, runner=runner)
    assert runner.stats == {"cache.hits": 20, "cache.misses": 20}
    assert warm == cold


@pytest.mark.parametrize("index", range(len(fig14_sync.SYSTEMS)))
def test_fig14_sync_spec_equals_the_hand_built_run(index):
    """A panel (a) spec simulates exactly what a hand-built ``NMPSystem``
    runs on the same ``SyncInterval``."""
    spec = fig14_sync.specs("tiny", (500,), barriers=3, config_name="4D-2C")[index]
    mechanism, mode, _label = fig14_sync.SYSTEMS[index]
    via_spec = execute_spec(spec)
    config = SystemConfig.named("4D-2C")
    workload = SyncInterval(interval_instructions=500, barriers=3)
    by_hand = NMPSystem(config, idc=mechanism, sync_mode=mode).run(
        workload.thread_factories(threads_for(config), config.num_dimms),
        workload_name="sync_interval",
    )
    assert json.dumps(via_spec.to_json_dict(), sort_keys=True) == json.dumps(
        by_hand.to_json_dict(), sort_keys=True
    )


# -- Fig. 15 -----------------------------------------------------------------------

def test_fig15_polling_shapes():
    rows = fig15_polling.run(size="tiny", workload_names=("pagerank",))
    stats = fig15_polling.summary(rows)
    assert stats["baseline"]["mean_bus_occupancy"] == max(
        s["mean_bus_occupancy"] for s in stats.values()
    )
    assert stats["proxy"]["time_geomean_us"] == min(
        s["time_geomean_us"] for s in stats.values()
    )
    assert (
        stats["proxy+interrupt"]["mean_bus_occupancy"]
        < stats["baseline"]["mean_bus_occupancy"]
    )


# -- Fig. 16 -----------------------------------------------------------------------

def test_fig16_bandwidth_helps_more_at_scale():
    rows = fig16_bandwidth.run(
        size="small",
        bandwidths=(4.0, 64.0),
        config_names=("4D-2C", "16D-8C"),
        workload_names=("pagerank",),
    )
    small_gain = fig16_bandwidth.scaling_gain(rows, "4D-2C")
    large_gain = fig16_bandwidth.scaling_gain(rows, "16D-8C")
    assert large_gain > small_gain >= 1.0


# -- Fig. 17 -----------------------------------------------------------------------

def test_fig17_topologies_run_and_torus_not_worse():
    rows = fig17_topology.run(size="tiny", workload_names=("pagerank",))
    gains = fig17_topology.speedups_over_half_ring(rows)
    assert gains["half_ring"] == pytest.approx(1.0)
    assert gains["torus"] >= 0.98  # never meaningfully worse


# -- mapping ablation ----------------------------------------------------------------

def test_mapping_ablation_recovers_locality():
    results = mapping_ablation.run(size="tiny", workload_names=("pagerank",))
    row = results["pagerank"]
    assert row["speedup"] > 1.2
    assert row["optimized_cost"] < row["random_cost"]
