"""The ``repro.perf`` harness: report schema, floors, and CLI plumbing.

The harness itself is a deliverable — CI's perf-smoke job and the
committed ``BENCH_hotpath.json`` both depend on its JSON contract, so
the schema and the ``--check`` floor logic get the same regression
treatment as simulator code.  Tests run tiny bench subsets in quick
mode; wall-clock stays in CI-smoke territory.
"""

import json

import pytest

from repro.perf.__main__ import (
    CHECK_FLOORS,
    SCHEMA,
    build_report,
    check_floors,
    main,
)
from repro.perf.benches import BENCHES, run_benches
from repro.perf.calibrate import ROUND_OPS, calibrate


def test_calibration_reports_positive_throughput():
    calibration = calibrate(min_seconds=0.01)
    assert calibration["ops_per_sec"] > 0
    assert calibration["wall_s"] > 0
    assert calibration["rounds"] >= 1
    # the round size is part of the normalization contract: changing it
    # silently rescales every historical normalized figure
    assert ROUND_OPS == 50_000


def test_bench_registry_names():
    assert set(CHECK_FLOORS) <= set(BENCHES)
    assert {"route_lookup", "engine_churn"} <= set(BENCHES)


@pytest.mark.parametrize("name", ["engine_churn", "route_lookup"])
def test_individual_bench_shape(name):
    (result,) = run_benches(quick=True, only=[name])
    assert result["name"] == name
    assert result["ops"] > 0
    assert result["wall_s"] > 0
    assert result["ops_per_sec"] == pytest.approx(
        result["ops"] / result["wall_s"]
    )


def test_report_schema_and_normalization():
    report = build_report(quick=True, only=["route_lookup"])
    assert report["schema"] == SCHEMA
    assert report["quick"] is True
    (bench,) = report["benches"]
    expected = bench["ops_per_sec"] / report["calibration"]["ops_per_sec"]
    assert bench["normalized"] == pytest.approx(expected)
    assert report["speedups"] == {"route_lookup": bench["speedup"]}
    json.dumps(report)  # every value JSON-serializable


def test_check_floors_pass_fail_and_missing():
    passing = {"speedups": {name: floor + 1.0 for name, floor in CHECK_FLOORS.items()}}
    assert check_floors(passing) == []

    failing = {"speedups": {name: 0.5 for name in CHECK_FLOORS}}
    messages = check_floors(failing)
    assert len(messages) == len(CHECK_FLOORS)
    assert all("below floor" in message for message in messages)

    missing = {"speedups": {}}
    messages = check_floors(missing)
    assert all("not run" in message for message in messages)


def test_cli_writes_report_and_returns_zero(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main(["--quick", "--bench", "route_lookup", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == SCHEMA
    assert report["benches"][0]["name"] == "route_lookup"
    stdout = capsys.readouterr().out
    assert "route_lookup" in stdout and str(out) in stdout


def test_cli_check_passes_on_route_lookup_floor(tmp_path, capsys):
    """route_lookup's quick-mode speedup comfortably clears its floor,
    and it is the only floor --check asserts."""
    assert set(CHECK_FLOORS) == {"route_lookup"}
    out = tmp_path / "bench.json"
    code = main(["--quick", "--bench", "route_lookup", "--check", "--out", str(out)])
    assert code == 0
    assert "checks passed" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["speedups"]["route_lookup"] >= CHECK_FLOORS["route_lookup"]


def test_cli_check_reports_a_floor_whose_bench_did_not_run(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main(["--quick", "--bench", "engine_churn", "--check", "--out", str(out)])
    assert code == 1
    assert "route_lookup: no speedup measured" in capsys.readouterr().err
