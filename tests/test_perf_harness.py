"""The ``repro.perf`` calibration that ``bench/run.py`` reports."""

from repro.perf.calibrate import ROUND_OPS, calibrate


def test_calibration_reports_positive_throughput():
    calibration = calibrate(min_seconds=0.01)
    assert calibration["ops_per_sec"] > 0
    assert calibration["wall_s"] > 0
    assert calibration["rounds"] >= 1
    # the round size is part of the normalization contract: changing it
    # silently rescales every historical normalized figure
    assert ROUND_OPS == 50_000
