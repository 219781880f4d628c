"""Tests for analysis helpers (geomean, speedups, tables)."""

import math

import pytest

from repro.analysis.report import format_table, geomean, speedups


def test_geomean_known_values():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([5.0]) == pytest.approx(5.0)


def test_geomean_rejects_bad_input():
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
    with pytest.raises(ValueError):
        geomean([-1.0])


def test_geomean_log_identity():
    values = [1.5, 2.5, 9.0, 0.25]
    expected = math.exp(sum(map(math.log, values)) / len(values))
    assert geomean(values) == pytest.approx(expected)


def test_speedups_ratio_orientation():
    baseline = {"a": 10.0, "b": 30.0}
    candidate = {"a": 5.0, "b": 10.0}
    result = speedups(baseline, candidate)
    assert result == {"a": 2.0, "b": 3.0}


def test_speedups_key_mismatch_rejected():
    with pytest.raises(ValueError):
        speedups({"a": 1.0}, {"b": 1.0})


def test_format_table_alignment_and_floats():
    text = format_table(["name", "value"], [("x", 1.23456), ("longer", 2)])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "1.235" in lines[2]
    assert lines[0].index("value") == lines[2].index("1.235")


def test_format_table_precision():
    text = format_table(["v"], [(3.14159,)], precision=1)
    assert "3.1" in text and "3.14" not in text

