"""Benchmark: regenerate Fig. 14 (synchronization sensitivity)."""

from repro.experiments import fig14_sync


def test_fig14_interval_sweep(once):
    rows, _tspow = once(fig14_sync.run, size="tiny", intervals=(500, 2000), barriers=5)
    for row in rows:
        assert row["DL-Hier"] <= row["MCN"]
    tight = fig14_sync.speedups_at(rows, 500)
    assert tight["MCN"] > 1.0


def test_fig14_tspow(once):
    _rows, results = once(fig14_sync.run, size="tiny")
    assert results["DL-Hier"] < results["MCN"]
