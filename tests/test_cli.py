"""Tests for the dimmlink-repro CLI."""

import json
import re

import pytest

from repro.experiments.cli import (
    _SIZED,
    _UNSIZED,
    experiment_names,
    main,
    traceable_names,
)


def cache_stats(output: str):
    """Parse the ``[cache] cache.hits=H cache.misses=M`` line."""
    match = re.search(r"\[cache\] cache\.hits=(\d+) cache\.misses=(\d+)", output)
    assert match, f"no cache stat line in output:\n{output}"
    return int(match.group(1)), int(match.group(2))


def test_experiment_names_cover_all_figures():
    names = experiment_names()
    for expected in ("fig1", "fig10", "fig14", "table1", "table2", "mapping", "all"):
        assert expected in names


def test_every_experiment_name_resolves_to_a_callable():
    for name in experiment_names():
        if name == "all":
            continue
        runner = _SIZED.get(name) or _UNSIZED.get(name)
        assert callable(runner), f"{name} has no runner"


def test_all_covers_exactly_the_union_of_dispatch_tables():
    assert not set(_SIZED) & set(_UNSIZED)
    assert set(experiment_names()) == set(_SIZED) | set(_UNSIZED) | {"all"}


def test_traceable_names_are_experiment_names_minus_all():
    assert traceable_names() == [n for n in experiment_names() if n != "all"]
    assert "all" not in traceable_names()


def test_cli_runs_unsized_experiment(capsys):
    assert main(["table2", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "SerDes" in out


def test_cli_runs_sized_experiment(tmp_path, capsys):
    assert main(["fig11", "--size", "tiny", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "breakdown" in out
    hits, misses = cache_stats(out)
    assert hits == 0 and misses > 0  # cold cache: everything simulated


def test_cli_no_cache_reports_misses_and_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for flags in (["--no-cache"], ["--cache-dir", ""]):
        assert main(["fig17", "--size", "tiny", *flags]) == 0
        hits, misses = cache_stats(capsys.readouterr().out)
        assert hits == 0 and misses > 0, flags
    assert not any(tmp_path.iterdir())


def test_cli_warm_cache_fig16_performs_zero_simulations(tmp_path, capsys):
    # acceptance criterion: re-running `dimmlink-repro fig16 --size tiny`
    # against a warm cache is pure replay — zero simulations
    args = ["fig16", "--size", "tiny", "--jobs", "2", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    cold_out = capsys.readouterr().out
    cold_hits, cold_misses = cache_stats(cold_out)
    assert cold_misses > 0

    assert main(args) == 0
    warm_out = capsys.readouterr().out
    warm_hits, warm_misses = cache_stats(warm_out)
    assert warm_misses == 0  # zero simulations
    assert warm_hits == cold_hits + cold_misses  # every point served

    # byte-identical tables modulo the cache stat line itself
    strip = lambda text: [l for l in text.splitlines() if "[cache]" not in l]
    assert strip(warm_out) == strip(cold_out)


def test_cli_jobs_must_be_positive():
    with pytest.raises(SystemExit):
        main(["fig17", "--size", "tiny", "--jobs", "0"])


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_cli_rejects_unknown_size():
    with pytest.raises(SystemExit):
        main(["fig11", "--size", "huge"])


def test_cli_rejects_target_without_trace_command():
    with pytest.raises(SystemExit):
        main(["fig11", "fig10"])


def test_cli_trace_rejects_missing_or_bad_target():
    with pytest.raises(SystemExit):
        main(["trace"])
    with pytest.raises(SystemExit):
        main(["trace", "all"])
    with pytest.raises(SystemExit):
        main(["trace", "fig99"])


def test_cli_trace_emits_valid_chrome_trace(tmp_path, capsys):
    # table1 traces the cheapest scenario (4D-2C kmeans); golden-schema
    # check on the emitted Chrome trace document
    assert main(["trace", "table1", "--size", "tiny", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "spans by category" in out

    chrome_path = tmp_path / "table1-tiny.trace.json"
    jsonl_path = tmp_path / "table1-tiny.trace.jsonl"
    assert chrome_path.exists() and jsonl_path.exists()

    doc = json.loads(chrome_path.read_text())
    assert set(doc) == {"displayTimeUnit", "otherData", "traceEvents"}
    assert doc["displayTimeUnit"] == "ns"
    events = doc["traceEvents"]
    assert events
    for event in events:
        assert event["ph"] in ("M", "X", "i", "C")
        assert isinstance(event["pid"], int)
        if event["ph"] == "X":
            assert event["dur"] >= 0
    # complete spans from at least the dram + nmp layers on this tiny run
    cats = {event.get("cat") for event in events if event["ph"] == "X"}
    assert {"dram", "nmp"} <= cats

    meta = json.loads(jsonl_path.read_text().splitlines()[0])
    assert meta["type"] == "meta"
    assert meta["spans"] == doc["otherData"]["spans"]


# -- supervision flags and the dead-letter / interrupt paths -------------------------


def test_supervision_flags_are_validated(capsys):
    with pytest.raises(SystemExit):
        main(["fig11", "--retries", "-1"])
    # zero, and values the alarm cannot arm: run, each would fail (and
    # quarantine) every spec
    for timeout in ("0", "nan", "inf", "1e10"):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig16", "--size", "tiny", "--no-cache", "--spec-timeout", timeout])
        assert excinfo.value.code == 2
        assert "--spec-timeout" in capsys.readouterr().err


def test_supervision_flags_configure_the_runner(tmp_path, capsys, monkeypatch):
    from repro.experiments import cli as cli_module
    from repro.experiments import runner as sweep_runner

    seen = {}

    def probe(size):
        runner = sweep_runner.get_runner()
        seen["retries"] = runner.retries
        seen["spec_timeout"] = runner.spec_timeout

    monkeypatch.setitem(cli_module._SIZED, "fig11", probe)
    assert main(
        [
            "fig11",
            "--cache-dir",
            str(tmp_path),
            "--retries",
            "3",
            "--spec-timeout",
            "120",
        ]
    ) == 0
    assert seen == {"retries": 3, "spec_timeout": 120.0}


def test_quarantined_sweep_reports_dead_letters_and_fails(tmp_path, capsys, monkeypatch):
    from repro.errors import SweepExecutionError
    from repro.experiments import cli as cli_module
    from repro.experiments import runner as sweep_runner
    from repro.experiments.runner import DeadLetter, RunSpec

    def quarantined(size):
        letter = DeadLetter(
            spec=RunSpec(config="4D-2C", workload="pagerank", size=size),
            key="f" * 64,
            attempts=2,
            error="RuntimeError: injected crash",
        )
        sweep_runner.get_runner().dead_letters.append(letter)
        raise SweepExecutionError("1 spec(s) quarantined", dead_letters=[letter])

    monkeypatch.setitem(cli_module._SIZED, "fig11", quarantined)
    assert main(["fig11", "--size", "tiny", "--cache-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "[dead-letter] 1 spec(s) quarantined:" in out
    assert "injected crash" in out
    assert "attempts=2" in out
    assert "[cache]" in out  # the cache line still prints


def test_a_quarantine_lasts_one_run(tmp_path, capsys, monkeypatch):
    """A spec quarantined by one run is simulated by the next: the cache
    directory holds only results, never a record of past failures."""
    from repro.experiments import cli as cli_module
    from repro.experiments import runner as sweep_runner
    from tests.test_runner_supervision import crashy_execute, grid, ok_execute

    specs = grid(1, bad_at=0)
    executes = iter([crashy_execute, ok_execute])

    def one_spec(size):
        runner = sweep_runner.get_runner()
        runner.execute = next(executes)
        sweep_runner.run_specs(specs)

    monkeypatch.setitem(cli_module._SIZED, "fig11", one_spec)
    args = ["fig11", "--size", "tiny", "--cache-dir", str(tmp_path)]
    assert main(args) == 1
    out = capsys.readouterr().out
    assert "[dead-letter] 1 spec(s) quarantined:" in out
    assert "attempts=2" in out
    assert not any(tmp_path.iterdir())

    assert main(args) == 0
    out = capsys.readouterr().out
    assert "[dead-letter]" not in out
    assert cache_stats(out) == (0, 1)
    assert [p.name for p in tmp_path.iterdir()] == [f"{specs[0].cache_key()}.json"]


def test_keyboard_interrupt_prints_partial_cache_line(tmp_path, capsys, monkeypatch):
    from repro.experiments import cli as cli_module

    def interrupted(size):
        raise KeyboardInterrupt()

    monkeypatch.setitem(cli_module._SIZED, "fig11", interrupted)
    assert main(["fig11", "--size", "tiny", "--cache-dir", str(tmp_path)]) == 130
    out = capsys.readouterr().out
    assert "interrupted" in out
    assert "[cache]" in out  # partial stats flushed for the resume message


def test_keyboard_interrupt_exit_130_keeps_checkpointed_results(
    tmp_path, capsys, monkeypatch
):
    """The full contract: Ctrl-C mid-sweep exits 130 *and* every grid
    point that finished before the interrupt survives in the cache."""
    from repro.experiments import cli as cli_module
    from repro.experiments import runner as sweep_runner
    from repro.results_cache import ResultsCache
    from tests.test_runner_supervision import grid, interrupt_execute

    specs = grid(4, bad_at=2)

    def interrupted_sweep(size):
        runner = sweep_runner.get_runner()
        runner.execute = interrupt_execute
        runner.run(specs)

    monkeypatch.setitem(cli_module._SIZED, "fig11", interrupted_sweep)
    assert main(["fig11", "--size", "tiny", "--cache-dir", str(tmp_path)]) == 130
    out = capsys.readouterr().out
    assert "interrupted" in out and "[cache]" in out

    cache = ResultsCache(tmp_path)
    assert cache.get(specs[0].cache_key()) is not None
    assert cache.get(specs[1].cache_key()) is not None
    assert cache.get(specs[2].cache_key()) is None  # the interrupted spec


# -- workload suite (dlrm / apsp) ----------------------------------------------------


def test_cli_runs_dlrm_serving_tiny(tmp_path, capsys):
    args = ["dlrm", "--size", "tiny", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "DLRM embedding serving" in out
    assert "p99 us" in out
    hits, misses = cache_stats(out)
    assert hits == 0 and misses > 0

    # warm replay: the whole sweep is served from cache, table unchanged
    assert main(args) == 0
    warm_out = capsys.readouterr().out
    _, warm_misses = cache_stats(warm_out)
    assert warm_misses == 0
    strip = lambda text: [l for l in text.splitlines() if "[cache]" not in l]
    assert strip(warm_out) == strip(out)


def test_cli_runs_apsp_tiny(capsys):
    assert main(["apsp", "--size", "tiny", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "Blocked Floyd-Warshall" in out
    assert "exact" in out  # the zero-diff column made it to the table


def test_workload_suite_experiments_are_traceable_and_submittable():
    for name in ("dlrm", "apsp"):
        assert name in experiment_names()
        assert name in traceable_names()


def test_serve_and_grid_commands_validate_endpoints(tmp_path, capsys, monkeypatch):
    """There is no socket service and no work broker: `serve`, `submit`
    and `work` are not commands, and the broker's flags and the persisted
    quarantine's `--retry-dead-letter` are usage errors rather than
    options a local run would silently ignore."""
    monkeypatch.chdir(tmp_path)
    for command in ("serve", "submit", "work"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--broker", "farm"])
        assert exc.value.code == 2, command
        err = capsys.readouterr().err
        assert "invalid choice" in err and command in err
    for flags in (
        ["--broker", "farm"],
        ["--broker", "tcp://127.0.0.1:7741"],
        ["--lease-ttl", "5"],
        ["--no-wait"],
        ["--forever"],
        ["--retry-dead-letter"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(["mapping", "--size", "tiny", *flags])
        assert exc.value.code == 2, flags
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # no farm/ or tcp:/ directory
