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


def test_cli_no_cache_reports_misses_and_writes_nothing(tmp_path, capsys):
    assert main(["fig17", "--size", "tiny", "--no-cache"]) == 0
    hits, misses = cache_stats(capsys.readouterr().out)
    assert hits == 0 and misses > 0


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


def test_supervision_flags_are_validated():
    with pytest.raises(SystemExit):
        main(["fig11", "--retries", "-1"])
    with pytest.raises(SystemExit):
        main(["fig11", "--spec-timeout", "0"])


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


# -- fabric commands: submit / work --------------------------------------------------


def _tiny_gridded(monkeypatch, count=3):
    """Point the ``mapping`` submit entry at a tiny synthetic grid."""
    import types

    from repro.experiments import cli as cli_module
    from tests.test_runner_supervision import grid

    specs = grid(count)
    monkeypatch.setitem(
        cli_module._GRIDDED,
        "mapping",
        types.SimpleNamespace(specs=lambda size: specs),
    )
    return specs


def test_fabric_commands_validate_their_arguments(tmp_path):
    with pytest.raises(SystemExit):
        main(["submit", "mapping"])  # no --broker
    with pytest.raises(SystemExit):
        main(["work"])  # no --broker
    with pytest.raises(SystemExit):
        main(["submit", "table2", "--broker", str(tmp_path)])  # not gridded
    with pytest.raises(SystemExit):
        main(["submit", "mapping", "--broker", str(tmp_path), "--no-cache"])
    with pytest.raises(SystemExit):
        main(["work", "--broker", str(tmp_path), "--lease-ttl", "0"])


def test_submit_then_work_then_resubmit_round_trip(tmp_path, capsys, monkeypatch):
    from tests.test_runner_supervision import fake_result

    specs = _tiny_gridded(monkeypatch)
    broker_dir = str(tmp_path / "farm")

    args = ["submit", "mapping", "--broker", broker_dir, "--size", "tiny"]
    assert main(args + ["--no-wait"]) == 0
    out = capsys.readouterr().out
    assert f"{len(specs)} spec(s): {len(specs)} enqueued" in out

    # monkeypatched grids are synthetic, so drain with a synthetic worker
    # (the real `work` command path is covered by examples/fabric_smoke.py)
    from repro.fabric.broker import WorkBroker
    from repro.fabric.worker import Worker

    worker = Worker(WorkBroker(broker_dir), execute=fake_result)
    assert worker.run() == len(specs)

    # resubmitting a finished grid streams one progress line and exits 0
    assert main(args) == 0
    out = capsys.readouterr().out
    assert f"{len(specs)} already done" in out
    assert f"done={len(specs)}" in out
    assert "grid complete" in out


def test_work_command_drains_real_specs(tmp_path, capsys):
    """`work` against a broker holding one real tiny spec executes it
    through the standard ``execute_spec`` path and reports its tally."""
    from repro.experiments.runner import RunSpec
    from repro.fabric.broker import WorkBroker

    broker_dir = str(tmp_path / "farm")
    spec = RunSpec(config="4D-2C", workload="kmeans", size="tiny")
    broker = WorkBroker(broker_dir)
    broker.submit([spec])

    assert main(["work", "--broker", broker_dir]) == 0
    out = capsys.readouterr().out
    assert "completed=1" in out
    assert broker.cache.get(spec.cache_key()) is not None


def test_submit_no_wait_reports_dead_specs_with_exit_one(
    tmp_path, capsys, monkeypatch
):
    from repro.fabric.broker import BrokerConfig, WorkBroker

    specs = _tiny_gridded(monkeypatch)
    broker_dir = tmp_path / "farm"
    broker = WorkBroker(broker_dir, config=BrokerConfig(retries=0))
    broker.submit(specs)
    record = broker.claim("w1")
    broker.fail(record.key, "w1", "RuntimeError: injected crash")

    args = ["submit", "mapping", "--broker", str(broker_dir), "--size", "tiny"]
    assert main(args + ["--no-wait"]) == 1
    assert "1 dead" in capsys.readouterr().out


def test_broker_flag_configures_fabric_mode(tmp_path, monkeypatch):
    """An experiment run with ``--broker`` gets a fabric-mode runner
    sharing the broker's cache directory."""
    from repro.experiments import cli as cli_module
    from repro.experiments import runner as sweep_runner

    seen = {}

    def probe(size):
        runner = sweep_runner.get_runner()
        seen["broker_root"] = runner.broker.root
        seen["cache_dir"] = runner.cache.cache_dir

    monkeypatch.setitem(cli_module._SIZED, "fig11", probe)
    broker_dir = tmp_path / "farm"
    assert main(["fig11", "--size", "tiny", "--broker", str(broker_dir)]) == 0
    assert seen["broker_root"] == broker_dir
    assert seen["cache_dir"] == broker_dir / "cache"


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
    from repro.experiments.cli import submittable_names

    for name in ("dlrm", "apsp"):
        assert name in experiment_names()
        assert name in traceable_names()
        assert name in submittable_names()


def test_submit_apsp_grid_over_broker(tmp_path, capsys):
    """The apsp grid round-trips through the file broker: submit
    enqueues every spec (params included), a worker drains them, and a
    resubmit reports the grid complete."""
    from repro.fabric.broker import WorkBroker
    from repro.fabric.worker import Worker
    from tests.test_results_cache import fake_result

    broker_dir = str(tmp_path / "farm")
    args = ["submit", "apsp", "--broker", broker_dir, "--size", "tiny"]
    assert main(args + ["--no-wait"]) == 0
    out = capsys.readouterr().out
    assert "enqueued" in out

    worker = Worker(WorkBroker(broker_dir), execute=fake_result)
    drained = worker.run()
    assert drained > 0

    assert main(args) == 0
    out = capsys.readouterr().out
    assert "grid complete" in out


def test_work_sigterm_drains_gracefully_and_releases_claim(tmp_path):
    """Satellite: SIGTERM on `work` exits 143 after handing any
    in-flight claim straight back to the queue — no lease left behind,
    nothing quarantined, the remaining specs immediately claimable."""
    import os
    import signal
    import subprocess
    import sys
    import time
    from pathlib import Path

    from repro.experiments.runner import RunSpec
    from repro.fabric.broker import WorkBroker

    repo = Path(__file__).resolve().parent.parent
    broker_dir = str(tmp_path / "farm")
    specs = [
        RunSpec(config="4D-2C", workload="pagerank", size="tiny", seed=seed)
        for seed in range(80)
    ]
    broker = WorkBroker(broker_dir)
    broker.submit(specs)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.cli", "work",
         "--broker", broker_dir],
        cwd=repo, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            counts = broker.counts()
            if counts["done"] >= 1 or counts["leased"] >= 1:
                break
            time.sleep(0.01)
        else:
            raise AssertionError("worker never started draining")
        proc.send_signal(signal.SIGTERM)
        output = proc.communicate(timeout=60)[0]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    assert proc.returncode == 143, output
    assert "drained by signal 15" in output
    # the graceful contract: zero held leases, zero quarantined specs,
    # and any interrupted claim is pending again with its attempt
    # uncharged — claimable right now, not after a TTL
    assert broker.leases.live_count() == 0
    counts = broker.counts()
    assert counts["leased"] == 0 and counts["dead"] == 0
    for record in broker.records().values():
        assert record.state in ("pending", "done")
        if record.state == "pending":
            assert record.attempts == 0
    if counts["pending"]:
        assert broker.claim("successor") is not None  # no TTL wait


def test_work_drains_by_signal_even_when_the_exception_is_swallowed(
    tmp_path, capsys, monkeypatch
):
    """The exit status follows the signal, not the handler's exception:
    a drain raised while the GC finalises a suspended generator is
    dropped, and the worker then returns normally after its spec."""
    import signal

    from repro.fabric.worker import Worker

    def swallowing_run(self, drain=True):
        try:
            signal.raise_signal(signal.SIGTERM)
        except BaseException:
            pass
        return 0

    monkeypatch.setattr(Worker, "run", swallowing_run)
    assert main(["work", "--broker", str(tmp_path / "farm")]) == 143
    assert "drained by signal 15" in capsys.readouterr().out


def test_serve_and_grid_commands_validate_endpoints(tmp_path, capsys, monkeypatch):
    """There is no socket service: `serve` is not a command, and a
    tcp:// --broker is a usage error rather than a local directory that
    no worker would ever drain."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--broker", "farm"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "serve" in err
    for argv in (
        ["work"],
        ["submit", "mapping", "--size", "tiny"],
        ["mapping", "--size", "tiny"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--broker", "tcp://127.0.0.1:7741"])
        assert exc.value.code == 2, argv
        assert "directory that all workers share" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # no farm/ or tcp:/ directory
