"""Command-line entry point: regenerate any paper table or figure.

Installed as ``dimmlink-repro``::

    dimmlink-repro fig10 --size small
    dimmlink-repro all   --size tiny --jobs 4
    dimmlink-repro fig16 --size tiny --cache-dir /tmp/dl-cache
    dimmlink-repro trace fig10 --size tiny --out traces/

Simulation grids execute through the sweep runner: ``--jobs N`` fans
cache misses out over N worker processes, and finished results persist
under ``--cache-dir`` (default ``.dimmlink-cache``) so re-runs — and
grid points shared between figures — skip simulation entirely.  The
``cache.hits``/``cache.misses`` line printed after each command reports
how much work the cache absorbed; ``--no-cache`` forces every point to
re-simulate.

Sweeps are *supervised*: every finished grid point is checkpointed to
the cache the moment it completes, so an interrupted run (Ctrl-C, OOM
kill, crash) loses no finished work — rerun the same command and it
resumes from the cache.  Failing points are retried (``--retries``,
capped exponential backoff) and quarantined into a dead-letter report
instead of aborting the sweep; ``--spec-timeout`` bounds each point's
wall-clock time and reports *where* a hung simulation was stuck.
Quarantined specs persist to ``dead_letters.json`` in the cache
directory, so reruns skip known-bad points without burning their retry
budget again; ``--retry-dead-letter`` re-attempts them and clears the
record on success.

Sweeps also run *distributed* over the crash-safe work fabric
(:mod:`repro.fabric`): point any number of worker processes — on one
host or many hosts sharing a filesystem — at one broker directory::

    dimmlink-repro work   --broker /shared/farm &          # on each host
    dimmlink-repro submit fig16 --broker /shared/farm --size small

``submit`` enqueues the experiment's spec grid (deduplicated against the
shared cache, in-flight leases, and known-dead quarantine), streams
done/leased/pending/dead progress until the grid drains, and exits with
the supervisor contract: 0 on success, 1 if any spec was quarantined,
130 on Ctrl-C.  ``work`` pulls specs until the queue drains (or forever
with ``--forever``); a worker killed mid-spec is harmless — its lease
expires and the spec is retried elsewhere.  A worker *drained* with
SIGTERM/SIGINT is better than harmless: it hands its in-flight claim
straight back to the queue (attempt uncharged) so another worker picks
it up immediately instead of waiting out the lease TTL.  Passing
``--broker`` to a regular experiment command runs its grid on the
fabric too, with the invoking process joining as one more worker.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Dict

from repro.errors import SweepExecutionError

from repro.experiments import (
    apsp_sweep,
    disaggregated_memory,
    dlrm_serving,
    fig01_idc_bandwidth,
    fig10_p2p,
    fig11_breakdown,
    fig12_broadcast,
    fig13_energy,
    fig14_sync,
    fig15_polling,
    fig16_bandwidth,
    fig17_topology,
    headline,
    mapping_ablation,
    placement_ablation,
    resilience,
    table1_bandwidth_model,
    table2_serdes,
    trace_run,
)
from repro.experiments import runner as sweep_runner

#: default on-disk results cache location (relative to the working dir).
DEFAULT_CACHE_DIR = ".dimmlink-cache"

#: experiment name -> main(size) callable (or main() for size-less ones).
_SIZED: Dict[str, Callable[[str], None]] = {
    "apsp": apsp_sweep.main,
    "dlrm": dlrm_serving.main,
    "fig10": fig10_p2p.main,
    "fig11": fig11_breakdown.main,
    "fig12": fig12_broadcast.main,
    "fig13": fig13_energy.main,
    "fig15": fig15_polling.main,
    "fig16": fig16_bandwidth.main,
    "fig17": fig17_topology.main,
    "headline": headline.main,
    "mapping": mapping_ablation.main,
    "placement": placement_ablation.main,
    "resilience": resilience.main,
}

_UNSIZED: Dict[str, Callable[[], None]] = {
    "disaggregated": disaggregated_memory.main,
    "fig1": fig01_idc_bandwidth.main,
    "fig14": fig14_sync.main,
    "table1": table1_bandwidth_model.main,
    "table2": table2_serdes.main,
}

#: experiments whose grid can be enqueued on the fabric: declarative
#: ``specs(size)`` producers (the ``submit`` command's dispatch table).
_GRIDDED = {
    name: module
    for name, module in {
        "apsp": apsp_sweep,
        "dlrm": dlrm_serving,
        "fig10": fig10_p2p,
        "fig11": fig11_breakdown,
        "fig12": fig12_broadcast,
        "fig13": fig13_energy,
        "fig15": fig15_polling,
        "fig16": fig16_bandwidth,
        "fig17": fig17_topology,
        "mapping": mapping_ablation,
        "placement": placement_ablation,
        "resilience": resilience,
    }.items()
    if hasattr(module, "specs")
}


def experiment_names() -> list:
    """All runnable experiment ids."""
    return sorted(list(_SIZED) + list(_UNSIZED)) + ["all"]


def traceable_names() -> list:
    """Experiment ids accepted by the ``trace`` command."""
    return [name for name in experiment_names() if name != "all"]


def submittable_names() -> list:
    """Experiment ids accepted by the ``submit`` command."""
    return sorted(_GRIDDED)


def main(argv=None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="dimmlink-repro",
        description="Regenerate DIMM-Link (HPCA'23) tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=experiment_names() + ["trace", "submit", "work"],
        help="experiment id, 'all', 'trace' (record one traced run), "
        "'submit' (enqueue a grid on a work broker), or 'work' "
        "(drain specs from a work broker)",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="experiment id to trace/submit (with the 'trace'/'submit' commands)",
    )
    parser.add_argument(
        "--size",
        default="small",
        choices=("tiny", "small", "large"),
        help="workload size preset (default: small)",
    )
    parser.add_argument(
        "--out",
        default="traces",
        help="output directory for trace files (trace command only)",
    )
    parser.add_argument(
        "--window-ns",
        type=float,
        default=trace_run.DEFAULT_WINDOW_NS,
        help="time-series sampler window in simulated ns (trace command only)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for simulation grids (default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"persistent results-cache directory (default: {DEFAULT_CACHE_DIR}, "
        "or <broker>/cache when --broker is given)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the results cache: re-simulate every grid point",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="extra attempts per failing grid point before it is "
        "quarantined into the dead-letter report (default: 1)",
    )
    parser.add_argument(
        "--spec-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-grid-point wall-clock budget; a hung simulation is "
        "cut off and reported with its blocked processes (default: none)",
    )
    parser.add_argument(
        "--retry-dead-letter",
        action="store_true",
        help="re-attempt grid points the persisted dead-letter list marks "
        "as known-bad (default: skip them without re-simulating)",
    )
    parser.add_argument(
        "--broker",
        default=None,
        metavar="DIR",
        help="work-broker directory of the distributed fabric, shared by "
        "every worker (required by 'submit'/'work'; optional for "
        "experiments: their grids then drain through the shared queue "
        "instead of a local pool)",
    )
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="worker lease TTL when *creating* a broker (a crashed "
        "worker's spec is reclaimed this long after its last heartbeat; "
        "an existing broker's persisted policy wins)",
    )
    parser.add_argument(
        "--no-wait",
        action="store_true",
        help="submit only: enqueue the grid and exit without waiting "
        "for workers to drain it",
    )
    parser.add_argument(
        "--forever",
        action="store_true",
        help="work only: keep polling for new specs after the queue "
        "drains (default: exit once no work is left)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.spec_timeout is not None and args.spec_timeout <= 0:
        parser.error("--spec-timeout must be positive")
    if args.lease_ttl is not None and args.lease_ttl <= 0:
        parser.error("--lease-ttl must be positive")
    if args.broker is not None and args.no_cache:
        parser.error("--broker needs the results cache; drop --no-cache")
    if args.broker is not None and args.broker.startswith("tcp://"):
        parser.error(
            "--broker takes a directory that all workers share, "
            f"not a network endpoint ({args.broker})"
        )

    if args.experiment in ("submit", "work"):
        if args.broker is None:
            parser.error(f"'{args.experiment}' requires --broker")
        try:
            if args.experiment == "submit":
                return _cmd_submit(args, parser)
            return _cmd_work(args)
        except KeyboardInterrupt:
            print("\ninterrupted — journaled state is durable; submitted "
                  "work continues wherever workers are running")
            return 130

    if args.experiment == "trace":
        if args.target is None or args.target not in traceable_names():
            parser.error(
                f"trace needs an experiment id from: {', '.join(traceable_names())}"
            )
        trace_run.main(
            args.target, size=args.size, out_dir=args.out, window_ns=args.window_ns
        )
        return 0
    if args.target is not None:
        parser.error(
            "a second positional is only valid with the 'trace' and "
            "'submit' commands"
        )

    previous_runner = sweep_runner.get_runner()
    grid_runner = sweep_runner.configure(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else _cache_dir_for(args),
        use_cache=not args.no_cache,
        retries=args.retries,
        spec_timeout=args.spec_timeout,
        retry_dead_letter=args.retry_dead_letter,
        broker=None if args.broker is None else _open_broker(args),
    )
    interrupted = False
    failed_experiments = 0
    try:
        if args.experiment == "all":
            for name, entry in sorted(_UNSIZED.items()):
                print(f"\n=== {name} ===")
                failed_experiments += _run_entry(name, entry)
            for name, entry in sorted(_SIZED.items()):
                print(f"\n=== {name} (size={args.size}) ===")
                failed_experiments += _run_entry(name, entry, args.size)
        elif args.experiment in _UNSIZED:
            failed_experiments += _run_entry(
                args.experiment, _UNSIZED[args.experiment]
            )
        else:
            failed_experiments += _run_entry(
                args.experiment, _SIZED[args.experiment], args.size
            )
    except KeyboardInterrupt:
        # finished grid points were checkpointed as they completed; the
        # partial [cache] line below shows how much a rerun will reuse
        interrupted = True
        print("\ninterrupted — completed results are checkpointed; "
              "rerun the same command to resume from the cache")
    finally:
        sweep_runner.set_runner(previous_runner)
    _print_cache_stats(grid_runner)
    _print_dead_letters(grid_runner)
    if interrupted:
        return 130
    return 1 if failed_experiments else 0


def _cache_dir_for(args) -> str:
    """Explicit ``--cache-dir`` wins; a broker defaults to its shared
    ``cache/`` subdirectory so every farm process dedups together."""
    if args.cache_dir is not None:
        return args.cache_dir
    if args.broker is not None:
        return str(Path(args.broker) / "cache")
    return DEFAULT_CACHE_DIR


def _open_broker(args):
    """Build the WorkBroker every ``--broker`` command shares."""
    from repro.fabric.broker import BrokerConfig, WorkBroker

    # only consulted when this call *creates* the broker; an existing
    # broker.json (the farm-wide policy) always wins
    config = BrokerConfig(
        retries=args.retries,
        **({"lease_ttl_s": args.lease_ttl} if args.lease_ttl else {}),
    )
    return WorkBroker(args.broker, config=config, cache_dir=args.cache_dir)


#: seconds between progress polls while ``submit`` waits for the farm.
SUBMIT_POLL_S = 0.5


def _cmd_submit(args, parser) -> int:
    """Enqueue one experiment's grid and stream progress until drained."""
    if args.target not in _GRIDDED:
        parser.error(
            f"submit needs an experiment id from: {', '.join(submittable_names())}"
        )
    broker = _open_broker(args)
    grid = _GRIDDED[args.target].specs(args.size)
    report = broker.submit(grid, retry_dead=args.retry_dead_letter)
    print(f"[submit] {args.target} (size={args.size}) -> {broker.root}")
    print(f"[submit] {report.summary()}")
    if args.no_wait:
        return 1 if report.dead else 0
    if report.enqueued or report.inflight:
        print("[submit] waiting for workers "
              f"(run: dimmlink-repro work --broker {broker.root}) ...")
    last_line = ""
    while True:
        tally = broker.counts(report.keys)
        line = (
            f"[submit] done={tally['done']} leased={tally['leased']} "
            f"pending={tally['pending']} dead={tally['dead']} "
            f"/ {tally['total']}"
        )
        if line != last_line:
            print(line)
            last_line = line
        if broker.drained(report.keys):
            break
        time.sleep(SUBMIT_POLL_S)
    dead = broker.counts(report.keys)["dead"]
    if dead:
        print(f"[submit] {dead} spec(s) quarantined — see "
              f"{broker.dead_letters.path}")
        return 1
    print("[submit] grid complete; results are in the shared cache "
          f"({broker.cache.cache_dir})")
    return 0


class _DrainRequested(BaseException):
    """SIGTERM/SIGINT cutting the in-flight spec short (BaseException so
    no ``except Exception`` on the execution path can swallow it)."""


def _cmd_work(args) -> int:
    """Drain specs from the broker until the queue is empty.

    SIGTERM/SIGINT drain *gracefully*: the in-flight claim is handed
    straight back to the queue (attempt uncharged, no backoff stamp) so
    another worker picks it up immediately instead of waiting out this
    worker's lease TTL.  The exit status follows the signal the handler
    recorded, not the exception it raised: a signal that lands while the
    GC finalises a suspended simulation generator has its exception
    dropped ("Exception ignored in ..."), and the worker then returns
    normally after the current spec.
    """
    import signal as _signal

    from repro.fabric.worker import Worker

    broker = _open_broker(args)
    worker = Worker(broker, spec_timeout=args.spec_timeout)
    mode = "forever" if args.forever else "until drained"
    print(f"[work] {worker.worker_id} pulling from {broker.root} ({mode})")

    signals = []

    def _drain_handler(signum, frame):
        signals.append(signum)
        worker.stop()
        raise _DrainRequested(f"drain requested by signal {signum}")

    previous = {
        signum: _signal.signal(signum, _drain_handler)
        for signum in (_signal.SIGTERM, _signal.SIGINT)
    }
    try:
        worker.run(drain=not args.forever)
    except _DrainRequested:
        pass
    finally:
        for signum, handler in previous.items():
            _signal.signal(signum, handler)
    if signals:
        relinquished = worker.relinquish_current(
            reason=f"worker drained by signal {signals[0]}"
        )
        print(
            f"\n[work] drained by signal {signals[0]}: "
            + ("in-flight claim handed back to the queue"
               if relinquished else "no claim was in flight")
        )
    print(
        f"[work] done: completed={worker.completed} failed={worker.failed} "
        f"cache_served={worker.cache_served} leases_lost={worker.leases_lost}"
    )
    if not signals:
        return 0
    return 130 if signals[0] == _signal.SIGINT else 143


def _run_entry(name: str, entry, *entry_args) -> int:
    """Run one experiment; a quarantined sweep reports but doesn't abort."""
    try:
        entry(*entry_args)
    except SweepExecutionError as exc:
        print(f"[dead-letter] {name}: {exc}")
        return 1
    return 0


def _print_cache_stats(grid_runner: "sweep_runner.SweepRunner") -> None:
    """One machine-parseable line: how much work the cache absorbed."""
    stats = grid_runner.stats
    hits, misses = stats["cache.hits"], stats["cache.misses"]
    total = hits + misses
    rate = f" ({hits / total:.0%} hit rate)" if total else ""
    skipped = (
        f" dead_letter.skipped={grid_runner.skipped_dead}"
        if grid_runner.skipped_dead
        else ""
    )
    print(f"\n[cache] cache.hits={hits} cache.misses={misses}{rate}{skipped}")


def _print_dead_letters(grid_runner: "sweep_runner.SweepRunner") -> None:
    """Quarantine report: which specs failed, how often, and where."""
    letters = grid_runner.dead_letters
    if not letters:
        return
    print(f"[dead-letter] {len(letters)} spec(s) quarantined:")
    for letter in letters:
        print(f"  - {letter.summary()}")


if __name__ == "__main__":
    sys.exit(main())
