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
how much work the cache absorbed; ``--no-cache`` (or an empty
``--cache-dir``) forces every point to re-simulate.

Sweeps are *supervised*: every finished grid point is checkpointed to
the cache the moment it completes, so an interrupted run (Ctrl-C, OOM
kill, crash) loses no finished work — rerun the same command and it
resumes from the cache.  Failing points are retried (``--retries``,
capped exponential backoff) and quarantined into a dead-letter report
instead of aborting the sweep; ``--spec-timeout`` arms one alarm per
attempt, in the process that runs the point, and reports *where* a hung
simulation was stuck.  A quarantine lasts one run: the cache directory
holds only results, so a rerun simulates every point the cache lacks,
quarantined ones included.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict

from repro.errors import ConfigError, SweepExecutionError

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

def experiment_names() -> list:
    """All runnable experiment ids."""
    return sorted(list(_SIZED) + list(_UNSIZED)) + ["all"]


def traceable_names() -> list:
    """Experiment ids accepted by the ``trace`` command."""
    return [name for name in experiment_names() if name != "all"]


def main(argv=None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="dimmlink-repro",
        description="Regenerate DIMM-Link (HPCA'23) tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=experiment_names() + ["trace"],
        help="experiment id, 'all', or 'trace' (record one traced run)",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="experiment id to trace (with the 'trace' command)",
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
        default=DEFAULT_CACHE_DIR,
        help=f"persistent results-cache directory (default: {DEFAULT_CACHE_DIR})",
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
        "cut off and reported with its blocked threads (default: none)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    try:
        sweep_runner.check_spec_timeout(args.spec_timeout)
    except ConfigError as exc:
        parser.error(f"--spec-timeout: {exc}")

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
        parser.error("a second positional is only valid with the 'trace' command")

    previous_runner = sweep_runner.get_runner()
    grid_runner = sweep_runner.SweepRunner(
        jobs=args.jobs,
        cache=None if args.no_cache else args.cache_dir or None,
        retries=args.retries,
        spec_timeout=args.spec_timeout,
    )
    sweep_runner.set_runner(grid_runner)
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
    print(f"\n[cache] cache.hits={hits} cache.misses={misses}{rate}")


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
