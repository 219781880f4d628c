"""Fig. 14 — synchronization sensitivity.

Panel (a): a microbenchmark computing for N instructions between global
barriers, swept over N, on MCN, AIM, DIMM-Link-Central, and
DIMM-Link-Hier.  The hierarchical scheme's advantage grows as the
interval narrows (paper: 5.3x over MCN and 2.2x over AIM at 500
instructions).  Panel (b): the TS.Pow end-to-end workload (paper:
DL-Hier 1.46-1.74x over MCN).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.experiments.runner import RunSpec, SweepRunner, run_specs

#: (mechanism, sync mode) pairs in the figure.
SYSTEMS = (
    ("mcn", "central", "MCN"),
    ("aim", "central", "AIM"),
    ("dimm_link", "central", "DL-Central"),
    ("dimm_link", "hierarchical", "DL-Hier"),
)
LABELS = tuple(label for _m, _s, label in SYSTEMS)

DEFAULT_INTERVALS = (500, 1000, 2000, 5000)


def specs(
    size: str = "small",
    intervals: Sequence[int] = DEFAULT_INTERVALS,
    barriers: int = 10,
    config_name: str = "16D-8C",
) -> List[RunSpec]:
    """Panel (a)'s interval x system grid, then panel (b)'s TS.Pow runs."""
    points = [
        ("sync_interval", f"barriers={barriers},interval_instructions={interval}")
        for interval in intervals
    ] + [("ts_pow", "")]
    return [
        RunSpec(
            config=config_name,
            workload=workload,
            size=size,
            mechanism=mechanism,
            sync_mode=mode,
            params=params,
        )
        for workload, params in points
        for mechanism, mode, _label in SYSTEMS
    ]


def run(
    size: str = "small",
    intervals: Sequence[int] = DEFAULT_INTERVALS,
    barriers: int = 10,
    config_name: str = "16D-8C",
    runner: Optional[SweepRunner] = None,
) -> Tuple[List[Dict[str, float]], Dict[str, float]]:
    """Both panels from one spec batch, times in us: (a) one row per
    interval with per-system times, (b) TS.Pow's per-system times."""
    results = iter(run_specs(specs(size, intervals, barriers, config_name), runner))
    rows = [
        {"interval": interval, **{label: next(results).time_us for label in LABELS}}
        for interval in intervals
    ]
    return rows, {label: next(results).time_us for label in LABELS}


def speedups_at(rows: List[Dict[str, float]], interval: int) -> Dict[str, float]:
    """DL-Hier's speedup over each baseline at one interval."""
    row = next(r for r in rows if r["interval"] == interval)
    return {
        label: row[label] / row["DL-Hier"] for label in LABELS if label != "DL-Hier"
    }


def main() -> None:
    """Print both Fig. 14 panels."""
    rows, tspow = run()
    print("Fig. 14(a): time (us) vs synchronization interval (instructions)")
    print(
        format_table(
            ["interval", *LABELS],
            [[r["interval"]] + [r[label] for label in LABELS] for r in rows],
            precision=1,
        )
    )
    fastest = speedups_at(rows, rows[0]["interval"])
    print(f"\nDL-Hier speedup at {rows[0]['interval']}-instr interval "
          f"(paper: 5.3x over MCN, 2.2x over AIM): {fastest}")
    print("\nFig. 14(b): TS.Pow end-to-end (us):", tspow)
    print(f"DL-Hier over MCN: {tspow['MCN'] / tspow['DL-Hier']:.2f}x "
          f"(paper: 1.46-1.74x)")


if __name__ == "__main__":
    main()
