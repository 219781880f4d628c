"""CLI entry point: ``python -m repro.perf``.

Runs the hot-path microbenchmarks, prints a summary table, and writes
``BENCH_hotpath.json``.  ``--check`` additionally asserts the
machine-independent speedup floor that CI's perf-smoke job relies on.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

from repro.perf.benches import BENCHES, run_benches
from repro.perf.calibrate import calibrate

#: machine-independent floors for --check: the cached route lookups must
#: beat their in-process legacy computation by at least this ratio.
#: Deliberately far below the typical 5-7x so CI noise cannot trip it.
CHECK_FLOORS = {"route_lookup": 1.3}

SCHEMA = "repro.perf/1"


def build_report(quick: bool, only: List[str]) -> Dict[str, object]:
    """Run calibration + benchmarks and assemble the JSON report."""
    calibration = calibrate()
    benches = run_benches(quick=quick, only=only or None)
    cal_ops = calibration["ops_per_sec"]
    for bench in benches:
        bench["normalized"] = bench["ops_per_sec"] / cal_ops if cal_ops else 0.0
    speedups = {
        bench["name"]: bench["speedup"] for bench in benches if "speedup" in bench
    }
    return {
        "schema": SCHEMA,
        "quick": quick,
        "calibration": calibration,
        "benches": benches,
        "speedups": speedups,
    }


def check_floors(report: Dict[str, object]) -> List[str]:
    """Return failure messages for any speedup floor not met."""
    failures = []
    speedups = report["speedups"]
    for name, floor in CHECK_FLOORS.items():
        got = speedups.get(name)
        if got is None:
            failures.append(f"{name}: no speedup measured (bench not run?)")
        elif got < floor:
            failures.append(f"{name}: speedup {got:.2f}x below floor {floor}x")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf", description="hot-path microbenchmarks"
    )
    parser.add_argument(
        "--quick", action="store_true", help="small sizes (CI smoke / laptops)"
    )
    parser.add_argument(
        "--out", default="BENCH_hotpath.json", help="report path (default: %(default)s)"
    )
    parser.add_argument(
        "--bench",
        action="append",
        choices=sorted(BENCHES),
        help="run only this benchmark (repeatable)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless the recorded speedup floors are met",
    )
    args = parser.parse_args(argv)

    report = build_report(quick=args.quick, only=args.bench or [])
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"calibration: {report['calibration']['ops_per_sec'] / 1e6:.2f} Mops/s")
    for bench in report["benches"]:
        line = (
            f"{bench['name']:>18}: {bench['ops_per_sec']:>12,.0f} ops/s"
            f"  ({bench['wall_s']:.3f}s)"
        )
        if "speedup" in bench:
            line += f"  speedup {bench['speedup']:.2f}x"
        print(line)
    print(f"wrote {args.out}")

    if args.check:
        failures = check_floors(report)
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print(f"checks passed: {CHECK_FLOORS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
