"""Blocked Floyd–Warshall APSP — graph-size x mechanism sweep.

Sweeps graph size x IDC mechanism for the blocked all-pairs shortest
paths kernel (:mod:`repro.workloads.apsp`) on the 16D-8C system.  Every
round of the kernel broadcasts the pivot tile and pivot row/column tiles
to all DIMMs, so the broadcast mechanism dominates: ABC-DIMM and
DIMM-Link pull ahead of MCN (which emulates each flood as a host read +
per-DIMM writes) and the gap widens with graph size as rounds multiply.

``run`` also re-derives the kernel's *numerics* per graph size and
asserts the blocked schedule equals the triple-loop reference exactly —
the simulated traffic of a wrong answer is not worth reporting.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table, geomean
from repro.errors import WorkloadError
from repro.experiments.runner import RunSpec, SweepRunner, run_specs
from repro.workloads.apsp import BlockedFloydWarshall

DEFAULT_CONFIG = "16D-8C"

#: mechanisms compared: host baseline, NMP broadcast baselines, DIMM-Link
#: group floods, and the DL-opt placement flow.
MECHANISMS: Tuple[Tuple[str, str, str], ...] = (
    # (label, spec kind, spec mechanism)
    ("cpu", "cpu", "cpu"),
    ("mcn", "nmp", "mcn"),
    ("abc", "nmp", "abc"),
    ("dimm_link", "nmp", "dimm_link"),
    ("dl_opt", "optimized", "dimm_link"),
)

#: (n, block) graph sizes swept, per size preset.
GRAPH_SIZES = {
    "tiny": ((48, 12), (60, 12)),
    "small": ((96, 12), (120, 12)),
    "large": ((192, 16), (256, 16)),
}


def specs(
    size: str = "small",
    config_name: str = DEFAULT_CONFIG,
    graph_sizes: Optional[Sequence[Tuple[int, int]]] = None,
) -> List[RunSpec]:
    """The sweep as a flat spec list: one run per (graph size, mechanism)."""
    sizes = graph_sizes if graph_sizes is not None else GRAPH_SIZES[size]
    return [
        RunSpec(
            config=config_name,
            workload="apsp",
            size=size,
            kind=kind,
            mechanism=mechanism,
            params=f"block={block},n={n}",
        )
        for n, block in sizes
        for _label, kind, mechanism in MECHANISMS
    ]


def verify_exact(n: int, block: int, seed: int = 42) -> None:
    """Assert the blocked schedules equal the reference, or raise."""
    workload = BlockedFloydWarshall(n=n, block=block, seed=seed)
    reference = workload.reference_distances()
    for mechanism in ("cpu", "dimm_link", "dl_opt"):
        if workload.distances_via(mechanism) != reference:
            raise WorkloadError(
                f"apsp: {mechanism} schedule diverged from the reference "
                f"at n={n}, block={block}"
            )


def run(
    size: str = "small",
    config_name: str = DEFAULT_CONFIG,
    graph_sizes: Optional[Sequence[Tuple[int, int]]] = None,
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, object]]:
    """One row per (graph size, mechanism): speedup over the CPU baseline.

    Each graph size's blocked numerics are checked against the
    triple-loop reference (:func:`verify_exact`) before its timings are
    reported.
    """
    sizes = graph_sizes if graph_sizes is not None else GRAPH_SIZES[size]
    results = iter(run_specs(specs(size, config_name, sizes), runner))
    rows = []
    for n, block in sizes:
        verify_exact(n, block)
        cpu_ps: Optional[int] = None
        for label, _kind, _mechanism in MECHANISMS:
            result = next(results)
            if label == "cpu":
                cpu_ps = result.total_ps
            rows.append(
                {
                    "n": n,
                    "block": block,
                    "mechanism": label,
                    "time_us": result.time_us,
                    "broadcasts": result.counter("core.broadcasts"),
                    "speedup": cpu_ps / result.total_ps,
                }
            )
    return rows


def summary(rows: List[Dict[str, object]]) -> Dict[str, float]:
    """Geomean speedup over the CPU baseline per mechanism."""
    return {
        f"{label}_geomean": geomean(
            [float(r["speedup"]) for r in rows if r["mechanism"] == label]
        )
        for label, _kind, _mechanism in MECHANISMS
    }


def main(size: str = "small") -> None:
    """Print the APSP sweep."""
    rows = run(size=size)
    print("Blocked Floyd-Warshall APSP: speedup over CPU by mechanism")
    print(
        format_table(
            ["n", "block", "mechanism", "time us", "broadcasts", "speedup", "exact"],
            [
                (
                    r["n"],
                    r["block"],
                    r["mechanism"],
                    r["time_us"],
                    int(float(r["broadcasts"])),
                    r["speedup"],
                    "yes",  # run() raised unless the numerics were exact
                )
                for r in rows
            ],
            precision=2,
        )
    )
    print("\ngeomean speedup over CPU-forwarding:")
    for label, value in summary(rows).items():
        print(f"  {label}: {value:.2f}x")


if __name__ == "__main__":
    main()
