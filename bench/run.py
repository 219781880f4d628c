"""End-to-end benchmark of the figure grids, with per-layer attribution.

Usage (from the repository root)::

    python3 bench/run.py                                  # all four workloads
    python3 bench/run.py --workload p2p_small --seed 1 --trace 1
    python3 bench/run.py --repeat 3 --trace 1 --out bench/results/a.json
    python3 bench/run.py --compare bench/results/a.json bench/results/b.json
    python3 bench/run.py --update-golden --seed 42        # model changed on purpose

Each pass of a workload runs in a fresh interpreter (``grids.py``) with a
cold cache.  Passes repeat until ``--seconds`` have elapsed (at least
one) and the end-to-end metrics are their medians; ``setup_s`` is the
median of five setup-only interpreters.  ``--trace 1`` adds one cProfile
pass and reports the per-layer metrics instead.  Every result is checked
against ``golden/<seed>.json`` when that file exists, and against
seed-independent invariants always.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
GOLDEN = BENCH / "golden"
#: scratch space for pass directories and cold caches (git-ignored).
WORK_ROOT = ROOT / ".bench_work"
SETUP_SAMPLES = 5
#: wall budget of one workload run, under the 180 s a run may take.
RUN_BUDGET_S = 170.0


# -- child processes ---------------------------------------------------------------


def _spawn(argv: Sequence[str], deadline: float) -> float:
    """Run ``grids.py argv`` to completion; returns its wall seconds.

    The child leads its own session so that, finished or timed out, the
    whole group (pool workers included) is killed here.  The exit is
    awaited without reaping first (``WNOWAIT``): the blocking wait times
    it exactly, and the unreaped leader keeps the group id from reuse
    until the group is killed.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "grids.py"), *argv],
        stdout=sys.stderr,
        start_new_session=True,
    )
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), _kill_group, (proc,))
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        elapsed = time.perf_counter() - start
    finally:
        timer.cancel()
        _kill_group(proc)
        code = proc.wait()
    if code != 0:
        reason = "ran out of time" if time.monotonic() >= deadline else f"exited with {code}"
        raise RuntimeError(f"bench: grids.py {' '.join(argv)} {reason}")
    return elapsed


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _pass(name: str, seed: int, mode: str, work: Path, deadline: float) -> dict:
    args = ["--workload", name, "--seed", str(seed), "--mode", mode, "--work", str(work)]
    _spawn(args, deadline)
    return json.loads((work / "pass.json").read_text())


# -- correctness -------------------------------------------------------------------


def golden_path(seed: int) -> Path:
    return GOLDEN / f"{seed}.json"


def load_golden(seed: int) -> Optional[Dict[str, str]]:
    """cache key -> result digest for ``seed``, or None (unverified seed)."""
    path = golden_path(seed)
    if not path.is_file():
        return None
    return json.loads(path.read_text())["digests"]


def verify(passes: List[dict], golden: Optional[Dict[str, str]]) -> dict:
    """Count failed spec executions over every pass of one run.

    A spec fails if it raised, broke an invariant, disagrees with the
    golden digest (or is missing from the golden file), or disagrees
    with its own digest from another pass.
    """
    first: Dict[str, str] = {}
    attempted = failed = 0
    problems: List[str] = []
    for record in passes:
        bad = dict(record["errors"])
        bad.update({k: "; ".join(v) for k, v in record["violations"].items()})
        for key, value in record["digests"].items():
            if golden is not None and golden.get(key) != value:
                bad.setdefault(key, "digest differs from golden")
            if first.setdefault(key, value) != value:
                bad.setdefault(key, "digest differs between passes")
        attempted += len(record["keys"])
        failed += sum(1 for key in record["keys"] if key in bad)
        problems += [f"{record['labels'][k]}: {why}" for k, why in sorted(bad.items())]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "verified": "golden" if golden is not None else "unverified",
        "problems": problems[:20],
        "grid_digest": grid_digest(first),
    }


def grid_digest(digests: Dict[str, str]) -> str:
    """One digest over every (cache key, result digest) pair of a grid."""
    text = "\n".join(f"{k} {v}" for k, v in sorted(digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()


# -- metrics -----------------------------------------------------------------------


def median_pass(passes: List[dict]) -> dict:
    """The pass with the median wall time (the lower one of an even count)."""
    ordered = sorted(passes, key=lambda p: p["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def layer_metrics(timed: dict, profiled: dict) -> Tuple[Dict[str, float], list]:
    """Per-layer metrics from an untraced timed pass and a profiled pass."""
    from tracing import COUNTERS, LAYERS

    spans = profiled["spans"]
    self_s = {layer: sum(s["layers"][layer] for s in spans) for layer in LAYERS}
    total = sum(self_s.values())
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = 100.0 * self_s[layer] / total
    for counter in COUNTERS:
        metrics[counter] = sum(s["calls"][counter] for s in spans)
    events = sum(s["events"] for s in spans)
    wall = timed["wall_s"]
    seconds = sorted(s["seconds"] for s in timed["spans"])
    jobs = timed["jobs"]
    metrics.update(
        {
            "sim.events": events,
            "sim.host_ns_per_event": 1e9 * wall / events,
            "dram.lines_per_request": metrics["dram.line_accesses"]
            / max(1, metrics["dram.requests"]),
            "experiments.executor_overhead_s": wall - sum(seconds) / jobs,
            "experiments.parallel_efficiency": sum(seconds) / (jobs * wall),
            "experiments.spec_s.p50": statistics.median(seconds),
            "experiments.spec_s.max": seconds[-1],
            "results_cache.puts": timed["puts"],
            "results_cache.put_s": timed["put_s"],
            "trace.overhead": profiled["wall_s"] / wall,
        }
    )
    slowest = sorted(timed["spans"], key=lambda s: -s["seconds"])[:5]
    return metrics, [[timed["labels"][s["key"]], s["seconds"]] for s in slowest]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: set-up samples, passes, optional trace."""
    deadline = time.monotonic() + RUN_BUDGET_S
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        setup_args = ["--workload", name, "--seed", str(seed), "--mode", "setup"]
        setup = [_spawn(setup_args, deadline) for _ in range(SETUP_SAMPLES)]
        passes: List[dict] = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            mode = "timed" if trace else "plain"
            passes.append(_pass(name, seed, mode, work / f"pass{len(passes)}", deadline))
        profiled = _pass(name, seed, "profiled", work / "profiled", deadline) if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    record = {
        "workload": name,
        "seed": seed,
        "passes": len(passes),
        "metrics": {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        },
    }
    checked = passes + ([profiled] if profiled is not None else [])
    record.update(verify(checked, load_golden(seed)))
    if profiled is not None:
        record["layer_metrics"], record["slowest"] = layer_metrics(
            median_pass(passes), profiled
        )
    return record


def machine_context() -> dict:
    """What numbers from another machine need to be normalised by."""
    from repro.perf.calibrate import calibrate

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibrate_ops_per_s": calibrate()["ops_per_sec"],
    }


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(runs: List[dict]) -> Dict[str, Dict[str, dict]]:
    """workload -> metric -> median and quartiles over the runs."""
    out: Dict[str, Dict[str, dict]] = {}
    for name, group in _by_workload(runs).items():
        values: Dict[str, List[float]] = {}
        for r in group:
            for metric, value in {**r["metrics"], **r.get("layer_metrics", {})}.items():
                values.setdefault(metric, []).append(value)
        out[name] = {}
        for metric, vals in values.items():
            q1, med, q3 = quartiles(vals)
            out[name][metric] = {"median": med, "q1": q1, "q3": q3, "n": len(vals)}
    return out


# -- --compare ---------------------------------------------------------------------


def compare(path_a: Path, path_b: Path, spec: dict) -> int:
    """Check B against A: bounded medians, exact counts and digests."""
    sides = [json.loads(Path(p).read_text()) for p in (path_a, path_b)]
    for label, path, side in zip("AB", (path_a, path_b), sides):
        ctx = side["context"]
        print(
            f"{label}: {path} runs={len(side['runs'])} seed={side['seed']} "
            f"trace={side['trace']} nproc={ctx['nproc']} python={ctx['python']} "
            f"calibrate={ctx['calibrate_ops_per_s']:.4g} ops/s"
        )
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    runs = [_by_workload(side["runs"]) for side in sides]
    failures: List[str] = []
    print(f"{'workload':18s} {'metric':12s} {'A median [q1, q3]':>35s} "
          f"{'B median [q1, q3]':>35s} {'change':>8s} {'bound':>6s}")
    for name in dict.fromkeys([*runs[0], *runs[1]]):
        runs_a, runs_b = runs[0].get(name, []), runs[1].get(name, [])
        if not runs_a or not runs_b:
            failures.append(f"{name}: runs on one side only")
            continue
        for metric in spec["end_to_end"]:
            qa = quartiles([r["metrics"][metric["name"]] for r in runs_a])
            qb = quartiles([r["metrics"][metric["name"]] for r in runs_b])
            change = (qb[1] - qa[1]) / qa[1]
            worse = change if metric["better"] == "lower" else -change
            verdict = "ok" if worse <= metric["bound"] else "WORSE"
            if verdict != "ok":
                failures.append(f"{name} {metric['name']}: {change:+.1%} worse than "
                                f"the {metric['bound']:.0%} bound")
            print(f"{name:18s} {metric['name']:12s} "
                  f"{qa[1]:12.4f} [{qa[0]:9.4f}, {qa[2]:9.4f}] "
                  f"{qb[1]:12.4f} [{qb[0]:9.4f}, {qb[2]:9.4f}] "
                  f"{change:+8.1%} {metric['bound']:6.0%} {verdict}")
        both = runs_a + runs_b
        traced = [r["layer_metrics"] for r in both if "layer_metrics" in r]
        differ = [c for c in counts if len({m[c] for m in traced}) > 1]
        failures += [f"{name} {c}: counts differ between runs" for c in differ]
        digests = {r["grid_digest"] for r in both}
        if len(digests) > 1:
            failures.append(f"{name}: result digests differ between runs")
        failures += [f"{name}: a run reported failed specs" for r in both if not r["correct"]][:1]
        print(f"{name:18s} counts over {len(traced)} traced runs: "
              f"{'DIFFER' if differ else 'identical'}; result digests over "
              f"{len(both)} runs: {'DIFFER' if len(digests) > 1 else 'identical'}")
    for failure in failures:
        print(f"DISAGREE {failure}")
    print("agree" if not failures else f"{len(failures)} disagreement(s)")
    return 0 if not failures else 1


def _by_workload(runs: List[dict]) -> Dict[str, List[dict]]:
    out: Dict[str, List[dict]] = {}
    for run in runs:
        out.setdefault(run["workload"], []).append(run)
    return out


# -- --update-golden ---------------------------------------------------------------


def update_golden(names: List[str], seed: int, all_workloads: bool) -> int:
    """Rewrite golden/<seed>.json from one plain pass of each workload."""
    path = golden_path(seed)
    digests = {} if all_workloads or not path.is_file() else json.loads(path.read_text())["digests"]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="golden-", dir=WORK_ROOT))
    try:
        for name in names:
            record = _pass(name, seed, "plain", work / name, time.monotonic() + RUN_BUDGET_S)
            if record["errors"] or record["violations"]:
                print(f"bench: {name} has failing specs; golden not written", file=sys.stderr)
                return 1
            digests.update(record["digests"])
            print(f"{name}: {len(record['digests'])} digests")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN.mkdir(exist_ok=True)
    path.write_text(json.dumps({"seed": seed, "digests": dict(sorted(digests.items()))}, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)} ({len(digests)} specs)")
    return 0


# -- main --------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not SPEC_FILE.is_file():
        print("bench: needs src/repro and BENCHMARK.json beside bench/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from grids import WORKLOADS

    spec = json.loads(SPEC_FILE.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measure passes until this much time has elapsed")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: add a cProfile pass and report per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument("--out", type=Path, help="write every run to this result file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite golden/<seed>.json from this code's results")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare, spec)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.update_golden:
        return update_golden(names, args.seed, args.workload == "all")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    context = machine_context()
    print(f"# nproc={context['nproc']} python={context['python']} "
          f"calibrate={context['calibrate_ops_per_s']:.4g} ops/s")
    runs = []
    for _ in range(args.repeat):
        for name in names:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
            runs.append(record)
            shown = {**record["metrics"], **record.get("layer_metrics", {})}
            for metric, value in shown.items():
                text = f"{value:d}" if isinstance(value, int) else f"{value:.6f}"
                print(f"{name:18s} {metric:34s} {text:>18s} {units[metric]}")
            for label, seconds in record.get("slowest", []):
                print(f"{name:18s} slowest spec {seconds:9.4f} s  {label}")
            print(f"{name:18s} correct={record['correct']} attempted={record['attempted']} "
                  f"failed={record['failed']} results={record['verified']} "
                  f"passes={record['passes']}")
            for problem in record["problems"]:
                print(f"{name:18s} FAILED {problem}")

    if args.out:
        args.out.write_text(json.dumps(
            {"context": context, "seed": args.seed, "seconds": args.seconds,
             "trace": bool(args.trace), "runs": runs, "summary": summarise(runs)},
            indent=1) + "\n")
    print(json.dumps(result_line(runs, spec["per_layer"] if args.trace else spec["end_to_end"])))
    return 0


def result_line(runs: List[dict], wanted: List[dict]) -> dict:
    """The closing JSON object: the ``wanted`` metrics' medians over runs.

    With more than one workload, metric names are prefixed by workload.
    """
    summary = summarise(runs)
    metrics = {}
    for name, values in summary.items():
        prefix = "" if len(summary) == 1 else f"{name}."
        for metric in wanted:
            metrics[prefix + metric["name"]] = {
                "value": values[metric["name"]]["median"],
                "unit": metric["unit"],
            }
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


if __name__ == "__main__":
    raise SystemExit(main())
