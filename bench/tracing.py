"""Per-layer attribution of host time, from outside the program.

A span wraps each ``execute_spec`` call (:class:`SpanExecute`).  In a
traced pass the span also runs the call under :mod:`cProfile`; every
function's self time (``tottime``) is charged to the ``src/repro`` layer
its source file belongs to (:func:`layer_of`), and the call counts of a
few layer-boundary functions (:data:`COUNTERS`) are read off the same
profile.  The simulated event count is the sum of each simulator's final
``_seq``, read by wrapping ``Simulator.run`` for the span's duration.
"""

from __future__ import annotations

import contextlib
import cProfile
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import repro
from repro.experiments.runner import RunSpec, execute_spec
from repro.nmp.results import RunResult
from repro.sim.engine import Simulator

#: host-time layers, in report order.  ``python`` is everything outside
#: ``src/repro``: builtins, the standard library, third-party packages and
#: the benchmark's own span wrappers.
LAYERS = (
    "sim.engine",
    "sim.stats",
    "sim.resource",
    "dram",
    "nmp",
    "host",
    "interconnect",
    "idc",
    "core",
    "protocol",
    "mapping",
    "workloads",
    "experiments",
    "results_cache",
    "fabric",
    "other_repro",
    "python",
)

#: ``repro`` subpackages that are a layer of their own.
_PACKAGE_LAYERS = frozenset(
    {
        "dram",
        "nmp",
        "host",
        "interconnect",
        "idc",
        "core",
        "protocol",
        "mapping",
        "workloads",
        "experiments",
        "fabric",
    }
)
_SIM_LAYERS = {"stats.py": "sim.stats", "resource.py": "sim.resource"}

#: call counts read at layer boundaries: metric -> "module:Class.method".
COUNTERS = {
    "sim.process_resumes": "repro.sim.engine:Process._advance",
    "sim.stats.add_calls": "repro.sim.stats:StatRegistry.add",
    "dram.requests": "repro.dram.module:DRAMModule.completion_time",
    "dram.line_accesses": "repro.dram.bank:Rank.access_line",
    "interconnect.sends": "repro.interconnect.network:PacketNetwork.send",
    "interconnect.broadcasts": "repro.interconnect.network:PacketNetwork.broadcast",
    "host.forwards": "repro.host.forwarding:ForwardController.forward",
    "mapping.solves": "repro.mapping.mcmf:MinCostMaxFlow.solve",
}

_REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def module_layer(relpath: str) -> str:
    """Layer of a source file given its path under ``src/repro``."""
    head, _, rest = relpath.partition("/")
    if head == "sim":
        return _SIM_LAYERS.get(rest, "sim.engine")
    if not rest:  # a top-level module such as results_cache.py
        return "results_cache" if head == "results_cache.py" else "other_repro"
    return head if head in _PACKAGE_LAYERS else "other_repro"


def layer_of(filename: str) -> str:
    """Layer of a profiled function's source file (``~`` for builtins)."""
    if not filename.startswith(_REPRO_ROOT):
        return "python"
    return module_layer(filename[len(_REPRO_ROOT) :].replace(os.sep, "/"))


def _counter_keys() -> Dict[Tuple[str, int, str], str]:
    """cProfile keys ``(file, first line, name)`` of the counted functions."""
    keys = {}
    for metric, target in COUNTERS.items():
        module_name, _, qualname = target.partition(":")
        obj = importlib.import_module(module_name)
        try:
            for attr in qualname.split("."):
                obj = getattr(obj, attr)
        except AttributeError:
            print(f"bench: counter target {target} is gone; {metric} reads 0",
                  file=sys.stderr)
            continue
        code = obj.__code__
        keys[(code.co_filename, code.co_firstlineno, code.co_name)] = metric
    return keys


def attribute(stats: dict) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Split a ``Profile.stats`` dict into layer self times and counts."""
    layers = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(COUNTERS, 0)
    targets = _counter_keys()
    for key, (_prim, ncalls, tottime, _cum, _callers) in stats.items():
        layers[layer_of(key[0])] += tottime
        metric = targets.get(key)
        if metric is not None:
            calls[metric] += ncalls
    return layers, calls


@contextlib.contextmanager
def count_events() -> Iterator[Dict[int, Tuple[Simulator, int]]]:
    """Record each simulator's ``_seq`` after every ``run`` in the block.

    The simulator is kept referenced until the block ends so its ``id``
    cannot be reused by a later one.
    """
    original = Simulator.run
    seen: Dict[int, Tuple[Simulator, int]] = {}

    def run(sim, *args, **kwargs):
        try:
            return original(sim, *args, **kwargs)
        finally:
            seen[id(sim)] = (sim, sim._seq)

    Simulator.run = run
    try:
        yield seen
    finally:
        Simulator.run = original


@dataclass(frozen=True)
class SpanExecute:
    """Picklable ``execute=`` wrapper: one span per spec.

    The span (key, host seconds and, when profiling, layer self times,
    boundary call counts and simulated events) is written to
    ``out_dir/<cache key>.json``: pool workers have no other way to hand
    it back to the process that submitted the spec.
    """

    out_dir: str
    profile: bool = False

    def __call__(self, spec: RunSpec) -> RunResult:
        span: Dict[str, object] = {"key": spec.cache_key()}
        if self.profile:
            profiler = cProfile.Profile()
            with count_events() as sims:
                start = time.perf_counter()
                profiler.enable()
                try:
                    result = execute_spec(spec)
                finally:
                    profiler.disable()
                span["seconds"] = time.perf_counter() - start
                span["events"] = sum(seq for _sim, seq in sims.values())
            profiler.create_stats()
            span["layers"], span["calls"] = attribute(profiler.stats)
        else:
            start = time.perf_counter()
            result = execute_spec(spec)
            span["seconds"] = time.perf_counter() - start
        Path(self.out_dir, f"{span['key']}.json").write_text(json.dumps(span))
        return result


def read_spans(span_dir: Path) -> List[dict]:
    """Every span a pass wrote, in key order."""
    return [json.loads(p.read_text()) for p in sorted(Path(span_dir).glob("*.json"))]
