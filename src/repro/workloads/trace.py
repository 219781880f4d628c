"""Op-trace record and replay.

The paper's FPGA prototype is driven by pre-dumped memory traces
(Sec. V-A).  This module provides the same workflow for the simulator:
any workload's op streams can be recorded to a JSON-lines trace file and
replayed later as a :class:`TraceWorkload` — useful for sharing exact
workloads between runs, diffing mechanisms on identical traffic, and
regression-pinning a kernel's behaviour.

Trace format: one JSON object per line, ``{"t": thread, "op": name,
...fields}``, with a header line carrying metadata.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, List, Tuple, Union

from repro.errors import WorkloadError
from repro.workloads.base import Workload
from repro.workloads.ops import Barrier, Broadcast, Compute, Flush, Read, Write

_HEADER_MAGIC = "dimm-link-trace-v1"

_ENCODERS = {
    Compute: lambda op: {"op": "compute", "cycles": op.cycles},
    Read: lambda op: {"op": "read", "dimm": op.dimm, "offset": op.offset, "nbytes": op.nbytes},
    Write: lambda op: {"op": "write", "dimm": op.dimm, "offset": op.offset, "nbytes": op.nbytes},
    Broadcast: lambda op: {"op": "broadcast", "offset": op.offset, "nbytes": op.nbytes},
    Barrier: lambda op: {"op": "barrier"},
    Flush: lambda op: {"op": "flush"},
}


def _decode(record: dict):
    kind = record.get("op")
    if kind == "compute":
        return Compute(record["cycles"])
    if kind == "read":
        return Read(record["dimm"], record["offset"], record["nbytes"])
    if kind == "write":
        return Write(record["dimm"], record["offset"], record["nbytes"])
    if kind == "broadcast":
        return Broadcast(record["offset"], record["nbytes"])
    if kind == "barrier":
        return Barrier()
    if kind == "flush":
        return Flush()
    raise WorkloadError(f"unknown op kind {kind!r} in trace")


def record_trace(
    workload: Workload,
    path: Union[str, Path],
    num_threads: int,
    num_dimms: int,
) -> int:
    """Dump a workload's op streams to ``path``; returns ops written."""
    path = Path(path)
    count = 0
    with path.open("w") as handle:
        header = {
            "magic": _HEADER_MAGIC,
            "workload": workload.name,
            "threads": num_threads,
            "dimms": num_dimms,
        }
        handle.write(json.dumps(header) + "\n")
        for thread_id, factory in enumerate(
            workload.thread_factories(num_threads, num_dimms)
        ):
            for op in factory():
                encoder = _ENCODERS.get(type(op))
                if encoder is None:
                    raise WorkloadError(f"op {op!r} is not traceable")
                record = {"t": thread_id, **encoder(op)}
                handle.write(json.dumps(record) + "\n")
                count += 1
    return count


class TraceWorkload(Workload):
    """A workload replayed from a recorded trace file."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise WorkloadError(f"trace file {self.path} does not exist")
        with self.path.open() as handle:
            header = json.loads(handle.readline())
        if header.get("magic") != _HEADER_MAGIC:
            raise WorkloadError(f"{self.path} is not a DIMM-Link trace")
        self.name = f"trace:{header['workload']}"
        self.recorded_threads = int(header["threads"])
        self.recorded_dimms = int(header["dimms"])
        self._streams: List[List] = [[] for _ in range(self.recorded_threads)]
        with self.path.open() as handle:
            handle.readline()  # header
            for line in handle:
                record = json.loads(line)
                thread = int(record["t"])
                if not 0 <= thread < self.recorded_threads:
                    raise WorkloadError(f"trace references thread {thread}")
                self._streams[thread].append(_decode(record))

    @property
    def total_ops(self) -> int:
        """Ops across all threads."""
        return sum(len(s) for s in self._streams)

    def shape(self, num_threads: int, num_dimms: int) -> Tuple[int, int]:
        """A replay must match the recorded thread and DIMM counts."""
        if num_threads != self.recorded_threads:
            raise WorkloadError(
                f"trace has {self.recorded_threads} threads, asked for {num_threads}"
            )
        if num_dimms != self.recorded_dimms:
            raise WorkloadError(
                f"trace recorded on {self.recorded_dimms} DIMMs, asked for {num_dimms}"
            )
        return super().shape(num_threads, num_dimms)

    def thread_ops(self, shape: Tuple[int, int], thread_id: int) -> Iterator:
        return iter(self._streams[thread_id])
