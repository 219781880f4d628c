"""Workload framework.

A :class:`Workload` produces one op-stream factory per software thread.
A workload writes only :meth:`Workload.thread_ops`, the generator of one
thread's ops; :meth:`Workload.thread_factories` turns it into factories
whose every call starts a fresh stream, with its own cursor, pager or
RNG, because runs and the mapping profiler both replay every thread.
Data is laid out across DIMMs by the workload itself; op targets are
DIMM ids, so locality is decided by where threads are *placed*, which is
exactly the knob distance-aware task mapping turns.
"""

from __future__ import annotations

import abc
from functools import partial
from typing import Any, Callable, Iterator, List, Optional

from repro.errors import WorkloadError
from repro.workloads.batching import RegionPager

ThreadFactory = Callable[[], Iterator]


class Workload(abc.ABC):
    """Base class for all benchmark kernels (Table IV)."""

    #: short name used in experiment tables.
    name: str = "workload"
    #: when True, op streams attach page ids so a page table can resolve
    #: (and migrate) their data; False keeps the legacy static-shard ops.
    paged: bool = False

    def pager_for(self, thread_id: int) -> Optional[RegionPager]:
        """A per-thread pager when paging is on, else None (legacy ops)."""
        return RegionPager(thread_id) if self.paged else None

    def thread_factories(self, num_threads: int, num_dimms: int) -> List[ThreadFactory]:
        """Build one re-invocable op-stream factory per thread.

        The call is validated and its :meth:`shape` built once; each call
        of a factory then returns a fresh :meth:`thread_ops` stream, so
        the shape must hold nothing that a stream mutates.
        """
        if num_threads <= 0:
            raise WorkloadError(f"{self.name}: need at least one thread")
        if num_dimms <= 0:
            raise WorkloadError(f"{self.name}: need at least one DIMM")
        shape = self.shape(num_threads, num_dimms)
        return [partial(self.thread_ops, shape, t) for t in range(num_threads)]

    def shape(self, num_threads: int, num_dimms: int) -> Any:
        """What every thread's stream reads, computed once per call; by
        default ``(num_threads, num_dimms)``.

        Raise :class:`WorkloadError` here for a call the workload cannot
        serve, so :meth:`thread_factories` fails before any stream runs.
        """
        return num_threads, num_dimms

    @abc.abstractmethod
    def thread_ops(self, shape: Any, thread_id: int) -> Iterator:
        """Thread ``thread_id``'s op stream over the call's :meth:`shape`."""

    @staticmethod
    def block_placement(num_threads: int, num_dimms: int, per_dimm: int) -> List[int]:
        """Thread i -> DIMM i // per_dimm (the natural affinity placement)."""
        return [min(i // per_dimm, num_dimms - 1) for i in range(num_threads)]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
