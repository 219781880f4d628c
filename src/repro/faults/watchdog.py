"""ACK-timeout link watchdog.

A dead SerDes link produces no ACKs and no reverse-channel credit traffic;
the only observable symptom at the sender is repeated ACK silence.  The
:class:`LinkWatchdog` counts *consecutive* ACK timeouts per link and, once
a threshold is crossed, declares the link dead — the owning network flips
it in the topology's link-state table so routing stops using it.  A dead
link stays dead.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

Edge = Tuple[int, int]


class LinkWatchdog:
    """Per-link consecutive-ACK-timeout counter with a dead declaration."""

    def __init__(self, threshold: int, name: str = "dl") -> None:
        if threshold <= 0:
            raise ValueError(f"{name}: watchdog threshold must be positive")
        self.threshold = threshold
        self.name = name
        self._timeouts: Dict[Edge, int] = {}
        self._dead: Set[Edge] = set()
        #: called with the edge when the watchdog declares it dead.
        self.on_dead: Optional[Callable[[Edge], None]] = None

    def report_timeout(self, edge: Edge) -> bool:
        """Record one ACK timeout; returns True if this declared the link dead."""
        if edge in self._dead:
            return False
        count = self._timeouts.get(edge, 0) + 1
        self._timeouts[edge] = count
        if count < self.threshold:
            return False
        self._dead.add(edge)
        if self.on_dead is not None:
            self.on_dead(edge)
        return True

    def report_success(self, edge: Edge) -> None:
        """An ACKed delivery resets the link's consecutive-timeout count."""
        if self._timeouts.get(edge):
            self._timeouts[edge] = 0

    def is_dead(self, edge: Edge) -> bool:
        """Whether the watchdog has declared the link dead."""
        return edge in self._dead

    def timeouts(self, edge: Edge) -> int:
        """Current consecutive-timeout count for a link."""
        return self._timeouts.get(edge, 0)
