"""Arms a :class:`~repro.faults.schedule.FaultSchedule` on a DL bridge.

The injector validates every fault against the bridge's actual wiring at
construction time (unknown DIMMs, cross-group links, and non-adjacent
pairs are rejected up front, not at fire time), then schedules one
simulator callback per fault.  Fault application itself is delegated to
the bridge — the injector knows *when*, the bridge knows *how*.

Counters written under ``fault.``:

* ``fault.injected`` — faults applied so far,
* ``fault.links_down`` — links taken down (a link named twice counts once).
"""

from __future__ import annotations

from typing import List

from repro.errors import FaultError, RoutingError
from repro.faults.schedule import FaultSchedule, LinkDown


class FaultInjector:
    """Schedules and applies the faults of one schedule on one bridge."""

    def __init__(self, sim, bridge, schedule: FaultSchedule, stats) -> None:
        self.sim = sim
        self.bridge = bridge
        self.schedule = schedule
        self.stats = stats
        self.applied: List[LinkDown] = []
        for fault in schedule:
            self._validate(fault)
        for fault in schedule:
            sim.at(fault.time_ps, self._apply, fault)

    def _validate(self, fault: LinkDown) -> None:
        # locate() raises for unknown DIMMs; adjacency is checked here
        group_a, pos_a = self.bridge.locate(fault.dimm_a)
        group_b, pos_b = self.bridge.locate(fault.dimm_b)
        if group_a != group_b:
            raise FaultError(
                f"{fault!r}: DIMMs {fault.dimm_a} and {fault.dimm_b} "
                f"are in different DL groups"
            )
        # edge_key() raises RoutingError for non-adjacent positions
        try:
            self.bridge.networks[group_a].topology.edge_key(pos_a, pos_b)
        except RoutingError as exc:
            raise FaultError(
                f"{fault!r}: DIMMs {fault.dimm_a} and {fault.dimm_b} "
                f"share no bridge link"
            ) from exc

    def _apply(self, fault: LinkDown) -> None:
        self.stats.add("fault.injected")
        self.applied.append(fault)
        # a link named twice (from either end) goes down once
        if self.bridge.fail_link_between(fault.dimm_a, fault.dimm_b):
            self.stats.add("fault.links_down")
