"""The Algorithm 1 distance function over the hybrid-routing media.

A transfer between two DIMMs of one DL group crosses the group's bridge
links (Fig. 5-(a)); a transfer between groups is forwarded by the host
CPU (Fig. 5-(b)).  :func:`distance` prices the two for the
distance-aware mapper; :class:`~repro.core.dimmlink.DIMMLinkIDC` routes
the transfers themselves.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.interconnect.topology import Topology

#: relative distance charged for a host-forwarded (inter-group) transfer
#: by the distance-aware mapper; calibrated from the ratio of profiled
#: forwarding latency (~1 us) to per-hop DL latency (~12 ns) as in Sec. V-B.
INTER_GROUP_DISTANCE = 40.0


def distance(config: SystemConfig, a: int, b: int) -> float:
    """The mapping distance function ``dist(j, k)`` of Algorithm 1.

    Same DIMM costs 0; same group costs the DL hop count; crossing groups
    costs :data:`INTER_GROUP_DISTANCE` (host forwarding).
    """
    if a == b:
        return 0.0
    group_index = config.group_of(a)
    if group_index != config.group_of(b):
        return INTER_GROUP_DISTANCE
    group = config.groups[group_index]
    topology = Topology(config.topology, len(group))
    return float(topology.hops(group.index(a), group.index(b)))
