"""DL-group topologies and routing tables (Sec. VI, Fig. 17).

The paper's shipping design connects the DIMMs of a group as a linear
chain ("half-ring"); Sec. VI explores Ring, Mesh, and Torus alternatives.
A :class:`Topology` is an undirected graph over group-local positions
``0..n-1`` with deterministic shortest-path routing (BFS, lowest-index
tie-break) and BFS broadcast trees.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Sequence, Set, Tuple

from repro.errors import ConfigError, RoutingError

TOPOLOGY_NAMES = ("half_ring", "ring", "mesh", "torus")


def _mesh_dims(n: int) -> Tuple[int, int]:
    """Factor ``n`` into the most-square (rows, cols) grid."""
    best = (1, n)
    for rows in range(1, int(n ** 0.5) + 1):
        if n % rows == 0:
            best = (rows, n // rows)
    return best


def build_edges(name: str, n: int) -> List[Tuple[int, int]]:
    """Undirected edge list for a named topology over ``n`` nodes.

    Degenerate sizes fall back gracefully rather than erroring:

    * a ``ring`` with ``n < 3`` degrades to a chain (a 2-node "ring" would
      need a redundant parallel link; the bridge has one),
    * a ``torus`` drops the wrap-around edge of any dimension of width
      ``<= 2`` (the wrap would duplicate an existing mesh edge), so e.g. a
      2x2 torus has exactly the 2x2 mesh's edges.
    """
    if n <= 0:
        raise ConfigError(f"topology needs at least one node, got {n}")
    if name == "half_ring":
        return [(i, i + 1) for i in range(n - 1)]
    if name == "ring":
        if n < 3:
            return [(i, i + 1) for i in range(n - 1)]
        # wrap edge kept canonical (low, high) like every other edge
        return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    if name in ("mesh", "torus"):
        rows, cols = _mesh_dims(n)
        edges = []
        for r in range(rows):
            for c in range(cols):
                node = r * cols + c
                if c + 1 < cols:
                    edges.append((node, node + 1))
                elif name == "torus" and cols > 2:
                    edges.append((node, r * cols))
                if r + 1 < rows:
                    edges.append((node, node + cols))
                elif name == "torus" and rows > 2:
                    edges.append((node, c))
        return sorted(set(tuple(sorted(e)) for e in edges if e[0] != e[1]))
    raise ConfigError(f"unknown topology {name!r} (choose from {TOPOLOGY_NAMES})")


class Topology:
    """A routed topology over ``n`` group-local node positions.

    ``edges`` is the nominal (as-built) wiring.  Each edge also carries a
    dynamic up/down state: :meth:`set_link_down` takes a link down and
    recomputes every routing table over the surviving edges, so routing
    adapts to failures at simulation time.
    """

    def __init__(self, name: str, n: int) -> None:
        self.name = name
        self.n = n
        self.edges = build_edges(name, n)
        # the nominal wiring never changes after construction: both the
        # canonical-key map (either direction -> sorted key) and the edge
        # set are built once and shared by every edge_key() call
        self._edge_keys: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for edge in self.edges:
            self._edge_keys[edge] = edge
            self._edge_keys[(edge[1], edge[0])] = edge
        self._down: Set[Tuple[int, int]] = set()
        self.route_recomputes = 0
        self._rebuild_routes()

    def _rebuild_routes(self) -> None:
        """Recompute adjacency + routing tables over the live edges.

        This is the single invalidation point for every derived routing
        structure: next-hop tables, distance tables, and the memoized
        path / broadcast-tree caches.  ``set_link_down`` funnels every
        link-state change through here, so cached routes can never
        outlive the topology state they were computed from.
        """
        self._adjacency: Dict[int, List[int]] = {i: [] for i in range(self.n)}
        for a, b in self.live_edges:
            self._adjacency[a].append(b)
            self._adjacency[b].append(a)
        for neighbors in self._adjacency.values():
            neighbors.sort()
        # routing table: _next_hop[src][dst] -> neighbor on a shortest path
        # (and _dist[src][dst] -> hop count, -1 when unreachable)
        self._next_hop: List[List[int]] = []
        self._dist: List[List[int]] = []
        for src in range(self.n):
            next_hops, dist = self._bfs_next_hops(src)
            self._next_hop.append(next_hops)
            self._dist.append(dist)
        self._path_cache: Dict[Tuple[int, int], List[int]] = {}
        self._tree_cache: Dict[int, List[Tuple[int, int]]] = {}

    @property
    def live_edges(self) -> List[Tuple[int, int]]:
        """The nominal edges currently marked up."""
        return [e for e in self.edges if e not in self._down]

    def edge_key(self, a: int, b: int) -> Tuple[int, int]:
        """Canonical (sorted) key of an existing nominal edge."""
        try:
            return self._edge_keys[(a, b)]
        except KeyError:
            self._check(a)
            self._check(b)
            raise RoutingError(f"{self.name}: no edge {a}<->{b}") from None

    def link_up(self, a: int, b: int) -> bool:
        """Whether the edge ``a<->b`` is currently marked up."""
        return self.edge_key(a, b) not in self._down

    def set_link_down(self, a: int, b: int) -> bool:
        """Mark the edge ``a<->b`` down; recompute routes on change.

        Returns True when the link was up.
        """
        key = self.edge_key(a, b)
        if key in self._down:
            return False
        self._down.add(key)
        self.route_recomputes += 1
        self._rebuild_routes()
        return True

    def reachable(self, src: int, dst: int) -> bool:
        """Whether a live route ``src -> dst`` currently exists."""
        self._check(src)
        self._check(dst)
        return src == dst or self._next_hop[src][dst] != -1

    def component(self, root: int) -> Set[int]:
        """All nodes reachable from ``root`` over live edges (incl. root)."""
        self._check(root)
        return {root} | {d for d in range(self.n) if self._next_hop[root][d] != -1}

    def _bfs_next_hops(self, src: int) -> Tuple[List[int], List[int]]:
        parent = [-1] * self.n
        dist = [-1] * self.n
        dist[src] = 0
        queue = deque([src])
        while queue:
            node = queue.popleft()
            for neighbor in self._adjacency[node]:
                if dist[neighbor] == -1:
                    dist[neighbor] = dist[node] + 1
                    parent[neighbor] = node
                    queue.append(neighbor)
        next_hops = [-1] * self.n
        for dst in range(self.n):
            if dst == src or dist[dst] == -1:
                continue
            node = dst
            while parent[node] != src:
                node = parent[node]
            next_hops[dst] = node
        return next_hops, dist

    def neighbors(self, node: int) -> Sequence[int]:
        """Adjacent nodes of ``node``."""
        self._check(node)
        return tuple(self._adjacency[node])

    def next_hop(self, src: int, dst: int) -> int:
        """First hop on a shortest path from ``src`` to ``dst``."""
        self._check(src)
        self._check(dst)
        if src == dst:
            raise RoutingError(f"next_hop of {src} to itself")
        hop = self._next_hop[src][dst]
        if hop == -1:
            raise RoutingError(f"no path from {src} to {dst} in {self.name}")
        return hop

    def path(self, src: int, dst: int) -> List[int]:
        """Full shortest path ``[src, ..., dst]``.

        Memoized until the next link-state change; the caller gets a
        private copy, so mutating the returned list is safe.
        """
        cached = self._path_cache.get((src, dst))
        if cached is not None:
            return cached[:]
        self._check(src)
        self._check(dst)
        path = [src]
        node = src
        guard = 0
        while node != dst:
            node = self.next_hop(node, dst)
            path.append(node)
            guard += 1
            if guard > self.n:
                raise RoutingError(f"routing loop {src}->{dst} in {self.name}")
        self._path_cache[(src, dst)] = path
        return path[:]

    def hops(self, src: int, dst: int) -> int:
        """Shortest-path hop count."""
        self._check(src)
        self._check(dst)
        if src == dst:
            return 0
        distance = self._dist[src][dst]
        if distance == -1:
            raise RoutingError(f"no path from {src} to {dst} in {self.name}")
        return distance

    def diameter(self) -> int:
        """Maximum shortest-path distance between any node pair."""
        return max(
            (self.hops(a, b) for a in range(self.n) for b in range(self.n) if a != b),
            default=0,
        )

    def average_distance(self) -> float:
        """Mean shortest-path distance over distinct pairs."""
        pairs = [(a, b) for a in range(self.n) for b in range(self.n) if a != b]
        if not pairs:
            return 0.0
        return sum(self.hops(a, b) for a, b in pairs) / len(pairs)

    def broadcast_tree(
        self, root: int, require_all: bool = True
    ) -> List[Tuple[int, int]]:
        """BFS tree edges ``(parent, child)`` in propagation order.

        The tree spans live edges only.  With ``require_all`` (default) an
        unreachable node raises :class:`RoutingError`; otherwise the tree
        covers just the root's connected component.
        """
        self._check(root)
        order = self._tree_cache.get(root)
        if order is None:
            seen = {root}
            order = []
            queue = deque([root])
            while queue:
                node = queue.popleft()
                for neighbor in self._adjacency[node]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        order.append((node, neighbor))
                        queue.append(neighbor)
            self._tree_cache[root] = order
        if require_all and len(order) != self.n - 1:
            raise RoutingError(f"{self.name}: broadcast from {root} cannot reach all")
        return order[:]

    def _check(self, node: int) -> None:
        if not 0 <= node < self.n:
            raise RoutingError(f"node {node} out of range [0, {self.n})")

    def __repr__(self) -> str:
        return f"Topology({self.name!r}, n={self.n}, edges={len(self.edges)})"
