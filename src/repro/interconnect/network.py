"""Event-level packet network over a :class:`Topology`.

Each directed edge owns a :class:`~repro.sim.resource.BandwidthResource`
(one direction of a full-duplex SerDes link).  Packets move store-and-
forward: at every hop the packet occupies the link for
``wire_bytes / bandwidth`` plus a fixed per-hop router latency, so path
length, link contention, and congestion all emerge from the event model —
the effects Fig. 16/17 of the paper attribute to network diameter.

Degraded operation
------------------

A link can die (:meth:`PacketNetwork.fail_link`) and stays dead.  Routing
is adaptive — each hop consults the topology's live routing tables, which
the :class:`~repro.faults.watchdog.LinkWatchdog` updates when it declares
a link dead after :data:`WATCHDOG_THRESHOLD` consecutive ACK timeouts.
Per-hop delivery over a dead link runs a bounded retry loop with
exponential backoff; exhaustion — or the loss of every route — raises
:class:`~repro.errors.LinkFailure` through the transfer's completion
event, which the DIMM-Link IDC layer catches and escalates to host
CPU-forwarding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from repro.errors import LinkFailure, RoutingError
from repro.faults.watchdog import LinkWatchdog
from repro.interconnect.topology import Topology
from repro.sim.engine import AllOf, SimEvent, Simulator
from repro.sim.resource import BandwidthResource
from repro.sim.stats import StatRegistry

Edge = Tuple[int, int]

#: exponential-backoff ceiling, as a multiple of the base retry penalty.
MAX_BACKOFF_FACTOR = 8
#: ACK-timeout penalty per retransmission (500 ns); also the base of the
#: exponential backoff.
RETRY_PENALTY_PS = 500_000
MAX_BACKOFF_PS = RETRY_PENALTY_PS * MAX_BACKOFF_FACTOR
#: retransmissions per hop before delivery gives up with
#: :class:`~repro.errors.LinkFailure` (escalated to host forwarding).
MAX_RETRIES = 8
#: consecutive ACK timeouts before the watchdog declares a link dead
#: and flips it in the routing tables.
WATCHDOG_THRESHOLD = 3


@dataclass
class LinkState:
    """Dynamic health of one undirected (full-duplex) link."""

    #: physical ground truth — whether the SerDes lanes carry signal.
    up: bool = True
    #: routing-table view — set once the watchdog declares the link dead.
    marked_down: bool = False
    #: when the link died (-1 while up).
    down_since_ps: int = -1


class PacketNetwork:
    """A routed group network with per-direction link bandwidth."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        bandwidth_gbps: float,
        hop_latency_ps: int,
        wire_latency_ps: int,
        stats: StatRegistry,
        name: str = "dl",
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.hop_latency_ps = hop_latency_ps
        self.stats = stats
        self.name = name
        self._links: Dict[Edge, BandwidthResource] = {}
        self._state: Dict[Edge, LinkState] = {}
        for a, b in topology.edges:
            self._state[(a, b)] = LinkState()
            for src, dst in ((a, b), (b, a)):
                self._links[(src, dst)] = BandwidthResource(
                    sim,
                    bytes_per_ns=bandwidth_gbps,
                    latency_ps=wire_latency_ps,
                    name=f"{name}.link{src}->{dst}",
                )
        self.watchdog = LinkWatchdog(threshold=WATCHDOG_THRESHOLD, name=name)
        self.watchdog.on_dead = self._on_watchdog_dead
        # event/process labels are fixed per network: build them once
        # instead of formatting a fresh string on every packet
        self._n_send_self = f"{name}.send.self"
        self._n_send = f"{name}.send"
        self._n_route = f"{name}.route"
        self._n_stream_self = f"{name}.stream.self"
        self._n_stream = f"{name}.stream"
        self._n_stream_route = f"{name}.stream.route"
        self._n_broadcast = f"{name}.broadcast"
        self._n_bc = f"{name}.bc"
        self._n_bc_finish = f"{name}.bc.finish"

    @property
    def links(self) -> Dict[Edge, BandwidthResource]:
        """Directed-edge -> link resource map (read-only use)."""
        return self._links

    def link(self, src: int, dst: int) -> BandwidthResource:
        """The directed link from ``src`` to ``dst`` (must be adjacent)."""
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise RoutingError(
                f"{self.name}: no link {src}->{dst} in {self.topology.name}"
            ) from None

    def hops(self, src: int, dst: int) -> int:
        """Shortest live-path hop count between two positions."""
        return self.topology.hops(src, dst)

    # -- link health -----------------------------------------------------------------

    def fail_link(self, a: int, b: int) -> bool:
        """Physically kill the link ``a<->b`` (both directions) for good.

        Routing tables are *not* updated here — in-flight senders discover
        the failure through ACK silence, and the watchdog flips the link
        once enough consecutive timeouts accumulate.  Returns True when
        the link was up.
        """
        state = self._state[self.topology.edge_key(a, b)]
        if not state.up:
            return False
        state.up = False
        state.down_since_ps = self.sim.now
        return True

    def _on_watchdog_dead(self, edge: Edge) -> None:
        """Watchdog verdict: flip the link in the routing tables."""
        self._state[edge].marked_down = True
        self.stats.add("dl.links_marked_down")
        self.topology.set_link_down(*edge)

    def availability(self) -> Dict[Edge, float]:
        """Per-link fraction of simulated time the link was physically up."""
        now = self.sim.now
        out: Dict[Edge, float] = {}
        for edge, state in self._state.items():
            down = 0 if state.up else now - state.down_since_ps
            out[edge] = 1.0 - down / now if now > 0 else 1.0
        return out

    def finalize_stats(self) -> float:
        """Write per-link availability into the registry; return the minimum."""
        worst = 1.0
        for (a, b), value in self.availability().items():
            if value < 1.0:
                self.stats.set(f"{self.name}.link{a}-{b}.availability", value)
            worst = min(worst, value)
        return worst

    # -- delivery --------------------------------------------------------------------

    def send(self, src: int, dst: int, wire_bytes: int) -> SimEvent:
        """Route one packet ``src -> dst``; event fires on delivery.

        On an unrecoverable failure (retry exhaustion or no live route)
        the event *fails* with :class:`LinkFailure` — callers waiting on
        it catch the exception at their ``yield``.
        """
        if src == dst:
            event = self.sim.event(name=self._n_send_self)
            self.sim.schedule(0, event.succeed, wire_bytes)
            return event
        done = self.sim.event(name=self._n_send)
        self.sim.process(
            self._route_proc(src, dst, wire_bytes, done), name=self._n_route
        )
        return done

    def _next_hop_or_fail(self, node: int, dst: int) -> int:
        try:
            return self.topology.next_hop(node, dst)
        except RoutingError as exc:
            self.stats.add("dl.unroutable")
            raise LinkFailure(
                f"{self.name}: no live route {node}->{dst}"
            ) from exc

    @staticmethod
    def _backoff_ps(attempt: int) -> int:
        # cap the exponent before shifting: 2**(attempt-1) for a large
        # attempt count would allocate a huge int only for min() to throw
        # it away.  Any shift past the ceiling's bit length already
        # saturates, so the clamped result is equal for every attempt.
        shift = min(attempt - 1, MAX_BACKOFF_FACTOR.bit_length())
        return min(RETRY_PENALTY_PS << shift, MAX_BACKOFF_PS)

    def _hop_with_retry(self, a: int, b: int, wire_bytes: int):
        """Deliver one hop ``a -> b`` under the bounded retry/backoff loop.

        A physically dead link returns no ACK: every attempt is an ACK
        timeout, reported to the watchdog, then a backoff.  Raises
        :class:`LinkFailure` once :data:`MAX_RETRIES` is exhausted or the
        link gets marked down under us.
        """
        edge = self.topology.edge_key(a, b)
        state = self._state[edge]
        attempt = 0
        while True:
            if state.marked_down:
                raise LinkFailure(f"{self.name}: link {a}<->{b} is down")
            if state.up:
                yield self.link(a, b).transfer(wire_bytes)
                self.watchdog.report_success(edge)
                return
            self.stats.add("dl.ack_timeouts")
            self.watchdog.report_timeout(edge)
            attempt += 1
            if attempt > MAX_RETRIES:
                raise LinkFailure(
                    f"{self.name}: link {a}<->{b} gave up after "
                    f"{MAX_RETRIES} retries"
                )
            backoff = self._backoff_ps(attempt)
            self.stats.add("dl.retransmissions")
            self.stats.add("dl.backoff_ps", backoff)
            trace = self.sim.trace
            if trace.enabled:
                trace.instant(
                    "network",
                    "retry",
                    f"{self.name}.link{a}-{b}",
                    attempt=attempt,
                    backoff_ps=backoff,
                )
            yield backoff

    def _route_proc(self, src: int, dst: int, wire_bytes: int, done: SimEvent):
        """Adaptive store-and-forward routing: re-resolve the next hop at
        every step so mid-flight route recomputation takes effect."""
        trace = self.sim.trace
        span = (
            trace.begin(
                "network",
                "packet",
                f"{self.name}.route",
                src=src,
                dst=dst,
                bytes=wire_bytes,
            )
            if trace.enabled
            else None
        )
        try:
            node = src
            steps = 0
            while node != dst:
                nxt = self._next_hop_or_fail(node, dst)
                yield from self._hop_with_retry(node, nxt, wire_bytes)
                yield self.hop_latency_ps
                self.stats.add("dl.hop_bytes", wire_bytes)
                self.stats.add("dl.hops")
                node = nxt
                steps += 1
                if steps > 2 * self.topology.n:
                    raise LinkFailure(
                        f"{self.name}: routing loop {src}->{dst} under churn"
                    )
        except LinkFailure as exc:
            self.stats.add("dl.send_failures")
            trace.end(span, status="failed")
            done.fail(exc)
            return
        self.stats.add("dl.packets")
        trace.end(span, status="delivered", hops=steps)
        done.succeed(wire_bytes)

    def stream(self, src: int, dst: int, wire_bytes: int) -> SimEvent:
        """Pipelined bulk transfer ``src -> dst``.

        Models wormhole-style pipelining of a long packet train: every link
        on the path is occupied for the full train duration concurrently,
        and delivery completes when the slowest link finishes plus the
        residual per-hop latencies.  Used for transfers large enough that
        per-packet store-and-forward simulation would be wasteful.

        A physically dead link on the path stalls the train: the head
        flits vanish, the sender times out, and the whole train is
        re-issued (with backoff) over whatever route is then live.  Like
        :meth:`send`, the returned event fails with :class:`LinkFailure`
        on exhaustion.
        """
        if src == dst:
            event = self.sim.event(name=self._n_stream_self)
            self.sim.schedule(0, event.succeed, wire_bytes)
            return event
        done = self.sim.event(name=self._n_stream)
        self.sim.process(
            self._stream_proc(src, dst, wire_bytes, done),
            name=self._n_stream_route,
        )
        return done

    def _stream_proc(self, src: int, dst: int, wire_bytes: int, done: SimEvent):
        trace = self.sim.trace
        span = (
            trace.begin(
                "network",
                "stream",
                f"{self.name}.stream",
                src=src,
                dst=dst,
                bytes=wire_bytes,
            )
            if trace.enabled
            else None
        )
        attempt = 0
        while True:
            try:
                path = self.topology.path(src, dst)
            except RoutingError as exc:
                self.stats.add("dl.unroutable")
                self.stats.add("dl.send_failures")
                trace.end(span, status="failed")
                done.fail(LinkFailure(f"{self.name}: no live route {src}->{dst}"))
                return
            edge_key = self.topology.edge_key
            keys = [edge_key(a, b) for a, b in zip(path, path[1:])]
            dead = [key for key in keys if not self._state[key].up]
            if not dead:
                transfers = [
                    self.link(a, b).transfer(wire_bytes)
                    for a, b in zip(path, path[1:])
                ]
                hops = len(transfers)
                yield AllOf(transfers)
                yield self.hop_latency_ps * hops
                self.stats.add("dl.hop_bytes", wire_bytes * hops)
                self.stats.add("dl.hops", hops)
                self.stats.add("dl.packets")
                trace.end(span, status="delivered", hops=hops)
                done.succeed(wire_bytes)
                return
            for edge in dead:
                self.stats.add("dl.ack_timeouts")
                self.watchdog.report_timeout(edge)
            attempt += 1
            if attempt > MAX_RETRIES:
                self.stats.add("dl.send_failures")
                trace.end(span, status="failed")
                done.fail(
                    LinkFailure(
                        f"{self.name}: stream {src}->{dst} gave up after "
                        f"{MAX_RETRIES} retries"
                    )
                )
                return
            backoff = self._backoff_ps(attempt)
            self.stats.add("dl.retransmissions")
            self.stats.add("dl.backoff_ps", backoff)
            yield backoff

    def broadcast(self, root: int, wire_bytes: int) -> SimEvent:
        """Flood ``wire_bytes`` from ``root`` to every node; fires when all
        nodes have received the packet.

        The flood pipelines wormhole-style: a node forwards flits as they
        arrive, so a child finishes receiving one hop latency after its
        parent (or when its inbound link finishes serialising, whichever
        is later) — a chain flood costs one serialisation plus per-hop
        latencies, not hops x payload.

        If the flood cannot reach every node (a partitioned group, or a
        tree link dying under the flood), the event fails with
        :class:`LinkFailure`; the IDC layer then re-issues the whole group
        delivery through the host.
        """
        done = self.sim.event(name=self._n_broadcast)
        try:
            tree = self.topology.broadcast_tree(root)
        except RoutingError as exc:
            self.stats.add("dl.unroutable")
            failure = LinkFailure(f"{self.name}: flood from {root} cut off")
            failure.__cause__ = exc
            self.sim.schedule(0, done.fail, failure)
            return done
        if not tree:
            self.sim.schedule(0, done.succeed, 0)
            return done
        arrival: Dict[int, SimEvent] = {root: self.sim.event()}
        arrival[root].succeed(None)

        def forward(parent: int, child: int):
            # the link reserves its occupancy as soon as the parent begins
            # receiving (flits stream through); completion needs both the
            # serialisation to finish and the parent's data to be there
            edge = self.topology.edge_key(parent, child)
            state = self._state[edge]
            if state.up and not state.marked_down:
                transfer = self.link(parent, child).transfer(wire_bytes)
                yield AllOf([arrival[parent], transfer])
                self.watchdog.report_success(edge)
            else:
                # dead link: drop to the per-hop retry/backoff loop
                # (raises LinkFailure on exhaustion)
                yield arrival[parent]
                yield from self._hop_with_retry(parent, child, wire_bytes)
            yield self.hop_latency_ps
            self.stats.add("dl.hop_bytes", wire_bytes)
            self.stats.add("dl.hops")
            arrival[child].succeed(None)

        children = []
        for parent, child in tree:
            arrival.setdefault(child, self.sim.event())
            children.append(
                self.sim.process(forward(parent, child), name=self._n_bc)
            )

        trace = self.sim.trace
        span = (
            trace.begin(
                "network",
                "broadcast",
                f"{self.name}.broadcast",
                root=root,
                bytes=wire_bytes,
            )
            if trace.enabled
            else None
        )

        def finish():
            try:
                yield AllOf(children)
            except LinkFailure as exc:
                self.stats.add("dl.send_failures")
                trace.end(span, status="failed")
                done.fail(exc)
                return
            self.stats.add("dl.broadcasts")
            trace.end(span, status="delivered")
            done.succeed(wire_bytes)

        self.sim.process(finish(), name=self._n_bc_finish)
        return done

    def total_busy_ps(self) -> int:
        """Sum of busy time across every directed link."""
        return sum(link.busy_ps for link in self._links.values())

    def peak_occupancy(self) -> float:
        """Highest per-link occupancy (congestion indicator)."""
        return max((link.occupancy() for link in self._links.values()), default=0.0)

    def iter_link_stats(self) -> Iterable[Tuple[Edge, BandwidthResource]]:
        """(directed edge, resource) pairs for reporting."""
        return self._links.items()
