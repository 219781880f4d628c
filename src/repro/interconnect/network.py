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
exponential backoff; exhaustion — or the loss of every route — fails
the transfer's completion event with :class:`~repro.errors.LinkFailure`.
The DIMM-Link IDC step after that wait reads the failure and escalates
to host CPU-forwarding.

A packet in flight is a record, not a process: the network advances it
hop by hop with one callback per simulator slot (``SimEvent.then`` after
a link transfer, ``Simulator.schedule`` for the router latency and the
retry backoff), and its retry count lives on the record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import LinkFailure, RoutingError
from repro.faults.watchdog import LinkWatchdog
from repro.interconnect.topology import Topology
from repro.sim.engine import Join, SimEvent, Simulator
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
        # event labels are fixed per network: build them once
        # instead of formatting a fresh string on every packet
        self._n_send_self = f"{name}.send.self"
        self._n_send = f"{name}.send"
        self._n_stream_self = f"{name}.stream.self"
        self._n_stream = f"{name}.stream"
        self._n_broadcast = f"{name}.broadcast"

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
        the event *fails* with :class:`LinkFailure`; the caller's next
        step reads :attr:`SimEvent.failed`.
        """
        if src == dst:
            event = self.sim.event(name=self._n_send_self)
            self.sim.schedule(0, event.succeed, wire_bytes)
            return event
        done = SimEvent(self.sim, self._n_send)
        packet = _Packet(src, dst, wire_bytes, done)
        packet.crossed = self._route_crossed
        packet.lost = self._route_lost
        self.sim.schedule(0, self._route_start, packet)
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

    # A packet is a record the network advances hop by hop, one callback
    # per simulator slot.  A hop is: the link transfer, under the bounded
    # retry/backoff loop when the link is physically dead (each attempt an
    # ACK timeout reported to the watchdog, then a backoff); the watchdog's
    # success report; the per-hop router latency; then ``crossed`` — the
    # next hop of a route, or the next tree level of a flood.  A hop that
    # gives up (retries exhausted, or the link marked down under it) calls
    # ``lost`` with the LinkFailure, in the same slot.

    def _aim(self, packet: "_Packet", a: int, b: int) -> LinkState:
        """Point ``packet`` at the hop ``a -> b``; returns the link's state."""
        packet.node = a
        packet.nxt = b
        packet.edge = edge = self.topology.edge_key(a, b)
        packet.state = state = self._state[edge]
        packet.attempt = 0
        return state

    def _hop(self, packet: "_Packet") -> None:
        state = packet.state
        a, b = packet.node, packet.nxt
        if state.marked_down:
            packet.lost(packet, LinkFailure(f"{self.name}: link {a}<->{b} is down"))
            return
        if state.up:
            self._links[(a, b)].transfer(packet.wire_bytes).then(self._hop_acked, packet)
            return
        self.stats.add("dl.ack_timeouts")
        self.watchdog.report_timeout(packet.edge)
        packet.attempt = attempt = packet.attempt + 1
        if attempt > MAX_RETRIES:
            packet.lost(
                packet,
                LinkFailure(
                    f"{self.name}: link {a}<->{b} gave up after {MAX_RETRIES} retries"
                ),
            )
            return
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
        self.sim.schedule(backoff, self._hop, packet)

    def _hop_acked(self, packet: "_Packet") -> None:
        self.watchdog.report_success(packet.edge)
        self.sim.schedule(self.hop_latency_ps, self._hop_crossed, packet)

    def _hop_crossed(self, packet: "_Packet") -> None:
        self.stats.add("dl.hop_bytes", packet.wire_bytes)
        self.stats.add("dl.hops")
        packet.crossed(packet)

    # -- adaptive store-and-forward routing: the next hop is re-resolved at
    # every node, so mid-flight route recomputation takes effect

    def _route_start(self, packet: "_Packet") -> None:
        trace = self.sim.trace
        if trace.enabled:
            packet.span = trace.begin(
                "network",
                "packet",
                f"{self.name}.route",
                src=packet.src,
                dst=packet.dst,
                bytes=packet.wire_bytes,
            )
        self._route_from(packet, packet.src)

    def _route_from(self, packet: "_Packet", node: int) -> None:
        dst = packet.dst
        if node == dst:
            self.stats.add("dl.packets")
            self.sim.trace.end(packet.span, status="delivered", hops=packet.steps)
            packet.done.succeed(packet.wire_bytes)
            return
        try:
            nxt = self._next_hop_or_fail(node, dst)
        except LinkFailure as exc:
            self._route_lost(packet, exc)
            return
        self._aim(packet, node, nxt)
        self._hop(packet)

    def _route_crossed(self, packet: "_Packet") -> None:
        packet.steps = steps = packet.steps + 1
        if steps > 2 * self.topology.n:
            self._route_lost(
                packet,
                LinkFailure(
                    f"{self.name}: routing loop {packet.src}->{packet.dst} under churn"
                ),
            )
            return
        self._route_from(packet, packet.nxt)

    def _route_lost(self, packet: "_Packet", exc: LinkFailure) -> None:
        self.stats.add("dl.send_failures")
        self.sim.trace.end(packet.span, status="failed")
        packet.done.fail(exc)

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
        done = SimEvent(self.sim, self._n_stream)
        self.sim.schedule(0, self._stream_start, _Packet(src, dst, wire_bytes, done))
        return done

    def _stream_start(self, train: "_Packet") -> None:
        trace = self.sim.trace
        if trace.enabled:
            train.span = trace.begin(
                "network",
                "stream",
                f"{self.name}.stream",
                src=train.src,
                dst=train.dst,
                bytes=train.wire_bytes,
            )
        self._stream_try(train)

    def _stream_try(self, train: "_Packet") -> None:
        """One issue of the whole train over the then-live path."""
        try:
            path = self.topology.path(train.src, train.dst)
        except RoutingError:
            self.stats.add("dl.unroutable")
            self._stream_lost(
                train, f"{self.name}: no live route {train.src}->{train.dst}"
            )
            return
        edge_key = self.topology.edge_key
        keys = [edge_key(a, b) for a, b in zip(path, path[1:])]
        dead = [key for key in keys if not self._state[key].up]
        if not dead:
            transfers = [
                self.link(a, b).transfer(train.wire_bytes)
                for a, b in zip(path, path[1:])
            ]
            train.steps = len(transfers)
            join = Join(self.sim, len(transfers) + 1, self._stream_sent, train)
            for transfer in transfers:
                transfer.add_callback(join.ok)
            join.ok()
            return
        for edge in dead:
            self.stats.add("dl.ack_timeouts")
            self.watchdog.report_timeout(edge)
        train.attempt = attempt = train.attempt + 1
        if attempt > MAX_RETRIES:
            self._stream_lost(
                train,
                f"{self.name}: stream {train.src}->{train.dst} gave up after "
                f"{MAX_RETRIES} retries",
            )
            return
        backoff = self._backoff_ps(attempt)
        self.stats.add("dl.retransmissions")
        self.stats.add("dl.backoff_ps", backoff)
        self.sim.schedule(backoff, self._stream_try, train)

    def _stream_sent(self, train: "_Packet") -> None:
        self.sim.schedule(self.hop_latency_ps * train.steps, self._stream_done, train)

    def _stream_done(self, train: "_Packet") -> None:
        hops = train.steps
        self.stats.add("dl.hop_bytes", train.wire_bytes * hops)
        self.stats.add("dl.hops", hops)
        self.stats.add("dl.packets")
        self.sim.trace.end(train.span, status="delivered", hops=hops)
        train.done.succeed(train.wire_bytes)

    def _stream_lost(self, train: "_Packet", reason: str) -> None:
        self.stats.add("dl.send_failures")
        self.sim.trace.end(train.span, status="failed")
        train.done.fail(LinkFailure(reason))

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
        flood = _Flood(done, wire_bytes)
        # one branch per tree edge, plus the finishing step's hold
        join = Join(self.sim, len(tree) + 1, self._flood_done, flood)
        for parent, child in tree:
            arrival.setdefault(child, self.sim.event())
            branch = _Packet(parent, child, wire_bytes, None)
            branch.arrival = arrival
            branch.flood = flood
            branch.join = join
            branch.crossed = self._flood_crossed
            branch.lost = self._flood_lost
            self.sim.schedule(0, self._flood_edge, branch)
        trace = self.sim.trace
        if trace.enabled:
            flood.span = trace.begin(
                "network",
                "broadcast",
                f"{self.name}.broadcast",
                root=root,
                bytes=wire_bytes,
            )
        self.sim.schedule(0, join.ok, None)
        return done

    # A flood branch is a packet record for one tree edge.  It starts once
    # the parent begins receiving; it ends by marking the child's arrival
    # and counting down the flood's join.  A branch that gives up takes a
    # lane slot of its own: the first such slot fails the flood, and the
    # later ones find it failed.

    def _flood_edge(self, branch: "_Packet") -> None:
        parent, child = branch.src, branch.dst
        state = self._aim(branch, parent, child)
        if state.up and not state.marked_down:
            # the link reserves its occupancy as soon as the parent begins
            # receiving (flits stream through); completion needs both the
            # serialisation to finish and the parent's data to be there
            transfer = self._links[(parent, child)].transfer(branch.wire_bytes)
            join = Join(self.sim, 3, self._hop_acked, branch)
            branch.arrival[parent].add_callback(join.ok)
            transfer.add_callback(join.ok)
            join.ok()
        else:
            # dead link: drop to the per-hop retry/backoff loop once the
            # parent has the data
            branch.arrival[parent].then(self._hop, branch)

    def _flood_crossed(self, branch: "_Packet") -> None:
        branch.arrival[branch.dst].succeed(None)
        branch.join.ok()

    def _flood_lost(self, branch: "_Packet", exc: LinkFailure) -> None:
        self.sim.schedule(0, self._flood_failed, (branch.flood, exc))

    def _flood_failed(self, failure) -> None:
        flood, exc = failure
        if flood.failed:
            return
        flood.failed = True
        self.stats.add("dl.send_failures")
        self.sim.trace.end(flood.span, status="failed")
        flood.done.fail(exc)

    def _flood_done(self, flood: "_Flood") -> None:
        self.stats.add("dl.broadcasts")
        self.sim.trace.end(flood.span, status="delivered")
        flood.done.succeed(flood.wire_bytes)

    def total_busy_ps(self) -> int:
        """Sum of busy time across every directed link."""
        return sum(link.busy_ps for link in self._links.values())


class _Packet:
    """One packet, stream train or flood branch in flight.

    ``node -> nxt`` is the hop under way, ``edge``/``state`` its link and
    ``attempt`` its retry count; ``steps`` counts hops crossed.  A flood
    branch carries its ``flood``, that flood's ``arrival`` events and
    its ``join`` instead of a ``done`` event.
    """

    __slots__ = (
        "src", "dst", "wire_bytes", "done", "span", "node", "nxt", "steps",
        "edge", "state", "attempt", "crossed", "lost", "arrival", "flood", "join",
    )

    def __init__(self, src: int, dst: int, wire_bytes: int, done) -> None:
        self.src = src
        self.dst = dst
        self.wire_bytes = wire_bytes
        self.done = done
        self.span = None
        self.steps = 0
        self.attempt = 0


class _Flood:
    """One flood: its completion event, trace span and outcome."""

    __slots__ = ("done", "wire_bytes", "span", "failed")

    def __init__(self, done: SimEvent, wire_bytes: int) -> None:
        self.done = done
        self.wire_bytes = wire_bytes
        self.span = None
        self.failed = False
