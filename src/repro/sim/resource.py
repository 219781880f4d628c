"""Shared-medium resource models.

Every physical medium in the modelled system — a memory-channel bus, AIM's
dedicated bus, each DIMM-Link SerDes link — is a :class:`BandwidthResource`:
transfers are serialised in arrival order, each occupying the medium for
``size / bandwidth``, and the resource records its total busy time so
occupancy statistics (Fig. 15 of the paper) fall out for free.

:class:`SlotResource` models a bounded pool of concurrency slots (e.g. an
NMP core's outstanding-request window) with FIFO wakeup.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.errors import SimulationError
from repro.sim.engine import SimEvent, Simulator
from repro.sim.time import transfer_ps


class BandwidthResource:
    """A serialising medium with finite bandwidth and a fixed latency.

    ``transfer(nbytes)`` reserves the medium for the transfer's duration
    starting no earlier than now and no earlier than the end of the previous
    transfer, then fires its completion event after an additional
    propagation ``latency``.  Busy time (bandwidth occupancy, excluding
    latency) is accumulated in :attr:`busy_ps`.
    """

    def __init__(
        self,
        sim: Simulator,
        bytes_per_ns: float,
        latency_ps: int = 0,
        name: str = "medium",
    ) -> None:
        if bytes_per_ns <= 0:
            raise SimulationError(f"{name}: bandwidth must be positive")
        if latency_ps < 0:
            raise SimulationError(f"{name}: latency must be non-negative")
        self.sim = sim
        self.name = name
        self.bytes_per_ns = bytes_per_ns
        self.latency_ps = latency_ps
        self.busy_ps = 0
        self.bytes_moved = 0
        self.transfers = 0
        self._free_at = 0
        self._background = 0.0
        # fixed event labels: the transfer/occupy fast paths must not
        # rebuild them per call
        self._n_transfer = f"{name}.transfer"
        self._n_occupy = f"{name}.occupy"

    def set_background_load(self, fraction: float) -> None:
        """Reserve a constant fraction of the medium for background traffic.

        Used for periodic host polling (Sec. IV-A): polls occupy the bus
        whether or not requests exist, so foreground transfers see reduced
        effective bandwidth and :meth:`occupancy` includes the fraction.
        """
        if not 0.0 <= fraction < 1.0:
            raise SimulationError(
                f"{self.name}: background load {fraction} outside [0, 1)"
            )
        # restore nominal bandwidth before applying the new fraction
        nominal = self.bytes_per_ns / (1.0 - self._background)
        self._background = fraction
        self.bytes_per_ns = nominal * (1.0 - fraction)

    def occupancy(self, horizon_ps: Optional[int] = None) -> float:
        """Fraction of time the medium was busy over ``horizon_ps`` (or now).

        Includes any configured background load.
        """
        horizon = horizon_ps if horizon_ps is not None else self.sim.now
        if horizon <= 0:
            return min(1.0, self._background)
        return min(1.0, self._background + self.busy_ps / horizon)

    def transfer(self, nbytes: int, extra_ps: int = 0) -> SimEvent:
        """Reserve the medium for ``nbytes``; returns the completion event.

        ``extra_ps`` adds per-transfer fixed overhead (e.g. protocol
        processing) that occupies the medium along with the payload.
        """
        if nbytes < 0:
            raise SimulationError(f"{self.name}: negative transfer size {nbytes}")
        start = max(self.sim.now, self._free_at)
        duration = transfer_ps(nbytes, self.bytes_per_ns) + extra_ps
        end = start + duration
        self._free_at = end
        self.busy_ps += duration
        self.bytes_moved += nbytes
        self.transfers += 1
        event = SimEvent(self.sim, self._n_transfer)
        self.sim.at(end + self.latency_ps, event.succeed, nbytes)
        return event

    def occupy(self, duration_ps: int) -> SimEvent:
        """Reserve the medium for a fixed duration (no payload bytes)."""
        if duration_ps < 0:
            raise SimulationError(f"{self.name}: negative occupy {duration_ps}")
        start = max(self.sim.now, self._free_at)
        end = start + duration_ps
        self._free_at = end
        self.busy_ps += duration_ps
        self.transfers += 1
        event = SimEvent(self.sim, self._n_occupy)
        self.sim.at(end, event.succeed, None)
        return event


class SlotResource:
    """A counted pool of slots with FIFO blocking acquire.

    Used for bounded concurrency such as an NMP core's MSHR-like
    outstanding-request window or a router's input-buffer credits.
    """

    def __init__(self, sim: Simulator, slots: int, name: str = "slots") -> None:
        if slots <= 0:
            raise SimulationError(f"{name}: slot count must be positive")
        self.sim = sim
        self.name = name
        self.capacity = slots
        self._available = slots
        self._waiters: Deque[SimEvent] = deque()
        self.peak_in_use = 0
        self._n_acquire = f"{name}.acquire"
        #: what every uncontended acquire returns: one already-fired grant
        #: shared by all of them (a waiter only reads a fired event)
        self._granted = SimEvent(sim, name=self._n_acquire).succeed(None)

    @property
    def in_use(self) -> int:
        """Number of slots currently held."""
        return self.capacity - self._available

    def acquire(self) -> SimEvent:
        """Returns an event that fires once a slot has been granted."""
        if self._available > 0:
            self._available -= 1
            in_use = self.capacity - self._available
            if in_use > self.peak_in_use:
                self.peak_in_use = in_use
            return self._granted
        event = SimEvent(self.sim, name=self._n_acquire)
        self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return a slot; wakes the oldest waiter if any."""
        if self._waiters:
            self._waiters.popleft().succeed(None)
        else:
            if self._available >= self.capacity:
                raise SimulationError(f"{self.name}: release without acquire")
            self._available += 1
