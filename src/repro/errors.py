"""Exception hierarchy for the :mod:`repro` package.

All errors raised intentionally by this library derive from
:class:`ReproError`, so callers can catch one type at an API boundary.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration was supplied."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an invalid state."""


class DeadlockError(SimulationError):
    """The event queue drained while threads were still blocked.

    Structured so the sweep harness can report *where* a run hung:
    ``blocked`` holds ``(thread_name, waiting_on)`` pairs describing
    every live thread and the delay, event or request drain it waits
    on, and ``time_ps`` is the simulation time the queue drained at.
    """

    def __init__(self, message: str, blocked=None, time_ps: int = 0) -> None:
        super().__init__(message)
        self.blocked = list(blocked or [])
        self.time_ps = time_ps


class SimStallError(SimulationError):
    """The simulation exceeded its wall-clock budget while still running.

    Raised by ``Simulator.run`` when the sweep harness's alarm
    (:class:`SpecTimeoutError`, its ``__cause__``) fires inside the event
    loop; ``snapshot`` is a diagnostic dict (simulated time, event count,
    queue depth, blocked threads, the callback it interrupted) captured
    at that moment.
    """

    def __init__(self, message: str, snapshot=None) -> None:
        super().__init__(message)
        self.snapshot = dict(snapshot or {})


class SpecTimeoutError(ReproError):
    """A spec exceeded its wall-clock budget.

    Raised by the SIGALRM handler the sweep harness arms for each spec
    attempt.  A hang inside the event loop surfaces as
    :class:`SimStallError` instead, naming the blocked threads; this one
    reports a hang anywhere else (workload generation, placement
    solving, serialization).
    """


class SweepExecutionError(ReproError):
    """One or more specs of a sweep exhausted their retry budget.

    Raised *after* the sweep finishes: every healthy spec has completed
    and been checkpointed to the results cache by the time this
    surfaces.  ``dead_letters`` lists the quarantined specs with their
    attempt counts and final diagnoses.
    """

    def __init__(self, message: str, dead_letters=None) -> None:
        super().__init__(message)
        self.dead_letters = list(dead_letters or [])


class ProtocolError(ReproError):
    """A DIMM-Link packet violated the protocol (bad field, CRC, size)."""


class RoutingError(ReproError):
    """A packet could not be routed to its destination."""


class MappingError(ReproError):
    """Thread placement could not be derived (e.g. infeasible flow)."""


class WorkloadError(ReproError):
    """A workload was asked to run with invalid inputs."""


class FaultError(ReproError):
    """An injected-fault description was invalid or could not be applied."""


class LinkFailure(FaultError):
    """A DL link could not deliver a packet (dead link or retry exhaustion).

    Raised by the interconnect when the bounded retry/backoff loop gives
    up on a hop, or when no live route exists; the DIMM-Link IDC layer
    catches it and fails over to host CPU-forwarding.
    """
