"""Fault injection for the DIMM-Link interconnect.

The subsystem has three parts:

* :mod:`repro.faults.schedule` — declarative fault descriptions
  (:class:`FaultSchedule` over :class:`LinkDown`),
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which arms the
  scheduled faults on a built system's DL bridge,
* :mod:`repro.faults.watchdog` — :class:`LinkWatchdog`, the ACK-timeout
  dead-link detector that flips failed links in the routing tables.

Degraded operation itself lives in the interconnect and IDC layers: the
packet network retries with bounded exponential backoff and raises
:class:`~repro.errors.LinkFailure` on exhaustion, which the DIMM-Link IDC
catches and escalates to host CPU-forwarding (the paper's own hybrid-
routing fallback, Sec. III-C).
"""

from repro.faults.schedule import FaultSchedule, LinkDown
from repro.faults.injector import FaultInjector
from repro.faults.watchdog import LinkWatchdog

__all__ = [
    "FaultInjector",
    "FaultSchedule",
    "LinkDown",
    "LinkWatchdog",
]
