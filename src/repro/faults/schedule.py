"""Declarative fault schedules.

A :class:`FaultSchedule` is an ordered list of fault descriptions, each
pinned to an absolute simulation time.  Schedules are plain data: they can
be validated against a config and installed onto any built
:class:`~repro.nmp.system.NMPSystem` via :meth:`FaultSchedule.install`
(which arms a :class:`~repro.faults.injector.FaultInjector`).

The one fault kind is :class:`LinkDown`: a SerDes link between two
adjacent DIMMs of a DL group dies permanently at ``time_ps``.  Faults name
DIMMs by their global DIMM id; the injector maps them to group-local
bridge positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from repro.errors import FaultError


@dataclass(frozen=True)
class LinkDown:
    """Permanent failure of the link between two DIMMs at ``time_ps``."""

    time_ps: int
    dimm_a: int
    dimm_b: int

    def validate(self) -> None:
        """Self-check raising :class:`FaultError` on nonsense."""
        if self.time_ps < 0:
            raise FaultError(f"{self!r}: fault time must be non-negative")
        if self.dimm_a == self.dimm_b:
            raise FaultError(f"{self!r}: a link needs two distinct DIMMs")


class FaultSchedule:
    """An immutable, time-sorted collection of faults."""

    def __init__(self, faults: Sequence[LinkDown] = ()) -> None:
        for fault in faults:
            if not isinstance(fault, LinkDown):
                raise FaultError(f"{fault!r} is not a LinkDown")
            fault.validate()
        self._faults: Tuple[LinkDown, ...] = tuple(
            sorted(faults, key=lambda f: f.time_ps)
        )

    @property
    def faults(self) -> Tuple[LinkDown, ...]:
        """The scheduled faults in time order."""
        return self._faults

    def __len__(self) -> int:
        return len(self._faults)

    def __iter__(self) -> Iterator[LinkDown]:
        return iter(self._faults)

    def __bool__(self) -> bool:
        return bool(self._faults)

    def install(self, system) -> "object | None":
        """Arm this schedule on a built NMP system.

        Only DIMM-Link systems have a DL bridge to break; for mechanisms
        without one (CPU-forwarding, AIM, ABC-DIMM) this is a no-op
        returning None — those media are outside the DL fault model.
        """
        from repro.faults.injector import FaultInjector

        bridge = getattr(system.idc, "bridge", None)
        if bridge is None or not self._faults:
            return None
        return FaultInjector(system.sim, bridge, self, system.stats)

    def __repr__(self) -> str:
        return f"FaultSchedule({len(self._faults)} faults)"
