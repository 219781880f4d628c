"""Generator processes on the real :class:`~repro.sim.engine.Simulator`.

The model runs only callback chains.  The referee tests pin each chain
against the generator process it replaced, kept verbatim; this is the
small runtime those generators run on.  A process is a generator that
yields

* an ``int`` — resume after that many picoseconds (``Simulator.schedule``);
* a :class:`~repro.sim.engine.SimEvent` — resume in the lane slot after
  it fires (``SimEvent.then``), with its value, or with its exception
  thrown in if it failed;
* a :class:`Process` — the same, on the process's ``done`` event;
* an :class:`AllOf` — resume with every child's value in one lane slot
  after the last child succeeds.  Each failing child takes a lane slot
  of its own; the first of them throws its exception in, and the rest
  are dropped.

A process starts in the next lane slot.  When its generator raises an
:class:`Exception`, ``done`` fails if someone waits on it; otherwise the
exception (and any other ``BaseException``) escapes ``Simulator.run``.
"""

from __future__ import annotations

from typing import Any, Iterable, List

from repro.errors import SimulationError
from repro.sim.engine import SimEvent, Simulator


class AllOf:
    """Wait for every child event or process."""

    __slots__ = ("children",)

    def __init__(self, children: Iterable[Any]) -> None:
        self.children = list(children)


class Process:
    """A running generator; :attr:`done` fires with its return value."""

    def __init__(self, sim: Simulator, gen, name: str = "") -> None:
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self.done = SimEvent(sim, name=f"{self.name}.done")
        self.finished = False
        self._gen = gen
        sim.schedule(0, self._advance, None)

    @property
    def value(self) -> Any:
        """The generator's return value (None until it returns)."""
        return self.done.value

    def _advance(self, value: Any, throw: bool = False) -> None:
        try:
            target = self._gen.throw(value) if throw else self._gen.send(value)
        except StopIteration as stop:
            self.finished = True
            self.done.succeed(stop.value)
            return
        except BaseException as exc:
            self.finished = True
            if self.done._callbacks and isinstance(exc, Exception):
                self.done.fail(exc)
                return
            raise
        if isinstance(target, Process):
            target = target.done
        if type(target) is int:
            self.sim.schedule(target, self._advance, None)
        elif isinstance(target, SimEvent):
            target.then(self._resume, target)
        elif isinstance(target, AllOf):
            self._wait_all(target.children)
        else:
            raise SimulationError(f"process {self.name!r} yielded unsupported {target!r}")

    def _resume(self, event: SimEvent) -> None:
        self._advance(event.value, event.failed)

    def _wait_all(self, children: List[Any]) -> None:
        sim = self.sim
        results: List[Any] = [None] * len(children)
        remaining = [len(children)]
        delivered = [False]

        def deliver(outcome) -> None:
            if not delivered[0]:
                delivered[0] = True
                self._advance(*outcome)

        def on_done(index: int, event: SimEvent) -> None:
            if event.failed:
                sim.schedule(0, deliver, (event.value, True))
                return
            results[index] = event.value
            remaining[0] -= 1
            if not remaining[0]:
                sim.schedule(0, deliver, (results, False))

        if not children:
            sim.schedule(0, deliver, (results, False))
        for index, child in enumerate(children):
            event = child.done if isinstance(child, Process) else child
            if not isinstance(event, SimEvent):
                raise SimulationError(f"AllOf child {child!r} is not waitable")
            event.add_callback(lambda ev, i=index: on_done(i, ev))
