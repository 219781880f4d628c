"""Named crash-injection points for the fabric's chaos tests.

Every durable transition in the journal/lease protocol passes through a
named :func:`trip` call.  Normally these are no-ops; the chaos suite
arms them — in-process via :func:`arm`, or across process boundaries via
the ``DIMMLINK_FABRIC_FAULTS`` environment variable — to simulate a
crash at exactly that instruction and then assert the protocol recovers.

Two failure modes per point:

* ``raise`` (default) — :class:`InjectedFaultError` is raised, once (the
  point disarms itself), modelling a worker that dies mid-operation and
  is restarted.
* ``exit`` — the process dies immediately with ``os._exit`` (no cleanup,
  no ``finally`` blocks), modelling SIGKILL/power loss.  Selected by
  suffixing the point name with ``:exit`` in the environment variable.

``DIMMLINK_FABRIC_FAULTS`` is a comma-separated list, e.g.::

    DIMMLINK_FABRIC_FAULTS=journal.append.before_fsync:exit
"""

from __future__ import annotations

import os
from typing import Dict, Set

from repro.errors import ReproError

ENV_VAR = "DIMMLINK_FABRIC_FAULTS"

#: process exit status of an ``:exit``-mode fault (distinct from real codes).
EXIT_STATUS = 32

#: filesystem-protocol points (journal/lease/broker durable transitions).
FS_POINTS = (
    "journal.enqueue.before_link",
    "journal.enqueue.after_link",
    "journal.append.partial",
    "journal.append.before_write",
    "journal.append.before_fsync",
    "journal.append.after_fsync",
    "lease.claim.after_create",
    "lease.steal.after_rename",
    "lease.renew.before_write",
    "lease.release.before_unlink",
    "broker.claim.after_lease",
    "broker.complete.before_done",
    "broker.fail.before_transition",
    "worker.publish.after_cache_put",
)

class InjectedFaultError(ReproError):
    """A chaos fault point fired (simulated worker crash)."""


def _from_env() -> Dict[str, str]:
    armed: Dict[str, str] = {}
    for token in os.environ.get(ENV_VAR, "").split(","):
        token = token.strip()
        if not token:
            continue
        name, _, mode = token.partition(":")
        armed[name] = mode or "raise"
    return armed


#: armed point name -> mode ("raise" | "exit"); seeded from the env so
#: worker subprocesses inherit their chaos schedule.
_armed: Dict[str, str] = _from_env()

#: raise-mode points that already fired (one-shot semantics).
_fired: Set[str] = set()


def arm(name: str, mode: str = "raise") -> None:
    """Arm one point; ``mode`` is ``"raise"`` or ``"exit"``."""
    _armed[name] = mode
    _fired.discard(name)


def disarm(name: str) -> None:
    _armed.pop(name, None)
    _fired.discard(name)


def reset() -> None:
    """Disarm everything (test teardown)."""
    _armed.clear()
    _fired.clear()


def armed(name: str) -> bool:
    """Is ``name`` armed and still pending (not yet fired)?"""
    return name in _armed and name not in _fired


def trip(name: str) -> None:
    """Fire ``name`` if armed: raise once, or hard-exit the process."""
    if not armed(name):
        return
    if _armed[name] == "exit":
        os._exit(EXIT_STATUS)
    _fired.add(name)
    raise InjectedFaultError(f"injected fault at {name}")
