"""TTL'd lease files: who may execute a spec, and for how long.

One lease file per claimed spec (under the broker's ``leases/``
directory) holds the worker id and an expiry timestamp.  The protocol
is built from two filesystem atomics that work on any shared POSIX
filesystem — no locks, no sockets, no coordinator:

* **Claim** = exclusive create (:func:`repro.fsio.create_exclusive_text`).
  Two workers racing on the same spec get exactly one winner.
* **Steal** (reclaiming an *expired* lease) = exclusive create of a
  steal-lock file, an expiry re-check under the lock, then atomic
  rename of the stale file to a per-worker name.  The lock serializes
  thieves so a slow one can never rename away a lease that was already
  stolen and *re-claimed live* by a faster racer; the winner then
  re-claims via exclusive create.  A lock orphaned by a dead thief goes
  stale after one TTL and is swept by the next.

**Heartbeats** renew the lease by atomically replacing the file with a
later expiry.  A worker that dies (crash, SIGKILL, partition) simply
stops renewing; after the TTL its lease is stealable and the spec is
retried elsewhere.  Renewal can *lose*: if the lease expired and was
stolen, :meth:`LeaseManager.renew` returns ``False`` and the original
worker knows it no longer owns the spec.  Duplicate execution in that
window is safe — results publish idempotently through the content-keyed
cache.

Clock caveat: expiry compares the *reader's* clock against a timestamp
written by the *holder*, so multi-host farms need clocks synchronized to
well under the TTL (tens of seconds by default; NTP is plenty).  A lease
file too new/torn to parse falls back to its mtime + TTL.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.fabric import faultpoints
from repro.fsio import atomic_write_text, create_exclusive_text

#: default seconds a lease lives between heartbeats.
DEFAULT_TTL_S = 30.0


class LeaseManager:
    """Claims, renews, steals, and releases per-spec lease files."""

    def __init__(
        self,
        directory: Union[str, Path],
        ttl_s: float = DEFAULT_TTL_S,
        durable: bool = True,
    ) -> None:
        if ttl_s <= 0:
            raise ValueError(f"lease ttl must be positive, got {ttl_s}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.ttl_s = ttl_s
        self.durable = durable

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.lease"

    def _payload(
        self, key: str, worker: str, now: float, ttl_s: Optional[float] = None
    ) -> str:
        return json.dumps(
            {
                "key": key,
                "worker": worker,
                "acquired_at": now,
                "expires_at": now + (ttl_s if ttl_s is not None else self.ttl_s),
            },
            sort_keys=True,
        )

    # -- inspection ------------------------------------------------------------------

    def holder(self, key: str) -> Optional[Tuple[str, float]]:
        """``(worker, expires_at)`` of the current lease, or ``None``.

        A lease file that exists but cannot be parsed (torn create, or a
        writer that died between create and write) is attributed to an
        unknown holder expiring at ``mtime + ttl`` — it becomes stealable
        one TTL after it appeared, like any other abandoned lease.
        """
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
            return str(payload["worker"]), float(payload["expires_at"])
        except OSError:
            return None
        except (ValueError, KeyError, TypeError):
            try:
                return "<unreadable>", path.stat().st_mtime + self.ttl_s
            except OSError:
                return None  # vanished between read and stat

    def expired(self, key: str, now: Optional[float] = None) -> bool:
        """Is there a lease on ``key`` whose TTL has lapsed?"""
        held = self.holder(key)
        if held is None:
            return False
        return (now if now is not None else time.time()) > held[1]

    # -- the protocol ----------------------------------------------------------------

    def try_claim(self, key: str, worker: str) -> bool:
        """Claim ``key`` for ``worker``; ``False`` if someone holds it.

        An expired lease is stolen first (serialized through a steal
        lock — one thief at a time), then re-claimed with exclusive
        create.  Losing any race returns ``False``; the caller just
        moves on to other work.
        """
        path = self.path_for(key)
        now = time.time()
        if path.exists():
            held = self.holder(key)
            if held is None:
                pass  # vanished: fall through to the exclusive create
            elif now <= held[1]:
                return False  # live lease
            elif not self._steal(path, key, worker, now):
                return False
        claimed = create_exclusive_text(
            path, self._payload(key, worker, now), durable=self.durable
        )
        if claimed:
            faultpoints.trip("lease.claim.after_create")
        return claimed

    def _steal(self, path: Path, key: str, worker: str, now: float) -> bool:
        """Remove one expired lease; ``True`` if ``worker`` may re-claim.

        The rename that removes the stale file is *not* conditional on
        its content, so it must never race another thief's whole
        steal-and-reclaim cycle: a slow thief that observed the expired
        lease, lost the race, and renamed afterwards would yank the new
        winner's **live** lease.  An exclusive-create lock file
        serializes thieves, and the expiry check is repeated under the
        lock — whatever is at ``path`` by then cannot be replaced by a
        live lease before the rename (creates are excluded while the
        file exists, renames by the lock).  A thief that dies holding
        the lock leaves it behind; like any lease it goes stale after
        one TTL and is swept by the next thief, so the key cannot wedge.
        """
        lock = path.with_name(path.name + ".steal")
        if not create_exclusive_text(lock, worker, durable=False):
            try:
                if now - lock.stat().st_mtime > self.ttl_s:
                    os.unlink(lock)  # orphaned by a dead thief: sweep
            except OSError:
                pass
            return False  # another thief is mid-steal; back off
        held = self.holder(key)
        if held is None or now <= held[1]:
            # stolen-and-reclaimed while we waited: nothing to steal
            # (vanished means the exclusive create may still be tried)
            self._drop(lock)
            return held is None
        stale = path.with_name(path.name + f".stale-{worker}")
        try:
            os.rename(path, stale)
        except OSError:
            self._drop(lock)
            return False  # released under us (ENOENT): let claim retry
        faultpoints.trip("lease.steal.after_rename")
        try:
            os.unlink(stale)
        except OSError:
            pass
        self._drop(lock)
        return True

    @staticmethod
    def _drop(lock: Path) -> None:
        """Best-effort lock removal (a TTL sweep may have beaten us)."""
        try:
            os.unlink(lock)
        except OSError:
            pass

    def renew(
        self, key: str, worker: str, ttl_s: Optional[float] = None
    ) -> bool:
        """Heartbeat: push the expiry out by one TTL.

        Returns ``False`` — without touching the file — when ``worker``
        no longer holds the lease (it expired and was stolen, or was
        released); the worker's result is then published anyway and
        deduplicated by the idempotent cache.

        ``ttl_s`` overrides the manager's TTL for this renewal only.

        Raises ``OSError`` when the renewal write itself fails (ENOSPC,
        EACCES, a yanked mount): the caller must treat that as lease
        loss in progress, not silently assume the heartbeat landed.
        """
        held = self.holder(key)
        if held is None or held[0] != worker:
            return False
        faultpoints.trip("lease.renew.before_write")
        atomic_write_text(
            self.path_for(key),
            self._payload(key, worker, time.time(), ttl_s=ttl_s),
            durable=self.durable,
        )
        return True

    def release(self, key: str, worker: str) -> bool:
        """Drop ``worker``'s lease on ``key`` (after done/dead/failed)."""
        held = self.holder(key)
        if held is None or held[0] != worker:
            return False
        faultpoints.trip("lease.release.before_unlink")
        try:
            os.unlink(self.path_for(key))
        except OSError:
            return False
        return True

    def live_count(self, now: Optional[float] = None) -> int:
        """Number of unexpired leases (farm-activity signal)."""
        now = now if now is not None else time.time()
        count = 0
        for path in self.directory.glob("*.lease"):
            held = self.holder(path.name[: -len(".lease")])
            if held is not None and now <= held[1]:
                count += 1
        return count
