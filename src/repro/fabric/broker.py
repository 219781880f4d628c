"""The work broker: a durable spec queue with no coordinator process.

A broker is just a directory on a filesystem every worker can reach::

    <root>/broker.json     queue policy (retry budget, lease TTL, backoff)
    <root>/journal/        one append-only JSONL journal per spec
    <root>/leases/         TTL'd lease files (who is executing what)
    <root>/cache/          shared ResultsCache + farm-wide dead letters
                           (default; any shared cache dir works)

All coordination happens through filesystem atomics (see
:mod:`repro.fabric.journal` and :mod:`repro.fabric.lease`); every
operation here is safe to crash at any point and safe to race from any
number of processes or hosts:

* :meth:`WorkBroker.submit` enqueues a spec grid exactly once,
  deduplicated against finished cache entries, in-flight journals, and
  known-dead quarantine.
* :meth:`WorkBroker.claim` hands one runnable spec to a worker: it takes
  the lease, charges an attempt, and journals ``leased``.  Expired
  leases (crashed workers) are reclaimed here — the spec loops back to
  ``pending`` with capped exponential backoff, or to ``dead`` (and the
  farm-wide :class:`~repro.experiments.deadletter.DeadLetterStore`) once
  its attempt budget is spent.
* :meth:`WorkBroker.complete` / :meth:`WorkBroker.fail` journal the
  outcome and release the lease — in that order, so a crash in between
  leaves an orphaned lease that merely expires, never a lost outcome.

Queue policy lives in ``broker.json``, written by whoever touches the
broker first and read by everyone after, so submitters and workers on
different hosts can't disagree about retry budgets or TTLs.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.experiments.deadletter import DeadLetterStore
from repro.fabric import faultpoints
from repro.fabric.journal import SpecJournal, SpecRecord
from repro.fabric.lease import DEFAULT_TTL_S, LeaseManager
from repro.fsio import atomic_write_text
from repro.results_cache import ResultsCache

CONFIG_FILENAME = "broker.json"

#: first retry delay of a failed/reclaimed spec; doubles per attempt.
DEFAULT_BACKOFF_S = 0.25
DEFAULT_BACKOFF_CAP_S = 5.0

#: extra attempts granted to a failing spec before quarantine.
DEFAULT_RETRIES = 2


@dataclass(frozen=True)
class BrokerConfig:
    """Farm-wide queue policy, persisted in ``broker.json``."""

    retries: int = DEFAULT_RETRIES
    lease_ttl_s: float = DEFAULT_TTL_S
    backoff_s: float = DEFAULT_BACKOFF_S
    backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S

    def backoff(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (capped exponential)."""
        return min(self.backoff_cap_s, self.backoff_s * (2 ** max(0, attempt - 1)))


@dataclass
class SubmitReport:
    """What one :meth:`WorkBroker.submit` call did with its grid."""

    #: distinct specs in the submitted grid.
    total: int = 0
    #: newly journaled as pending.
    enqueued: int = 0
    #: already finished: a results-cache entry existed, journaled done.
    cached: int = 0
    #: already journaled done by an earlier run.
    done: int = 0
    #: already pending/leased (another submitter or a live worker).
    inflight: int = 0
    #: skipped: quarantined dead (resubmit with ``retry_dead`` to force).
    dead: int = 0
    #: re-enqueued despite quarantine (``retry_dead=True``).
    revived: int = 0
    #: cache keys of the grid, in submit order.
    keys: List[str] = dataclasses.field(default_factory=list)

    def summary(self) -> str:
        return (
            f"{self.total} spec(s): {self.enqueued} enqueued, "
            f"{self.cached + self.done} already done, "
            f"{self.inflight} in flight, {self.dead} dead"
            + (f" ({self.revived} revived)" if self.revived else "")
        )


class WorkBroker:
    """File-based spec queue shared by submitters and workers."""

    def __init__(
        self,
        root: Union[str, Path],
        config: Optional[BrokerConfig] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        durable: bool = True,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.config = self._load_or_init_config(config, durable)
        self.journal = SpecJournal(self.root / "journal", durable=durable)
        self.leases = LeaseManager(
            self.root / "leases", ttl_s=self.config.lease_ttl_s, durable=durable
        )
        cache_dir = Path(cache_dir) if cache_dir is not None else self.root / "cache"
        #: shared, idempotent result store — the exactly-once half of the
        #: fabric's at-least-once execution.
        self.cache = ResultsCache(cache_dir)
        #: farm-wide quarantine, next to the shared cache.
        self.dead_letters = DeadLetterStore(cache_dir)

    def _load_or_init_config(
        self, config: Optional[BrokerConfig], durable: bool
    ) -> BrokerConfig:
        """The persisted policy wins; first toucher writes it."""
        path = self.root / CONFIG_FILENAME
        try:
            payload = json.loads(path.read_text())
            known = {f.name for f in dataclasses.fields(BrokerConfig)}
            return BrokerConfig(
                **{k: v for k, v in payload.items() if k in known}
            )
        except (OSError, ValueError, TypeError):
            pass
        config = config or BrokerConfig()
        atomic_write_text(
            path,
            json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True),
            durable=durable,
        )
        return config

    # -- submit ----------------------------------------------------------------------

    def submit(self, specs: Sequence, retry_dead: bool = False) -> SubmitReport:
        """Enqueue a grid, deduplicated against everything already known.

        ``specs`` are :class:`~repro.experiments.runner.RunSpec`-shaped
        objects (``cache_key()`` + ``to_json_dict()``).  Safe to call
        concurrently from many submitters: the journal's exclusive
        enqueue makes every spec land exactly once, and duplicate keys
        within the grid collapse.
        """
        report = SubmitReport()
        self.dead_letters.refresh()  # see quarantines from other hosts
        records = self.journal.replay()
        seq = len(records)
        seen = set()
        for spec in specs:
            key = spec.cache_key()
            if key in seen:
                continue
            seen.add(key)
            report.total += 1
            report.keys.append(key)
            record = records.get(key) or self.journal.read(key)
            if record is not None:
                if record.state == "done":
                    report.done += 1
                elif record.state == "dead":
                    if retry_dead:
                        self.journal.append(
                            key, "pending", attempts=0, not_before=0.0,
                            error="revived by resubmit (retry_dead)",
                        )
                        report.revived += 1
                        report.enqueued += 1
                    else:
                        report.dead += 1
                else:
                    report.inflight += 1
                continue
            if not retry_dead and key in self.dead_letters:
                # quarantined by a pre-fabric run: honor it without a journal
                report.dead += 1
                continue
            spec_dict = spec.to_json_dict()
            if self.cache.get(key) is not None:
                # already simulated: journal it straight to done so
                # progress counts and drained() see the whole grid
                if self.journal.enqueue(key, spec_dict, seq=seq):
                    self.journal.append(key, "done", worker="<cache>")
                report.cached += 1
            elif self.journal.enqueue(key, spec_dict, seq=seq):
                report.enqueued += 1
            else:
                report.inflight += 1  # lost the enqueue race: someone else did
            seq += 1
        return report

    # -- worker protocol -------------------------------------------------------------

    def claim(self, worker: str) -> Optional[SpecRecord]:
        """Take the lease on one runnable spec and journal ``leased``.

        Scans the queue in submit order.  Expired leases encountered on
        the way are reclaimed (back to ``pending`` with backoff, or
        ``dead`` once out of budget) — every claimer is also the
        janitor, so crashed workers need no supervisor to clean up
        after them.  Returns ``None`` when nothing is runnable right
        now (empty queue, everything leased, or retries parked on
        backoff).
        """
        now = time.time()
        records = sorted(
            (r for r in self.journal.replay().values() if r.live),
            key=lambda r: (r.seq, r.key),
        )
        for record in records:
            if record.state == "leased":
                self._reclaim_if_expired(record, worker, now)
                continue
            if record.not_before > now:
                continue
            if not self.leases.try_claim(record.key, worker):
                continue
            faultpoints.trip("broker.claim.after_lease")
            record.attempts += 1
            record.state = "leased"
            record.worker = worker
            self.journal.append(
                record.key, "leased", attempts=record.attempts, worker=worker
            )
            return record
        return None

    def _reclaim_if_expired(self, record: SpecRecord, worker: str, now: float) -> None:
        """Recover a ``leased`` spec whose worker stopped heartbeating."""
        held = self.leases.holder(record.key)
        if held is not None and now <= held[1]:
            return  # live lease: the owner is still heartbeating
        # lease expired (or its file is gone entirely — e.g. a crash
        # between outcome-append and release on a path that then lost
        # the outcome line to a torn write): steal it so exactly one
        # janitor journals the recovery transition
        if not self.leases.try_claim(record.key, worker):
            return
        faultpoints.trip("broker.claim.after_lease")
        try:
            error = (
                f"lease expired: worker {record.worker or '<unknown>'!r} "
                "stopped heartbeating (crash, SIGKILL, or partition)"
            )
            if record.attempts > self.config.retries:
                self._quarantine(record, error)
            else:
                self.journal.append(
                    record.key,
                    "pending",
                    attempts=record.attempts,
                    not_before=now + self.config.backoff(record.attempts),
                    error=error,
                )
        finally:
            self.leases.release(record.key, worker)

    def complete(self, key: str, worker: str) -> bool:
        """Journal ``done`` and release the lease.

        Idempotent: completing an already-done spec (double-executed after a
        lease was lost and reclaimed) is a no-op — the result itself was
        already deduplicated by the content-keyed cache.
        """
        record = self.journal.read(key)
        if record is None:
            return False
        if record.state != "done":
            faultpoints.trip("broker.complete.before_done")
            self.journal.append(key, "done", worker=worker)
        self.dead_letters.discard(key)
        self.leases.release(key, worker)
        return True

    def fail(self, key: str, worker: str, error: str, diagnosis: str = "") -> bool:
        """Journal a failed attempt: retry with backoff, or quarantine.

        The attempt was charged at claim time, so the budget check is
        simply ``attempts > retries``.  The transition is journaled
        *before* the lease is released — a crash in between leaves an
        orphaned lease that expires harmlessly.
        """
        record = self.journal.read(key)
        if record is None or record.state in ("done", "dead"):
            self.leases.release(key, worker)
            return False
        faultpoints.trip("broker.fail.before_transition")
        if record.attempts > self.config.retries:
            self._quarantine(record, error, diagnosis)
        else:
            self.journal.append(
                key,
                "pending",
                attempts=record.attempts,
                not_before=time.time() + self.config.backoff(record.attempts),
                error=error,
                diagnosis=diagnosis,
            )
        self.leases.release(key, worker)
        return True

    def relinquish(self, key: str, worker: str, reason: str = "worker drained") -> bool:
        """Hand a leased spec back *gracefully* (worker drain, not death).

        Journals the spec straight back to ``pending`` with no backoff
        stamp and the attempt **uncharged** — a deliberately drained
        worker is not a failing spec, so the retry budget is untouched
        and any other worker can claim it immediately instead of
        waiting out the lease TTL.  The journal transition lands before
        the lease release (crash in between = an orphaned lease that
        merely expires).
        """
        record = self.journal.read(key)
        if record is None:
            return False
        if record.state != "leased" or record.worker != worker:
            # completed/reclaimed already: nothing to hand back
            self.leases.release(key, worker)
            return False
        self.journal.append(
            key,
            "pending",
            attempts=max(0, record.attempts - 1),
            not_before=0.0,
            worker="",
            error=reason,
        )
        self.leases.release(key, worker)
        return True

    def _quarantine(
        self, record: SpecRecord, error: str, diagnosis: str = ""
    ) -> None:
        """``dead`` transition + farm-wide dead-letter record."""
        self.journal.append(
            record.key,
            "dead",
            attempts=record.attempts,
            error=error,
            diagnosis=diagnosis,
        )
        self.dead_letters.record(
            record.key, record.spec, record.attempts, error, diagnosis
        )

    def resubmit(self, key: str) -> bool:
        """Force a journaled spec back to ``pending`` (fresh budget).

        Recovery hook for e.g. a ``done`` spec whose cache entry was
        later quarantined as corrupt: the sweep re-runs it instead of
        wedging on a result that no longer exists.
        """
        record = self.journal.read(key)
        if record is None:
            return False
        self.journal.append(
            key, "pending", attempts=0, not_before=0.0, error="resubmitted"
        )
        return True

    # -- progress --------------------------------------------------------------------

    def records(self) -> Dict[str, SpecRecord]:
        """The folded queue state (key -> record)."""
        return self.journal.replay()

    def counts(self, keys: Optional[Iterable[str]] = None) -> Dict[str, int]:
        """``{done, leased, pending, dead, total}``, optionally restricted
        to one submission's ``keys`` (unknown keys count as pending)."""
        records = self.journal.replay()
        tally = {"pending": 0, "leased": 0, "done": 0, "dead": 0, "total": 0}
        if keys is None:
            views: Iterable[Optional[SpecRecord]] = records.values()
        else:
            views = (records.get(key) for key in keys)
        for record in views:
            tally["total"] += 1
            tally[record.state if record is not None else "pending"] += 1
        return tally

    def drained(self, keys: Optional[Iterable[str]] = None) -> bool:
        """No live (pending/leased) work left (in ``keys``, or anywhere)."""
        tally = self.counts(keys)
        return tally["pending"] == 0 and tally["leased"] == 0

    def __repr__(self) -> str:
        tally = self.counts()
        return (
            f"WorkBroker({str(self.root)!r}, "
            + ", ".join(f"{k}={v}" for k, v in sorted(tally.items()))
            + ")"
        )
