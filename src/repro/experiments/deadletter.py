"""Persistent dead-letter store for quarantined sweep specs.

The :class:`~repro.experiments.runner.SweepRunner` quarantines specs
that exhaust their retry budget into an in-memory dead-letter list; this
module persists that list next to the results cache so a *rerun* of the
sweep skips known-bad points instead of burning their full
retry-and-timeout budget again.  ``--retry-dead-letter`` overrides the
skip: quarantined specs are re-attempted and, on success, removed from
the store.

One JSON file (``dead_letters.json``) holds every record, keyed by the
spec's cache key — the same content hash the results cache uses, so a
code-version bump naturally invalidates stale quarantines along with
stale results.  Writes are atomic and durable (temp file + fsync +
rename via :func:`repro.fsio.atomic_write_text`): a crash at any point
mid-write — including between opening the temp file and the rename —
leaves the previous store intact, never a truncated one.  A corrupt or
unreadable store is treated as empty, mirroring the results cache's
crash-safety posture.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.fsio import atomic_write_text

FILENAME = "dead_letters.json"

#: current on-disk schema; unknown versions are ignored (treated empty).
STORE_VERSION = 1


class DeadLetterStore:
    """Maps cache keys of quarantined specs to their failure records."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / FILENAME
        self._records: Dict[str, Dict[str, object]] = self._load()

    def _load(self) -> Dict[str, Dict[str, object]]:
        try:
            payload = json.loads(self.path.read_text())
            if payload.get("version") != STORE_VERSION:
                return {}
            records = payload["records"]
            if not isinstance(records, dict):
                return {}
            return {
                key: value
                for key, value in records.items()
                if isinstance(value, dict)
            }
        except (OSError, ValueError, KeyError, TypeError):
            return {}

    def _save(self) -> None:
        payload = {"version": STORE_VERSION, "records": self._records}
        atomic_write_text(self.path, json.dumps(payload, indent=2, sort_keys=True))

    def refresh(self) -> None:
        """Re-read the store from disk (pick up other processes' writes).

        Mutations refresh implicitly so processes sharing a cache
        directory that quarantine *different* specs merge instead of
        clobbering each other.  Two processes quarantining the *same*
        spec at the same instant can still lose one write — harmless, as
        a lost store entry only costs one redundant retry on a later
        rerun.
        """
        self._records = self._load()

    def known(self, key: str) -> Optional[Dict[str, object]]:
        """The persisted record for ``key``, or ``None``."""
        return self._records.get(key)

    def record(
        self,
        key: str,
        spec: Dict[str, object],
        attempts: int,
        error: str,
        diagnosis: str = "",
    ) -> None:
        """Persist (or update) one quarantined spec."""
        self.refresh()
        self._records[key] = {
            "spec": spec,
            "attempts": attempts,
            "error": error,
            "diagnosis": diagnosis,
        }
        self._save()

    def discard(self, key: str) -> bool:
        """Drop ``key`` from the store (e.g. it succeeded on retry)."""
        self.refresh()
        if key not in self._records:
            return False
        del self._records[key]
        self._save()
        return True

    def keys(self) -> List[str]:
        """All quarantined cache keys."""
        return sorted(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __repr__(self) -> str:
        return f"DeadLetterStore({str(self.path)!r}, {len(self)} records)"
