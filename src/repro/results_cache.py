"""Persistent on-disk cache of finished simulation results.

The sweep runner (:mod:`repro.experiments.runner`) memoises every
simulation it executes: a :class:`~repro.experiments.runner.RunSpec`
hashes to a stable content key, and the :class:`ResultsCache` maps that
key to the serialized :class:`~repro.nmp.results.RunResult` on disk.

Soundness rests on three properties, each enforced by tests:

* **Determinism** — the simulator is bit-deterministic, so re-running a
  spec always reproduces the cached result (``tests/test_determinism.py``).
* **Content keying** — the key covers every field of the spec *and* a
  code version (:data:`CODE_VERSION`); bump the version whenever a change
  alters simulation semantics, and every stale entry becomes a miss.
* **Crash safety** — entries are written to a temp file, fsync'd, and
  atomically renamed into place (:func:`repro.fsio.atomic_write_text`),
  so a killed run never leaves a truncated entry that would later be
  served; corrupt entries degrade to misses and are **quarantined** into
  ``<cache_dir>/corrupt/`` so the bad bytes are kept for post-mortem but
  never re-parsed on every lookup.

The atomic same-content overwrite also makes ``put`` idempotent: two
processes sharing a cache directory that publish the same key race to
identical content, so neither can leave a torn or mixed entry.

Layout: one ``<key>.json`` file per entry under the cache directory,
where ``<key>`` is the spec's SHA-256 content hash.  Each file carries
the spec it answers for (debuggability) next to the result payload.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional, Union

from repro.fsio import atomic_write_text
from repro.nmp.results import RunResult

#: bump whenever a change alters simulation semantics (timing models,
#: stat names, workload generation, ...): every existing cache entry
#: then misses and is transparently recomputed.
#: v2: ``link_down_schedule`` kills at least one link per group whenever
#: ``fault_fraction`` is nonzero (previously rounded down to none on
#: tiny topologies).
CODE_VERSION = 2


class ResultsCache:
    """Maps content keys to :class:`RunResult` JSON files on disk."""

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        #: entries served from disk since construction.
        self.hits = 0
        #: lookups that found no (readable) entry.
        self.misses = 0
        #: corrupt entries moved to ``corrupt/`` since construction.
        self.corrupt = 0

    def path_for(self, key: str) -> Path:
        """The entry file a key maps to."""
        return self.cache_dir / f"{key}.json"

    @property
    def corrupt_dir(self) -> Path:
        """Where quarantined (unparsable/mismatched) entries end up."""
        return self.cache_dir / "corrupt"

    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key``, or ``None`` on a miss.

        Any unreadable entry — truncated, not UTF-8, corrupt JSON, or a
        payload that no longer matches the schema — counts as a miss;
        the entry file is moved to ``corrupt/`` (kept for post-mortem,
        never re-parsed on later lookups) and the caller re-simulates.  So is
        any entry whose *stored* ``key`` or ``code_version`` disagrees
        with the key it was looked up under and the current
        :data:`CODE_VERSION`: a hand-renamed, copied, or edited entry
        would otherwise answer for a spec it never simulated.
        """
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1  # plain miss: nothing on disk to blame
            return None
        try:
            payload = json.loads(data.decode("utf-8"))
            if payload["key"] != key or payload["code_version"] != CODE_VERSION:
                raise ValueError("cache entry does not match its filename key")
            result = RunResult.from_json_dict(payload["result"])
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside so it is never parsed again."""
        try:
            self.corrupt_dir.mkdir(exist_ok=True)
            os.replace(path, self.corrupt_dir / path.name)
            self.corrupt += 1
        except OSError:
            pass  # e.g. raced with a concurrent writer replacing the entry

    def put(self, key: str, result: RunResult, spec: Optional[Dict[str, object]] = None) -> Path:
        """Persist a result under ``key`` (atomic fsync'd write-then-rename)."""
        payload = {
            "key": key,
            "code_version": CODE_VERSION,
            "spec": spec,
            "result": result.to_json_dict(),
        }
        return atomic_write_text(
            self.path_for(key), json.dumps(payload, sort_keys=True)
        )

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for entry in self.cache_dir.glob("*.json"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.cache_dir.glob("*.json"))

    def __repr__(self) -> str:
        return (
            f"ResultsCache({str(self.cache_dir)!r}, {len(self)} entries, "
            f"hits={self.hits}, misses={self.misses}, corrupt={self.corrupt})"
        )
