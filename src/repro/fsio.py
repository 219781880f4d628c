"""Crash-safe file replacement for the results cache.

The results cache (:mod:`repro.results_cache`), the one durable store,
persists state that must survive a process dying at *any* instruction —
SIGKILL, OOM, power loss.  It writes through :func:`atomic_write_text`:
content is written to a temp file in the destination directory, flushed
and fsync'd, then :func:`os.replace`'d over the target, and the
directory entry is fsync'd.  A reader never observes a partial file: it
sees either the old content or the new content, and a crash mid-write
leaves the old file untouched.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union


def fsync_dir(directory: Union[str, Path]) -> None:
    """Flush a directory entry table (rename/create durability)."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return  # e.g. platforms that cannot open directories
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Atomically replace ``path`` with ``text`` (temp + fsync + rename)."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name[:24]}-", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
        fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path
