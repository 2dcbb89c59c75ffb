"""Atomic file writes: tempfile + rename + fsync.

Every durable artifact the library writes while a run is in flight —
campaign manifests, engine checkpoint chains, per-cell result
summaries — goes through these helpers so a crash (or a
chaos-injected worker kill) can never leave a half-written file
behind: readers see either the previous complete version or the new
complete version, never a torn one.

The recipe is the standard POSIX one:

1. write the payload to a temporary file *in the same directory* (so
   the final rename stays on one filesystem),
2. flush and ``fsync`` the temporary file,
3. ``os.replace`` it over the destination (atomic on POSIX and on
   modern Windows),
4. best-effort ``fsync`` the containing directory so the rename itself
   is durable across power loss.

Reads share one damage policy: :func:`quarantine_aside` keeps damaged
bytes as ``<name>.corrupt-<n>`` and :func:`load_json_object` applies it
to JSON documents, so a reader starts fresh without losing evidence.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Optional


def _fsync_dir(directory: Path) -> None:
    """Best-effort fsync of a directory (ignored where unsupported)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path, data: bytes, durable: bool = True) -> None:
    """Atomically replace ``path`` with ``data``.

    Args:
        path: destination; missing parent directories are created.
        data: full new contents.
        durable: also fsync the file and its directory.  Leave on for
            anything a crashed process must be able to trust; turn off
            only for throwaway outputs where speed matters more.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if durable:
        _fsync_dir(path.parent)


def atomic_write_text(
    path: Path, text: str, encoding: str = "utf-8", durable: bool = True
) -> None:
    """Atomically replace ``path`` with ``text``."""
    atomic_write_bytes(path, text.encode(encoding), durable=durable)


def atomic_write_json(
    path: Path, payload: Any, durable: bool = True, **dumps_kwargs: Any
) -> None:
    """Atomically replace ``path`` with ``payload`` serialized as JSON.

    ``sort_keys=True`` is applied unless overridden so repeated writes
    of equal payloads are byte-identical (campaign summaries are
    compared byte-for-byte across chaos and clean runs).
    """
    dumps_kwargs.setdefault("sort_keys", True)
    text = json.dumps(payload, **dumps_kwargs)
    atomic_write_bytes(path, (text + "\n").encode("utf-8"), durable=durable)


def quarantine_aside(path: Path) -> Path:
    """Move damaged state aside as the first free ``<name>.corrupt-<n>``.

    The one damage policy for persisted state: the damaged bytes stay
    on disk for a post-mortem while the original path is cleared, so
    the next start rebuilds instead of refusing forever.  Nothing is
    ever dropped, however many generations pile up.  Returns the
    destination; a failed rename raises ``OSError``.
    """
    path = Path(path)
    n = 1
    while True:
        target = path.with_name(f"{path.name}.corrupt-{n}")
        if not target.exists():
            break
        n += 1
    os.rename(path, target)
    return target


def load_json_object(path: Path) -> Optional[dict]:
    """Read a persisted JSON object; ``None`` when absent or damaged.

    The read half of the damage policy: a document that cannot be
    parsed, or is not a JSON object, is moved aside with
    :func:`quarantine_aside` before ``None`` is returned, so the caller
    starts fresh and the damaged bytes survive.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text("utf-8"))
    except OSError:
        return None
    except ValueError:
        payload = None
    if not isinstance(payload, dict):
        with contextlib.suppress(OSError):
            quarantine_aside(path)
        return None
    return payload
