"""Persistent per-day scan cache for the Stage-II pipeline.

A :class:`~repro.pipeline.shard.DayScan` depends only on the bytes of
one day file, the hardware inventory, and the quarantine sample limit
— nothing else.  That makes scans cacheable across runs: re-analysis
of an unchanged corpus (the common case for recovery-timeline and
what-if studies, which re-read the same logs with different coalescing
or policy parameters) can skip the scan entirely and replay the stored
columns, which is one-to-two orders of magnitude cheaper than even
the bytes-first scan.

Entries live under ``<artifact_dir>/.pipeline_scan_cache/``, one file
per day file, and are validated by a stat match on ``(size,
mtime_ns)`` recorded *before* the scan, plus the inventory content
hash and the sample limit baked into the entry.  Any drift is a plain
miss — the file is rescanned and the entry overwritten.  The cache can
therefore never change results, only wall-clock time; a warm hit
reconstructs the exact ``DayScan`` the scan would have produced
(floats round-trip bit-exactly: the columns travel as raw ``array``
blobs and the JSON header preserves shortest ``repr`` floats).

The cache is also Stage II's only resume state.  Every scanned day is
stored before it is merged, so rerunning an interrupted pass replays
the days it finished and scans the rest: a resume is a warm rerun.

Corruption is quarantined, never fatal: a truncated, bit-flipped, or
otherwise unreadable entry fails the CRC/parse step, is renamed to
``<name>.corrupt-<n>`` beside the cache (preserving the evidence for
inspection, exactly like the syslog quarantine keeps rejected lines),
and the day is rescanned.  Because a torn write is always *detected*
(the CRC covers the whole body), entries are written with an
atomic-rename but without an fsync — losing a cache entry to a crash
costs one rescan, not correctness.

On-disk layout (version |VERSION|)::

    MAGIC "RPSC" | version u16 BE | header_len u32 BE | crc32 u32 BE
    header JSON (utf-8) | column blobs (raw array bytes, native order)

The CRC covers ``header JSON + blobs``.  The header carries the
validation key, every scalar/JSON-safe ``DayScan`` field, the
``HitColumns`` string tables, and a blob directory (name, typecode,
item count per column); the blobs are the six hit columns plus the
``unclamped_times`` column.  In memory those columns already are
:mod:`array` columns of the same typecodes
(:data:`~repro.pipeline.shard.HIT_COLUMNS`), so a store writes each
one's bytes and a load reads them back into arrays — no value is
boxed either way.  Native byte order is recorded in the header; a
cache written on a different-endian host is treated as stale, not
corrupt.
"""

from __future__ import annotations

import json
import sys
import time
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from ..core.atomicio import atomic_write_bytes, quarantine_aside
from ..syslog.quarantine import Quarantine
from .shard import HIT_COLUMNS, DayScan, HitColumns

__all__ = ["SCAN_CACHE_DIRNAME", "ScanCache", "ScanStats"]

#: Directory (under the artifact dir) holding scan-cache entries.
SCAN_CACHE_DIRNAME = ".pipeline_scan_cache"

#: File magic for scan-cache entries ("RePro Scan Cache").
_MAGIC = b"RPSC"

#: Entry format version; bump on any incompatible layout change.  A
#: version mismatch under a valid magic is a *stale* entry (an older
#: build wrote it), not corruption — it is silently rescanned and
#: overwritten, never quarantined.
#: v2: entries no longer carry a content ``fingerprint`` (validation
#: was always the stat match above).
VERSION = 2

_HEADER_PREFIX_LEN = 4 + 2 + 4 + 4  # magic + version + header_len + crc32


class _Stale(Exception):
    """Internal: a well-formed entry that does not match the key."""


class _Corrupt(Exception):
    """Internal: an entry whose bytes cannot be trusted."""


@dataclass
class ScanStats:
    """Scan-efficiency accounting for one pipeline pass.

    Host-domain observability only: none of these numbers feed the
    deterministic outputs (the whole point of the cache is that it
    cannot change results), so the field is excluded from
    :class:`~repro.pipeline.run.PipelineResult` equality.

    Attributes:
        cache_hits: day files replayed from a valid cache entry.
        cache_misses: day files that had to be scanned on a
            cache-enabled run (absent, stale, or corrupt entries —
            corrupt ones are additionally counted below).
        cache_stores: fresh scans persisted to the cache (worker-side
            stores are counted as attempts; a failed disk write is
            silently absorbed and simply misses next run).
        cache_corrupt: entries quarantined to ``.corrupt-<n>``.
        lines_scanned: raw lines read by fresh scans this pass.
        lines_decoded: lines materialized as ``str`` by fresh scans —
            the bytes-first fallback traffic.
        lines_from_cache: raw lines replayed from cache entries.
        scan_wall_seconds: wall-clock spent in fresh scans.
        cache_load_wall_seconds: wall-clock spent loading entries.
    """

    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    cache_corrupt: int = 0
    lines_scanned: int = 0
    lines_decoded: int = 0
    lines_from_cache: int = 0
    scan_wall_seconds: float = 0.0
    cache_load_wall_seconds: float = 0.0

    @property
    def decode_ratio(self) -> float:
        """Fraction of freshly scanned lines that needed a decode."""
        if not self.lines_scanned:
            return 0.0
        return self.lines_decoded / self.lines_scanned


class ScanCache:
    """Store/load :class:`DayScan` entries under one cache directory.

    Args:
        root: the cache directory (created on first store).
        inventory_key: content hash of the inventory the scans resolve
            against (``"absent"`` when there is none) — part of the
            validation key, since GPU-index resolution depends on it.
        sample_limit: the quarantine sample limit the scans were run
            with — also part of the key (it bounds the recorded
            events).
        stats: the :class:`ScanStats` to account into (a fresh one
            when not supplied, exposed as ``self.stats``).
    """

    def __init__(
        self,
        root: Path,
        inventory_key: str = "absent",
        sample_limit: int = Quarantine.DEFAULT_SAMPLE_LIMIT,
        stats: Optional[ScanStats] = None,
    ) -> None:
        self.root = Path(root)
        self.inventory_key = inventory_key
        self.sample_limit = sample_limit
        self.stats = stats if stats is not None else ScanStats()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def entry_path(self, day_name: str) -> Path:
        """The cache entry for one day file (keyed by full file name,
        so a plain/.gz pair of the same day cannot collide)."""
        return self.root / f"{day_name}.scan"

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------

    def load(self, path: Path, stat) -> Optional[DayScan]:
        """Replay the cached scan for ``path``, or ``None`` on a miss.

        ``stat`` is the caller's pre-scan ``os.stat_result`` for the
        day file.  A hit requires the recorded ``(size, mtime_ns)``,
        inventory key, sample limit, and byte order to all match.

        Unreadable or failed-CRC entries are renamed to
        ``<name>.corrupt-<n>`` and reported as a miss — corruption is
        quarantined, never raised.
        """
        started = time.perf_counter()
        entry = self.entry_path(path.name)
        try:
            blob = entry.read_bytes()
        except FileNotFoundError:
            self.stats.cache_misses += 1
            return None
        except OSError:
            self.stats.cache_misses += 1
            return None
        try:
            scan = self._decode(blob, path.name, stat)
        except _Stale:
            self.stats.cache_misses += 1
            return None
        except _Corrupt:
            try:
                quarantine_aside(entry)
            except OSError:
                pass
            self.stats.cache_corrupt += 1
            self.stats.cache_misses += 1
            return None
        self.stats.cache_hits += 1
        self.stats.lines_from_cache += scan.lines_read
        self.stats.cache_load_wall_seconds += time.perf_counter() - started
        return scan

    def _decode(self, blob: bytes, day_name: str, stat) -> DayScan:
        if len(blob) < _HEADER_PREFIX_LEN:
            raise _Corrupt("truncated prefix")
        if blob[:4] != _MAGIC:
            raise _Corrupt("bad magic")
        version = int.from_bytes(blob[4:6], "big")
        if version != VERSION:
            raise _Stale("version mismatch")
        header_len = int.from_bytes(blob[6:10], "big")
        crc = int.from_bytes(blob[10:14], "big")
        body = blob[_HEADER_PREFIX_LEN:]
        if header_len > len(body):
            raise _Corrupt("truncated header")
        if zlib.crc32(body) != crc:
            raise _Corrupt("crc mismatch")
        try:
            header = json.loads(body[:header_len].decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _Corrupt(f"bad header: {exc}") from exc
        if not isinstance(header, dict):
            raise _Corrupt("header is not an object")

        # Validation key: any drift is a plain miss.
        if (
            header.get("day") != day_name
            or stat is None
            or header.get("size") != stat.st_size
            or header.get("mtime_ns") != stat.st_mtime_ns
            or header.get("inventory") != self.inventory_key
            or header.get("sample_limit") != self.sample_limit
            or header.get("byteorder") != sys.byteorder
        ):
            raise _Stale("key mismatch")

        # Column blobs, in directory order.
        columns = {}
        offset = header_len
        try:
            directory = [
                (str(name), str(typecode), int(count))
                for name, typecode, count in header["blobs"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise _Corrupt(f"bad blob directory: {exc}") from exc
        blobs = memoryview(body)
        for name, typecode, count in directory:
            if typecode not in ("d", "q"):
                raise _Corrupt(f"unknown typecode {typecode!r}")
            col = array(typecode)
            nbytes = count * col.itemsize
            chunk = blobs[offset : offset + nbytes]
            if len(chunk) != nbytes:
                raise _Corrupt("truncated blob")
            col.frombytes(chunk)
            columns[name] = col
            offset += nbytes
        if offset != len(body):
            raise _Corrupt("trailing bytes")

        try:
            return self._rebuild(header, columns)
        except (KeyError, TypeError, ValueError) as exc:
            raise _Corrupt(f"bad payload: {exc}") from exc

    @staticmethod
    def _rebuild(header: dict, columns: dict) -> DayScan:
        hits = HitColumns(
            times=columns["times"],
            node_ids=columns["node_ids"],
            pci_ids=columns["pci_ids"],
            gpu_indexes=columns["gpu_indexes"],
            class_ids=columns["class_ids"],
            xids=columns["xids"],
            nodes=[str(n) for n in header["nodes"]],
            pcis=[str(p) for p in header["pcis"]],
            classes=[str(c) for c in header["classes"]],
        )
        # Events carry heterogeneous tuples; the merge may ``insort``
        # additional tuples among them, so list elements must be
        # restored to tuples (tuple/list comparisons would raise).
        events = [tuple(event) for event in header["events"]]
        boundary = [
            (int(idx), str(host), float(t))
            for idx, host, t in header["boundary_candidates"]
        ]
        downtime = [
            (float(t), str(host), str(message))
            for t, host, message in header["downtime_lines"]
        ]
        local_max = header["local_max"]
        return DayScan(
            day=str(header["day"]),
            lines_read=int(header["lines_read"]),
            parsed_lines=int(header["parsed_lines"]),
            lines_decoded=int(header["lines_decoded"]),
            local_max=None if local_max is None else float(local_max),
            hits=hits,
            downtime_lines=downtime,
            stats={str(k): int(v) for k, v in header["stats"].items()},
            rejected={str(k): int(v) for k, v in header["rejected"].items()},
            repaired={str(k): int(v) for k, v in header["repaired"].items()},
            file_incidents={
                str(k): int(v) for k, v in header["file_incidents"].items()
            },
            events=events,
            boundary_candidates=boundary,
            unclamped_times=columns["unclamped_times"],
            # A replayed scan did no scanning: the merge loop uses the
            # zero to keep cached days out of shard-throughput stats.
            scan_wall_seconds=0.0,
            bytes_read=int(header["bytes_read"]),
        )

    # ------------------------------------------------------------------
    # Store
    # ------------------------------------------------------------------

    def store(self, path: Path, stat, scan: DayScan) -> bool:
        """Persist one scan keyed by the *pre-scan* ``stat``.

        Atomic (:func:`~repro.core.atomicio.atomic_write_bytes`) so
        readers never observe a partial entry; not durable, because a
        torn entry after a crash is detected by the CRC and
        quarantined.  Returns ``False`` when the entry could not be
        written (cache writes are an optimization and must never fail
        the scan).
        """
        if stat is None:
            return False
        try:
            payload = self._encode(scan, stat)
        except (TypeError, ValueError, OverflowError):
            return False
        try:
            atomic_write_bytes(self.entry_path(path.name), payload, durable=False)
        except OSError:
            return False
        self.stats.cache_stores += 1
        return True

    def _encode(self, scan: DayScan, stat) -> bytes:
        hits = scan.hits
        blobs: List[bytes] = []
        directory: List[Tuple[str, str, int]] = []
        columns = [(name, code, getattr(hits, name)) for name, code in HIT_COLUMNS]
        columns.append(("unclamped_times", "d", scan.unclamped_times))
        for name, typecode, column in columns:
            directory.append((name, typecode, len(column)))
            blobs.append(column.tobytes())

        header = {
            "day": scan.day,
            "size": stat.st_size,
            "mtime_ns": stat.st_mtime_ns,
            "inventory": self.inventory_key,
            "sample_limit": self.sample_limit,
            "byteorder": sys.byteorder,
            "lines_read": scan.lines_read,
            "parsed_lines": scan.parsed_lines,
            "lines_decoded": scan.lines_decoded,
            "local_max": scan.local_max,
            "bytes_read": scan.bytes_read,
            "nodes": hits.nodes,
            "pcis": hits.pcis,
            "classes": hits.classes,
            "downtime_lines": [list(d) for d in scan.downtime_lines],
            "stats": scan.stats,
            "rejected": scan.rejected,
            "repaired": scan.repaired,
            "file_incidents": scan.file_incidents,
            "events": [list(e) for e in scan.events],
            "boundary_candidates": [
                list(b) for b in scan.boundary_candidates
            ],
            "blobs": directory,
        }
        header_bytes = json.dumps(
            header, ensure_ascii=False, separators=(",", ":")
        ).encode("utf-8")
        body = header_bytes + b"".join(blobs)
        return b"".join(
            (
                _MAGIC,
                VERSION.to_bytes(2, "big"),
                len(header_bytes).to_bytes(4, "big"),
                zlib.crc32(body).to_bytes(4, "big"),
                body,
            )
        )
