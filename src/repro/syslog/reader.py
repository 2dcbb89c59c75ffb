"""Streaming reader for day-partitioned syslog directories.

The Stage-II extraction consumes raw lines in time order without
loading whole multi-gigabyte directories into memory; this module
provides that stream plus the line-level parse into (time, host,
message) triples.

The reader is hardened against the corruption real consolidated logs
contain (see :mod:`repro.syslog.chaos` for the fault model): day files
are decoded with replacement on bad bytes, truncated gzip archives
yield a partial day instead of aborting the extraction, duplicate day
files are deduplicated, malformed lines are skipped (and counted
through an optional :class:`~repro.syslog.quarantine.Quarantine`), and
clock-stepped timestamps can be clamped back to monotonic order ahead
of coalescing.
"""

from __future__ import annotations

import codecs
import gzip
import io
import mmap
import re
from pathlib import Path
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

from ..core.exceptions import LogFormatError
from ..core.timebase import parse_syslog_timestamp
from .quarantine import (
    FILE_CORRUPT,
    FILE_DUPLICATE_DAY,
    FILE_TRUNCATED_GZIP,
    FILE_UNREADABLE,
    REASON_BAD_TIMESTAMP,
    REASON_CLOCK_STEP,
    REASON_ENCODING,
    REASON_MALFORMED,
    REASON_MISSING_HOST,
    REASON_TORN_WRITE,
    Quarantine,
)


class RawLine(NamedTuple):
    """One parsed raw syslog line."""

    time: float
    host: str
    message: str


#: A second full syslog timestamp embedded in the message marks a torn
#: write (two lines interleaved without a newline between them).
_EMBEDDED_TIMESTAMP = re.compile(
    r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{6} "
)


def day_stem(path: Path) -> str:
    """The ``syslog-YYYY-MM-DD`` stem shared by ``.log``/``.log.gz``."""
    return path.name.split(".")[0]


def dedupe_day_files(files: List[Path]) -> Tuple[List[Path], List[Path]]:
    """Split a day-file list into (unique, duplicate) entries.

    Rotation replays can leave the same day present both plain and
    gzipped; reading both would double-count the whole day.  The plain
    form wins (it is the newer, pre-archival copy); everything else
    with an already-seen date is a duplicate.
    """
    by_day: dict = {}
    for path in files:
        day = day_stem(path)
        current = by_day.get(day)
        if current is None:
            by_day[day] = path
        elif current.name.endswith(".gz") and not path.name.endswith(".gz"):
            by_day[day] = path
    unique = sorted(by_day.values(), key=lambda p: day_stem(p))
    chosen = set(unique)
    duplicates = [p for p in files if p not in chosen]
    return unique, duplicates


def list_day_files(log_dir: Path, dedupe: bool = False) -> List[Path]:
    """All per-day syslog files (plain or gzipped), chronologically.

    Sorting by date stem keeps ``syslog-2022-01-02.log.gz`` ordered
    correctly against plain ``.log`` neighbours.  With ``dedupe=True``
    a day present in both forms is listed once (plain preferred).
    """
    files = list(log_dir.glob("syslog-*.log")) + list(
        log_dir.glob("syslog-*.log.gz")
    )
    files.sort(key=day_stem)
    if dedupe:
        return dedupe_day_files(files)[0]
    return files


def parse_line(line: str) -> RawLine:
    """Split a raw line into (time, host, message).

    Raises :class:`~repro.core.exceptions.LogFormatError` (carrying a
    quarantine reason code) on malformed lines; the extractor counts
    and skips those rather than dying, mirroring how real pipelines
    must tolerate corrupt log data.  Runs of whitespace between the
    timestamp and hostname fields are tolerated; a message tag
    (``kernel:`` etc.) in the hostname slot — the shape a dropped
    hostname field produces — is rejected rather than misparsed.
    """
    parts = line.rstrip("\r\n").split(maxsplit=2)
    if len(parts) != 3:
        raise LogFormatError(
            f"malformed syslog line: {line!r}", reason=REASON_MALFORMED
        )
    timestamp, host, message = parts
    if host.endswith(":"):
        raise LogFormatError(
            f"missing hostname field in line: {line!r}",
            reason=REASON_MISSING_HOST,
        )
    try:
        time = parse_syslog_timestamp(timestamp)
    except ValueError as exc:
        raise LogFormatError(
            f"bad timestamp in line: {line!r}", reason=REASON_BAD_TIMESTAMP
        ) from exc
    if _EMBEDDED_TIMESTAMP.search(message):
        raise LogFormatError(
            f"torn write (interleaved lines): {line!r}",
            reason=REASON_TORN_WRITE,
        )
    return RawLine(time=time, host=host, message=message)


def open_day_file(path: Path):
    """Open a plain or gzipped day file for tolerant text reading.

    Undecodable bytes become U+FFFD instead of killing the stream.
    """
    if path.name.endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8", errors="replace")
    return open(path, encoding="utf-8", errors="replace")


#: Binary read size for the chunked plain-file decode path.
_CHUNK_BYTES = 1 << 20


def open_plain_buffer(path: Path):
    """One whole-file bytes buffer for the bytes-first scanner.

    Maps the file read-only when possible (zero-copy, pages stream in
    on demand); an empty file cannot be mapped (POSIX) and some
    filesystems refuse ``mmap`` entirely, so those fall back to one
    plain read.  Returns ``None`` on any open/read failure — the
    caller then retries through the tolerant decoded reader, which
    re-encounters the failure and records the same incident the
    legacy path always has.
    """
    try:
        handle = open(path, "rb")
    except OSError:
        return None
    with handle:
        try:
            return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            pass
        try:
            handle.seek(0)
            return handle.read()
        except OSError:
            return None


def close_plain_buffer(buf) -> None:
    """Release a buffer from :func:`open_plain_buffer`."""
    if isinstance(buf, mmap.mmap):
        buf.close()


def _iter_plain_lines(path: Path, quarantine) -> Iterator[str]:
    """Chunked binary decode of a plain day file.

    Bytes are read in :data:`_CHUNK_BYTES` blocks, decoded
    incrementally with replacement, translated to universal newlines,
    and split once per chunk instead of once per line.  The
    emitted lines are identical to text-mode ``readline``: terminated
    by ``"\\n"`` except possibly the last, with ``"\\r\\n"``/``"\\r"``
    treated as line breaks.
    """
    try:
        handle = open(path, "rb")
    except OSError:
        if quarantine is not None:
            quarantine.file_incident(FILE_UNREADABLE, path.name)
        return
    decoder = codecs.getincrementaldecoder("utf-8")("replace")
    pending = ""
    with handle:
        while True:
            try:
                chunk = handle.read(_CHUNK_BYTES)
            except OSError:
                if quarantine is not None:
                    quarantine.file_incident(FILE_CORRUPT, path.name)
                return
            if not chunk:
                break
            text = pending + decoder.decode(chunk)
            # A trailing "\r" may be the first half of a "\r\n" split
            # across chunks; hold it back until the next read.
            if text.endswith("\r"):
                pending = "\r"
                text = text[:-1]
            else:
                pending = ""
            parts = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
            pending = parts.pop() + pending
            for part in parts:
                yield part + "\n"
    tail = pending + decoder.decode(b"", final=True)
    if tail:
        parts = tail.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        last = parts.pop()
        for part in parts:
            yield part + "\n"
        if last:
            yield last


def _iter_gzip_lines(path: Path, quarantine) -> Iterator[str]:
    """Tolerant line stream from a gzipped day file.

    The compressed file is read once as bytes and decompressed from
    memory; a truncated archive yields every line up to the break.
    """
    try:
        data = path.read_bytes()
    except OSError:
        if quarantine is not None:
            quarantine.file_incident(FILE_UNREADABLE, path.name)
        return
    handle = io.TextIOWrapper(
        gzip.GzipFile(fileobj=io.BytesIO(data), mode="rb"),
        encoding="utf-8",
        errors="replace",
    )
    with handle:
        while True:
            try:
                line = handle.readline()
            except EOFError:
                if quarantine is not None:
                    quarantine.file_incident(FILE_TRUNCATED_GZIP, path.name)
                return
            except (gzip.BadGzipFile, OSError):
                if quarantine is not None:
                    quarantine.file_incident(FILE_CORRUPT, path.name)
                return
            if not line:
                return
            yield line


def iter_file_lines(
    path: Path, quarantine: Optional[Quarantine] = None
) -> Iterator[str]:
    """Stream raw text lines from one day file, tolerantly.

    A truncated gzip archive (mid-write crash during rotation) yields
    every line up to the break, then stops — a partial day instead of
    an aborted extraction.  Any other mid-stream decode failure is
    likewise contained to this file.
    """
    if path.name.endswith(".gz"):
        yield from _iter_gzip_lines(path, quarantine)
    else:
        yield from _iter_plain_lines(path, quarantine)


def iter_raw_lines(
    log_dir: Path, quarantine: Optional[Quarantine] = None
) -> Iterator[str]:
    """Stream raw text lines from every day file, in order.

    Transparently decompresses ``.log.gz`` day files.  Duplicate day
    files are skipped, per-file failures are isolated (see
    :func:`iter_file_lines`), and incidents are recorded on the
    optional ``quarantine``.
    """
    files = list(log_dir.glob("syslog-*.log")) + list(
        log_dir.glob("syslog-*.log.gz")
    )
    files.sort(key=day_stem)
    unique, duplicates = dedupe_day_files(files)
    if quarantine is not None:
        for dup in duplicates:
            quarantine.file_incident(FILE_DUPLICATE_DAY, dup.name)
    for path in unique:
        yield from iter_file_lines(path, quarantine)


def iter_parsed_lines(
    log_dir: Path, quarantine: Optional[Quarantine] = None
) -> Iterator[RawLine]:
    """Stream parsed lines, skipping blank and malformed lines.

    Malformed lines are counted on the optional ``quarantine`` (by
    reason code) instead of propagating
    :class:`~repro.core.exceptions.LogFormatError` and killing the
    stream; lines kept after encoding replacement are counted as
    repairs.
    """
    for line in iter_raw_lines(log_dir, quarantine):
        if not line.strip():
            continue
        try:
            parsed = parse_line(line)
        except LogFormatError as exc:
            if quarantine is not None:
                quarantine.reject(exc.reason, line)
            continue
        if quarantine is not None and "�" in parsed.message:
            quarantine.repair(REASON_ENCODING, parsed.message)
        yield parsed


def repair_monotonic(
    lines: Iterable[RawLine],
    quarantine: Optional[Quarantine] = None,
    start_time: float = float("-inf"),
) -> Iterator[RawLine]:
    """Clamp out-of-order timestamps back to monotonic order.

    An NTP clock step mid-log stamps a run of lines *before* their
    predecessors; downstream coalescing requires non-decreasing time.
    Stepped lines are clamped to the running maximum (the smallest
    order-preserving repair) and counted as repairs.
    """
    last = start_time
    for line in lines:
        if line.time < last:
            if quarantine is not None:
                quarantine.repair(
                    REASON_CLOCK_STEP,
                    f"{line.host}: {line.time:.6f} clamped to {last:.6f}",
                )
            line = line._replace(time=last)
        else:
            last = line.time
        yield line
