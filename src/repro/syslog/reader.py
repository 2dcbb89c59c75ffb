"""Day files of a syslog directory, and the parse of one line.

Stage II scans a directory one day file at a time: this module lists
and deduplicates the day files, turns each one into one bytes buffer
(:func:`open_day_buffer`) for the scanner in
:mod:`repro.pipeline.shard`, and parses one line into its (time,
host, message) triple.

The reader is hardened against the corruption real consolidated logs
contain (see :mod:`repro.syslog.chaos` for the fault model): a file
that cannot be read, a read that fails part-way and a truncated or
damaged gzip archive all yield the complete lines before the break
and name the incident instead of raising, duplicate day files are
deduplicated, and a malformed line raises
:class:`~repro.core.exceptions.LogFormatError` carrying the quarantine
reason the scanner counts it under.
"""

from __future__ import annotations

import gzip
import io
import mmap
import re
import zlib
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple, Union

from ..core.exceptions import LogFormatError
from ..core.timebase import parse_syslog_timestamp
from .quarantine import (
    FILE_CORRUPT,
    FILE_TRUNCATED_GZIP,
    FILE_UNREADABLE,
    REASON_BAD_TIMESTAMP,
    REASON_MALFORMED,
    REASON_MISSING_HOST,
    REASON_TORN_WRITE,
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


#: Block size of every unmapped read of a plain day file: one that
#: cannot be mapped, and each read of a followed file.
_CHUNK_BYTES = 1 << 20


def _line_cut(buf: bytes, final: bool = False) -> int:
    """Length of the prefix of ``buf`` that holds only complete lines.

    Universal newlines, as the bytes scan splits: ``\\n``, ``\\r\\n``
    and a lone ``\\r`` all end a line.  A trailing ``\\r`` may be half
    of a ``\\r\\n`` torn across appends or cut off by a read that
    broke, so it is held back unless ``final`` declares the stream over
    — which also completes the unterminated last line, so the whole
    buffer is taken.  The follower cuts each read of a growing file
    with it, and a day read that breaks part-way keeps what it leaves.
    """
    if final:
        return len(buf)
    end = len(buf) - 1 if buf.endswith(b"\r") else len(buf)
    return max(buf.rfind(b"\n", 0, end), buf.rfind(b"\r", 0, end)) + 1


def _read_blocks(read: Callable[[], bytes]) -> Tuple[bytes, Optional[str]]:
    """Everything ``read`` returns, block by block, and the incident
    that cut it short: when a read or a decompression fails part-way,
    only the complete lines before the break are kept
    (:func:`_line_cut`)."""
    chunks: List[bytes] = []
    incident = None
    try:
        for chunk in iter(read, b""):
            chunks.append(chunk)
    except EOFError:
        incident = FILE_TRUNCATED_GZIP
    except (OSError, zlib.error):
        incident = FILE_CORRUPT
    data = b"".join(chunks)
    if incident is not None:
        data = data[: _line_cut(data)]
    return data, incident


@contextmanager
def open_day_buffer(
    path: Path,
) -> Iterator[Tuple[Union[bytes, mmap.mmap], Optional[str]]]:
    """One day file as one bytes buffer, and the incident that cut it
    short (``None`` when the whole file was read).

    A plain file is mapped read-only when possible (zero-copy, pages
    stream in on demand); an empty file cannot be mapped (POSIX) and
    some filesystems refuse ``mmap`` entirely, so those are read in
    blocks.  A gz file is read whole and decompressed in blocks.  A
    file that cannot be opened, or a gz file whose bytes cannot be
    read, yields no line and ``unreadable_file``; a failed read of a
    plain file or a damaged archive yields ``corrupt_file``, and an
    archive that ends early ``truncated_gzip``, each with the complete
    lines before the break.  A mapping is closed when the block exits.
    """
    try:
        handle = open(path, "rb")
    except OSError:
        yield b"", FILE_UNREADABLE
        return
    with handle:
        if path.name.endswith(".gz"):
            try:
                archive = io.BytesIO(handle.read())
            except OSError:
                yield b"", FILE_UNREADABLE
                return
            # read1 returns each block as it is decompressed: read would
            # drop a block's output when the archive breaks inside it.
            # Its default blocks are 8 KiB; freeing a block of 128 KiB
            # or more would raise glibc's dynamic mmap threshold, move
            # the scan's slice-sized temporaries onto the heap and grow
            # the process's peak RSS.
            read = gzip.GzipFile(fileobj=archive).read1
        else:
            try:
                buf = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):
                read = partial(handle.read, _CHUNK_BYTES)
            else:
                with buf:
                    yield buf, None
                return
        data, incident = _read_blocks(read)
    yield data, incident
