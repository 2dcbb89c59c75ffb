"""Follow mode over a growing day-partitioned syslog directory.

The batch pipeline scans a *finished* directory once; a live
fleet-health service must instead tail the newest day file as it
grows, notice rotation (a new day file appearing), and keep handing
over new data without re-reading what it has already consumed.
:class:`DirectoryFollower` provides that, and leaves the lines
themselves to the consumer — the stream ingest runs them through the
batch scanner (:func:`~repro.pipeline.shard.scan_plain_buffer`):

* Plain day files are read incrementally from a persisted byte offset.
  Each read is cut after its last complete line and that run of lines
  is handed over as one ``bytes`` chunk; the raw bytes after the cut
  are carried to the next read, so a line (or a multi-byte UTF-8
  sequence) torn across two appends reaches the consumer whole.  The
  chunks of a file, concatenated, are the file's bytes, split at line
  boundaries.
* A file stops being "newest" the moment a later day appears; it is
  then drained to EOF and finalized (its trailing unterminated line,
  if any, is handed over — matching the batch reader).
* Gzipped day files are archival: a finished one is handed over whole,
  by path, for the batch gzip path to read, and a trailing ``.gz``
  (still possibly being written by rotation) is held until a later day
  exists or the caller forces a final drain.
* Duplicate-day and late-arriving day files are skipped with
  :data:`~repro.syslog.quarantine.FILE_DUPLICATE_DAY` /
  :data:`~repro.syslog.quarantine.FILE_LATE_DAY` incidents — replaying
  a day the watermark has passed would violate the monotonic-time
  contract the incremental coalescer depends on.

Offsets only ever point at line boundaries, so
:meth:`DirectoryFollower.state` taken between polls is a safe resume
point: a restart re-reads nothing and loses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Union

from ..core.exceptions import ReproError
from ..syslog.quarantine import (
    FILE_CORRUPT,
    FILE_DUPLICATE_DAY,
    FILE_LATE_DAY,
    FILE_UNREADABLE,
    Quarantine,
)
from ..syslog.reader import day_stem, dedupe_day_files

#: Binary read size per poll step (matches the batch reader's chunk).
_CHUNK_BYTES = 1 << 20

#: Consecutive ``OSError`` s tolerated per file before the follower
#: gives up and quarantines it the way the batch reader would.
MAX_TRANSIENT_READ_FAILURES = 2


class FollowerReadError(ReproError):
    """A *transient* I/O failure on a followed file (EIO, disk full…).

    Raised instead of quarantining the file for the first
    :data:`MAX_TRANSIENT_READ_FAILURES` consecutive failures: the
    follower's offset/carry are untouched, so the caller can retry the
    poll — or a supervisor can rebuild the whole ingest from its last
    checkpoint — without dropping the file the way a permanent
    quarantine would.  Only after the failure repeats does the
    follower fall back to the batch-compatible containment
    (:data:`~repro.syslog.quarantine.FILE_CORRUPT` /
    :data:`~repro.syslog.quarantine.FILE_UNREADABLE` incident).
    """

    def __init__(self, name: str, reason: str, attempt: int, exc: OSError):
        super().__init__(
            f"transient read failure on {name} "
            f"(attempt {attempt}/{MAX_TRANSIENT_READ_FAILURES}): {exc}"
        )
        self.file_name = name
        self.reason = reason
        self.attempt = attempt


#: What :meth:`DirectoryFollower.poll` hands its consumer: complete
#: lines of a plain day file, or a finished gzipped day file.  The
#: consumer returns how many lines it took (blank lines included).
Consumer = Callable[[Union[bytes, Path]], int]


def _line_cut(buf: bytes, final: bool = False) -> int:
    """Length of the prefix of ``buf`` that holds only complete lines.

    Universal newlines, as the batch scanner splits: ``\\n``,
    ``\\r\\n`` and a lone ``\\r`` all end a line.  A trailing ``\\r``
    may be half of a ``\\r\\n`` torn across appends, so it is held back
    unless ``final`` declares the stream over — which also completes
    the unterminated last line, so the whole buffer is taken.
    """
    if final:
        return len(buf)
    end = len(buf) - 1 if buf.endswith(b"\r") else len(buf)
    return max(buf.rfind(b"\n", 0, end), buf.rfind(b"\r", 0, end)) + 1


@dataclass
class _FileState:
    """Tracking for one followed day file."""

    name: str
    is_gz: bool
    offset: int = 0
    carry: bytes = b""
    finalized: bool = False
    handle: object = None

    def close(self) -> None:
        """Release the open handle, if any."""
        if self.handle is not None:
            try:
                self.handle.close()  # type: ignore[attr-defined]
            except OSError:
                pass
            self.handle = None


@dataclass
class FollowStats:
    """Counters the follower maintains across polls.

    Attributes:
        bytes_read: on-disk bytes consumed so far (compressed size for
            gzip files).
        lines_delivered: raw lines the consumer took (blank lines
            included, matching the batch reader's accounting).
        files_finalized: day files fully drained and closed.
    """

    bytes_read: int = 0
    lines_delivered: int = 0
    files_finalized: int = 0


class DirectoryFollower:
    """Incremental, restartable tail over a syslog day directory.

    Args:
        syslog_dir: the directory holding ``syslog-YYYY-MM-DD.log[.gz]``
            day files.
        quarantine: optional sink for file-level incidents (duplicate
            days, late days, unreadable/corrupt files); line-level
            problems are the consumer's concern.
    """

    def __init__(
        self, syslog_dir: Path, quarantine: Optional[Quarantine] = None
    ) -> None:
        self._dir = Path(syslog_dir)
        self._quarantine = quarantine
        self._files: Dict[str, _FileState] = {}
        #: stem -> file name chosen to represent that day.
        self._chosen: Dict[str, str] = {}
        #: file names already reported as duplicates (report once).
        self._dup_seen: Set[str] = set()
        #: file names already reported as late arrivals.
        self._late_seen: Set[str] = set()
        #: largest day stem ingestion has started on.
        self._max_started = ""
        self.stats = FollowStats()
        #: Optional fault hook (chaos harness): called with the file
        #: name before each open/read; an ``OSError`` it raises flows
        #: through the real containment path.
        self.read_fault: Optional[Callable[[str], None]] = None
        #: Consecutive read failures per file (in-memory only — an
        #: operational counter, deliberately not checkpointed).
        self._read_failures: Dict[str, int] = {}
        #: Transient failures surfaced as :class:`FollowerReadError`.
        self.transient_read_errors = 0

    def day_stems(self) -> List[str]:
        """Sorted stems of the days chosen for ingestion so far."""
        return sorted(self._chosen)

    def _note_duplicate(self, name: str) -> None:
        if name in self._dup_seen:
            return
        self._dup_seen.add(name)
        if self._quarantine is not None:
            self._quarantine.file_incident(FILE_DUPLICATE_DAY, name)

    def _note_late(self, name: str) -> None:
        if name in self._late_seen:
            return
        self._late_seen.add(name)
        if self._quarantine is not None:
            self._quarantine.file_incident(FILE_LATE_DAY, name)

    def _discover(self) -> List[Path]:
        """Scan the directory; returns chosen, not-yet-final files in order.

        Mirrors the batch plan phase: the file list is sorted by day
        stem (plain before gzip within a stem), duplicates are recorded
        before any line is delivered, and a day that first appears
        after a later day has already started ingesting is skipped as
        a late arrival.
        """
        files = list(self._dir.glob("syslog-*.log")) + list(
            self._dir.glob("syslog-*.log.gz")
        )
        files.sort(key=day_stem)
        unique, duplicates = dedupe_day_files(files)
        for dup in duplicates:
            self._note_duplicate(dup.name)
        active: List[Path] = []
        for path in unique:
            stem = day_stem(path)
            chosen = self._chosen.get(stem)
            if chosen is not None and chosen != path.name:
                previous = self._files.get(chosen)
                if previous is not None and previous.is_gz and not previous.finalized:
                    # The gz form appeared first, but gz files are held
                    # until a successor day exists — nothing has been
                    # ingested yet, so switch to the batch-preferred
                    # plain form (the gz was already recorded as the
                    # duplicate by the dedupe pass above).
                    previous.close()
                    previous.finalized = True
                    self._chosen[stem] = path.name
                    self._files[path.name] = _FileState(
                        name=path.name, is_gz=False
                    )
                else:
                    # The other compression form already represents
                    # this day (e.g. rotation gzipped a file we fully
                    # ingested).
                    self._note_duplicate(path.name)
                    continue
            if chosen is None:
                if stem < self._max_started:
                    self._note_late(path.name)
                    continue
                self._chosen[stem] = path.name
                self._files[path.name] = _FileState(
                    name=path.name, is_gz=path.name.endswith(".gz")
                )
                if stem > self._max_started:
                    self._max_started = stem
            state = self._files[path.name]
            if not state.finalized:
                active.append(path)
        return active

    def poll(self, consume: Consumer, final: bool = False) -> int:
        """Hand over everything newly available, oldest day first.

        Any file with a successor day is drained to EOF and finalized;
        the newest file is read up to its last complete line (its
        unterminated tail waits for more bytes) unless ``final`` is
        set, which drains and finalizes everything — the end-of-stream
        semantics of the batch reader.

        ``consume`` gets each plain file's new complete lines as
        ``bytes`` chunks (one per read of up to :data:`_CHUNK_BYTES`,
        plus the unterminated tail of a finalized file) and each
        finished gz file as its ``Path``; it returns how many lines it
        took.  Returns the number of lines taken this poll.
        """
        before = self.stats.lines_delivered
        active = self._discover()
        last_stem = day_stem(active[-1]) if active else ""
        for path in active:
            state = self._files[path.name]
            is_last = day_stem(path) == last_stem
            finalize = final or not is_last
            if state.is_gz:
                # Archival form: only safe to read once rotation is
                # provably finished (a later day exists) or at drain.
                if finalize:
                    self._ingest_gzip(path, state, consume)
            else:
                self._tail_plain(path, state, consume, finalize)
        return self.stats.lines_delivered - before

    def _ingest_gzip(
        self, path: Path, state: _FileState, consume: Consumer
    ) -> None:
        """Hand over one gzipped day whole, for the batch gzip path."""
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        self.stats.lines_delivered += consume(path)
        state.finalized = True
        state.offset = size
        self.stats.bytes_read += size
        self.stats.files_finalized += 1

    def _fail_file(self, state: _FileState, reason: str) -> None:
        """Contain a mid-stream read failure to this file.

        The batch reader drops its partial tail on a read error;
        mirror that by discarding the carry.
        """
        if self._quarantine is not None:
            self._quarantine.file_incident(reason, state.name)
        state.carry = b""
        state.finalized = True
        state.close()
        self.stats.files_finalized += 1

    def _read_failed(
        self, state: _FileState, reason: str, exc: OSError
    ) -> None:
        """Classify one read ``OSError``: transient retry or quarantine.

        The first :data:`MAX_TRANSIENT_READ_FAILURES` consecutive
        failures close the handle but keep offset/carry intact and
        raise :class:`FollowerReadError` — the next poll (or a
        supervisor restart from checkpoint) re-reads from the same
        line boundary, losing nothing.  Past that, the failure is
        treated as permanent and the file is quarantined exactly as
        the batch reader would.
        """
        count = self._read_failures.get(state.name, 0) + 1
        self._read_failures[state.name] = count
        state.close()
        if count <= MAX_TRANSIENT_READ_FAILURES:
            self.transient_read_errors += 1
            raise FollowerReadError(state.name, reason, count, exc)
        self._fail_file(state, reason)

    def _cut_lines(self, state: _FileState, buf: bytes, final: bool) -> bytes:
        """Take the complete lines off ``buf``; the rest is the carry."""
        cut = _line_cut(buf, final)
        state.carry = buf[cut:]
        state.offset += cut
        self.stats.bytes_read += cut
        return buf if cut == len(buf) else buf[:cut]

    def _tail_plain(
        self,
        path: Path,
        state: _FileState,
        consume: Consumer,
        finalize: bool,
    ) -> None:
        """Incrementally read one plain day file from its offset."""
        if state.handle is None:
            try:
                if self.read_fault is not None:
                    self.read_fault(state.name)
                state.handle = open(path, "rb")
            except OSError as exc:
                self._read_failed(state, FILE_UNREADABLE, exc)
                return
            try:
                state.handle.seek(state.offset + len(state.carry))
            except OSError as exc:
                self._read_failed(state, FILE_CORRUPT, exc)
                return
        while True:
            try:
                if self.read_fault is not None:
                    self.read_fault(state.name)
                chunk = state.handle.read(_CHUNK_BYTES)  # type: ignore[attr-defined]
            except OSError as exc:
                self._read_failed(state, FILE_CORRUPT, exc)
                return
            if not chunk:
                self._read_failures.pop(state.name, None)
                break
            # Rebinding frees the read buffer before the lines are
            # consumed: a poll holds one chunk-sized buffer, not three.
            chunk = self._cut_lines(state, state.carry + chunk, final=False)
            if chunk:
                self.stats.lines_delivered += consume(chunk)
        if finalize:
            tail = self._cut_lines(state, state.carry, final=True)
            if tail:
                self.stats.lines_delivered += consume(tail)
            state.finalized = True
            state.close()
            self.stats.files_finalized += 1

    def state(self) -> Dict[str, object]:
        """JSON-serializable resume state (valid between polls).

        Offsets always sit on line boundaries; the raw carry is *not*
        persisted — a resumed follower re-reads from the boundary and
        reassembles the partial tail itself, so the checkpoint cannot
        tear a line.
        """
        return {
            "files": [
                [s.name, s.is_gz, s.offset, s.finalized]
                for s in self._files.values()
            ],
            "chosen": sorted(self._chosen.items()),
            "dup_seen": sorted(self._dup_seen),
            "late_seen": sorted(self._late_seen),
            "max_started": self._max_started,
            "stats": [
                self.stats.bytes_read,
                self.stats.lines_delivered,
                self.stats.files_finalized,
            ],
        }

    @classmethod
    def restore(
        cls,
        syslog_dir: Path,
        state: Dict[str, object],
        quarantine: Optional[Quarantine] = None,
    ) -> "DirectoryFollower":
        """Rebuild a follower from :meth:`state` output."""
        self = cls(syslog_dir, quarantine)
        for name, is_gz, offset, finalized in state["files"]:  # type: ignore[union-attr]
            self._files[name] = _FileState(
                name=name,
                is_gz=bool(is_gz),
                offset=int(offset),
                finalized=bool(finalized),
            )
        for stem, name in state["chosen"]:  # type: ignore[union-attr]
            self._chosen[stem] = name
        self._dup_seen = set(state["dup_seen"])  # type: ignore[arg-type]
        self._late_seen = set(state["late_seen"])  # type: ignore[arg-type]
        self._max_started = str(state["max_started"])
        bytes_read, delivered, finalized_count = state["stats"]  # type: ignore[misc]
        self.stats = FollowStats(
            bytes_read=int(bytes_read),
            lines_delivered=int(delivered),
            files_finalized=int(finalized_count),
        )
        return self
