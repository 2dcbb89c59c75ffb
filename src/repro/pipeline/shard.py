"""Per-day shard scans and the deterministic merge contract.

Stage II is embarrassingly parallel *except* for one piece of state
that threads through the serial pass: the monotonic-timestamp
watermark used to clamp NTP clock steps.  A worker scanning day *k*
cannot know the watermark the serial pass would carry into that file
(it depends on every earlier day), so a naive per-file pass diverges
from the serial pass whenever a clock step crosses a day boundary.

This module solves that by splitting each day's work into two halves:

* :func:`scan_day_file` — the **watermark-independent scan**.  One day
  file is streamed through the tolerant reader, parsed, extracted, and
  clamped against a *local* watermark that starts at ``-inf``.  The
  scan additionally records the minimal sufficient statistics needed
  to re-derive, later, what a serial pass with *any* incoming
  watermark ``W`` would have done (see below).  A scan depends only on
  the file's bytes and the inventory, so scans can run in any order,
  in any process.

* :func:`merge_scan` — the **ordered reduce**.  Scans are folded in
  day order against the running watermark.  The fold is exact, not
  approximate: after merging, every accumulator (error hits, downtime
  lines, extraction stats, quarantine counters *and samples*, line
  counts, the outgoing watermark) is byte-identical to what the serial
  pass produces for the same prefix of day files.

Why the fix-up is exact
-----------------------

Let ``x_i`` be the raw parsed timestamps of one file and ``m_i`` their
running maximum.  The serial pass with incoming watermark ``W`` emits
clamped times ``y_i = max(W, m_i)``; the local scan emits
``l_i = m_i``.  Hence ``y_i = max(l_i, W)`` — clamping commutes with
the merge, and the fix-up is a single ``max`` per recorded time (error
hits and downtime lines only; other lines carry no time downstream).

Clock-step *accounting* needs one more observation: the serial pass
counts a repair iff ``x_i < max(W, m_{i-1})``.  Lines already clamped
locally (``x_i < m_{i-1}``) stay repairs under any ``W``.  Lines *not*
clamped locally are each a new running maximum, so their values form a
non-decreasing subsequence; the ones below ``W`` — the extra repairs
the serial pass would have made at the shard boundary — are exactly a
prefix of that subsequence.  The scan therefore keeps the unclamped
timestamps (sorted by construction) and the merge derives the extra
repair count with one ``bisect``, and the first few such lines (for
quarantine samples) from the head of that subsequence.

Quarantine samples are replayed in exact global order: every scan
records its first ``sample_limit`` incidents per reason keyed by
``(line_index, sub_position)``, the merge splices in boundary clamp
candidates, sorts, and replays them through
:meth:`~repro.syslog.quarantine.Quarantine.record_sample` while the
counters are restored in bulk — so even the bounded sample list on the
health report is identical between serial and parallel passes.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cluster.inventory import Inventory
from ..core.exceptions import LogFormatError
from ..core.xid import EventClass
from ..syslog.quarantine import (
    REASON_CLOCK_STEP,
    REASON_ENCODING,
    Quarantine,
)
from ..recovery.config import RECOVERY_MARKER
from ..syslog.reader import (
    RawLine,
    close_plain_buffer,
    iter_file_lines,
    open_plain_buffer,
    parse_line,
)
from .bytescan import scan_buffer
from .downtime import DOWNTIME_MARKER, DowntimeExtractor
from .extract import ErrorHit, ExtractionStats, XidExtractor
from .recovery import RecoveryExtractor

#: Sample-event operation codes (compact across the worker boundary).
_OP_REJECT = "J"
_OP_ENCODING = "E"
_OP_CLOCK = "C"
_OP_FILE = "F"

#: Sub-position of an event within one line: encoding repairs are
#: recorded before clock-step repairs by the serial pass.
_SUB_FIRST = 0
_SUB_CLOCK = 1

_NEG_INF = float("-inf")

#: Inverse of ``EventClass(...)`` without the enum-call overhead
#: (the constructor costs ~1µs; scans rebuild hundreds of thousands
#: of hits per pass).
_CLASS_BY_VALUE = {cls.value: cls for cls in EventClass}


#: ``(column, array typecode)`` of every :class:`HitColumns` column, in
#: the scan cache's blob order.  ``d`` is an IEEE-754 double and ``q``
#: a signed 64-bit integer: both have guaranteed widths, so cache
#: entries survive interpreter upgrades (byte order is validated
#: separately), and numpy reads each column through a zero-copy
#: ``float64``/``int64`` view.
HIT_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("times", "d"),
    ("node_ids", "q"),
    ("pci_ids", "q"),
    ("gpu_indexes", "q"),
    ("class_ids", "q"),
    ("xids", "q"),
)


def _doubles() -> array:
    return array("d")


def _longs() -> array:
    return array("q")


def _extend_column(column: array, values: np.ndarray) -> None:
    """Append a numpy vector to a typed column without boxing a value
    (``values`` must already have the column's width)."""
    column.frombytes(np.ascontiguousarray(values).view(np.uint8))


@dataclass
class HitColumns:
    """Columnar store for one day's (or one run's) error hits.

    Parallel typed columns plus tiny string tables: a hit costs 48
    bytes instead of a boxed
    :class:`~repro.pipeline.extract.ErrorHit`.  The columns are
    :class:`array.array` in the scan cache's own blob types
    (:data:`HIT_COLUMNS`), so a scan pickles to the pool's parent, is
    stored and is replayed from the cache as raw bytes, and numpy
    reads every column through a zero-copy view (``np.frombuffer``)
    wherever the whole column is processed at once — the scan's
    appends, :meth:`extend_clamped` and
    :func:`~repro.pipeline.coalesce.coalesce_columns`.  Such views
    are temporaries: a column with a live view cannot grow.

    ``None`` ``gpu_index``/``xid`` are encoded as ``-1`` (both are
    non-negative when present); ``class_ids`` indexes ``classes``, a
    table of :class:`~repro.core.xid.EventClass` *values*.  The string
    tables are interned in first-hit order.

    :func:`merge_scan` folds per-day columns into a run-global
    ``HitColumns`` via :meth:`extend_clamped` (column-to-column, with
    the watermark stitched in), and Stage III coalesces the columns
    directly — nothing downstream re-parses log text, and boxed
    :class:`~repro.pipeline.extract.ErrorHit` objects only ever
    materialize on demand via :meth:`to_hits`.
    """

    times: array = field(default_factory=_doubles)
    node_ids: array = field(default_factory=_longs)
    pci_ids: array = field(default_factory=_longs)
    gpu_indexes: array = field(default_factory=_longs)
    class_ids: array = field(default_factory=_longs)
    xids: array = field(default_factory=_longs)
    nodes: List[str] = field(default_factory=list)
    pcis: List[str] = field(default_factory=list)
    classes: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._node_ids = {n: i for i, n in enumerate(self.nodes)}
        self._pci_ids = {p: i for i, p in enumerate(self.pcis)}
        self._class_ids = {c: i for i, c in enumerate(self.classes)}

    def __len__(self) -> int:
        return len(self.times)

    def intern(
        self, node: str, pci: str, class_value: str
    ) -> Tuple[int, int, int]:
        """Column ids of one hit's strings, adding unseen ones."""
        node_id = self._node_ids.get(node)
        if node_id is None:
            node_id = self._node_ids[node] = len(self.nodes)
            self.nodes.append(node)
        pci_id = self._pci_ids.get(pci)
        if pci_id is None:
            pci_id = self._pci_ids[pci] = len(self.pcis)
            self.pcis.append(pci)
        class_id = self._class_ids.get(class_value)
        if class_id is None:
            class_id = self._class_ids[class_value] = len(self.classes)
            self.classes.append(class_value)
        return node_id, pci_id, class_id

    def append_hit(self, hit: ErrorHit) -> None:
        """Append one hit (interning node/pci/class strings)."""
        self.append_fields(
            hit.time,
            hit.node,
            -1 if hit.gpu_index is None else hit.gpu_index,
            hit.pci_address,
            hit.event_class.value,
            -1 if hit.xid is None else hit.xid,
        )

    def append_fields(
        self,
        time_: float,
        node: str,
        gpu_index: int,
        pci: str,
        class_value: str,
        xid: int,
    ) -> None:
        """Append one hit from raw fields (``-1`` encodes ``None``)."""
        node_id, pci_id, class_id = self.intern(node, pci, class_value)
        self.times.append(time_)
        self.node_ids.append(node_id)
        self.pci_ids.append(pci_id)
        self.gpu_indexes.append(gpu_index)
        self.class_ids.append(class_id)
        self.xids.append(xid)

    def extend_arrays(self, *columns: np.ndarray) -> None:
        """Append hits whose ids are already interned: one vector per
        column, in :data:`HIT_COLUMNS` order."""
        for (name, _), values in zip(HIT_COLUMNS, columns):
            _extend_column(getattr(self, name), values)

    def _remap(self, day: "HitColumns") -> List[np.ndarray]:
        """Per-day id → global id translation tables (tiny: the string
        tables hold a few hundred entries per day at most)."""
        maps = []
        for day_table, table, intern in (
            (day.nodes, self.nodes, self._node_ids),
            (day.pcis, self.pcis, self._pci_ids),
            (day.classes, self.classes, self._class_ids),
        ):
            mapping = []
            for name in day_table:
                i = intern.get(name)
                if i is None:
                    i = intern[name] = len(table)
                    table.append(name)
                mapping.append(i)
            maps.append(np.array(mapping, dtype=np.int64))
        return maps

    def extend_clamped(self, day: "HitColumns", watermark: float) -> None:
        """Fold one day's columns into this (global) store.

        Times below ``watermark`` are clamped to it — exactly the
        stitch :meth:`to_hits` applies — and the day's string ids are
        translated to this store's, each column in one array pass.
        """
        if not len(day):
            return
        node_map, pci_map, class_map = self._remap(day)
        times = np.frombuffer(day.times, dtype=np.float64)
        if times.min() < watermark:
            times = np.maximum(times, watermark)
        _extend_column(self.times, times)
        for name, mapping in (
            ("node_ids", node_map),
            ("pci_ids", pci_map),
            ("class_ids", class_map),
        ):
            ids = np.frombuffer(getattr(day, name), dtype=np.int64)
            _extend_column(getattr(self, name), mapping[ids])
        self.gpu_indexes.extend(day.gpu_indexes)
        self.xids.extend(day.xids)

    def to_hits(self, watermark: float = _NEG_INF) -> List[ErrorHit]:
        """Materialize hits, clamping times below ``watermark``.

        The columns store the appended values themselves, so the
        rebuilt hits are identical to the ones appended (modulo the
        requested clamp).
        """
        nodes = self.nodes
        pcis = self.pcis
        classes = [_CLASS_BY_VALUE[value] for value in self.classes]
        return [
            ErrorHit(
                t if t >= watermark else watermark,
                nodes[n],
                None if g < 0 else g,
                pcis[p],
                classes[c],
                None if x < 0 else x,
            )
            for t, n, g, p, c, x in zip(
                self.times,
                self.node_ids,
                self.gpu_indexes,
                self.pci_ids,
                self.class_ids,
                self.xids,
            )
        ]


@dataclass
class DayScan:
    """Everything one worker derives from one day file.

    All fields are plain picklable data so a scan can cross a process
    boundary.  Times on ``hits`` and ``downtime_lines`` are clamped
    against the *local* watermark only; :func:`merge_scan` stitches
    them onto the global watermark.

    Attributes:
        day: the file name (scan-cache key).
        lines_read: raw lines streamed (blank lines included).
        parsed_lines: lines surviving parse + quarantine.
        lines_decoded: lines materialized as ``str`` — the bytes-first
            scan's fallback traffic (equal to ``lines_read`` on the
            decoded paths).  Observability only; never affects output.
        local_max: largest raw timestamp seen (``None`` when the file
            yielded no parsed lines).
        hits: extracted error hits in columnar form, locally clamped.
        downtime_lines: downtime-relevant lines, locally clamped.
        stats: :class:`ExtractionStats` deltas for this file.
        rejected / repaired / file_incidents: nonzero quarantine
            counter deltas (``repaired`` holds *local* clock-step
            counts; the merge adds boundary clamps).
        events: first ``sample_limit``-per-reason incident events as
            ``(line_idx, sub, op, a, b, c)`` tuples in line order.
        boundary_candidates: the first ``sample_limit`` locally
            *unclamped* lines as ``(line_idx, host, time)`` — the only
            lines that can become clock-step repairs at the shard
            boundary.
        unclamped_times: sorted timestamps of all locally unclamped
            lines (for the boundary repair count), an ``array('d')``.
        scan_wall_seconds: host wall-clock spent scanning (telemetry
            only; never exported deterministically).
        bytes_read: on-disk size actually streamed.
    """

    day: str
    lines_read: int = 0
    parsed_lines: int = 0
    lines_decoded: int = 0
    local_max: Optional[float] = None
    hits: HitColumns = field(default_factory=HitColumns)
    downtime_lines: List[Tuple[float, str, str]] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)
    rejected: Dict[str, int] = field(default_factory=dict)
    repaired: Dict[str, int] = field(default_factory=dict)
    file_incidents: Dict[str, int] = field(default_factory=dict)
    events: List[tuple] = field(default_factory=list)
    boundary_candidates: List[Tuple[int, str, float]] = field(
        default_factory=list
    )
    unclamped_times: array = field(default_factory=_doubles)
    scan_wall_seconds: float = 0.0
    bytes_read: int = 0


class _LineProcessor:
    """The per-line Stage-II logic, state included.

    There is exactly ONE implementation of what a line means: this
    class.  :meth:`parse` decodes nothing itself but parses, quarantines
    and extracts one decoded line; :meth:`process_raw` adds the local
    watermark clamp, one line at a time.  The decoded plain path and
    the gz path feed every line through :meth:`process_raw`; the
    bytes-first scanner (:mod:`repro.pipeline.bytescan`) sends every
    *suspicious* line through :meth:`parse` and clamps all parsed
    lines of a slice in one running-max pass, sharing the same
    counters, sample caps and hit tables.

    The class doubles as the quarantine-shaped sink the tolerant
    reader reports whole-file incidents into, capturing them with
    their position in the line stream so the merge can interleave
    them into the global sample order exactly where the serial pass
    would have recorded them.
    """

    __slots__ = (
        "scan",
        "extractor",
        "event_counts",
        "sample_limit",
        "line_idx",
        "parsed",
        "local_last",
        "clock_repairs",
        "encoding_repairs",
        "lines_decoded",
    )

    def __init__(
        self,
        scan: DayScan,
        inventory: Optional[Inventory],
        sample_limit: int,
    ) -> None:
        self.scan = scan
        self.extractor = XidExtractor(inventory)
        self.event_counts: Dict[str, int] = {}
        self.sample_limit = sample_limit
        self.line_idx = 0
        self.parsed = 0
        self.local_last = _NEG_INF
        self.clock_repairs = 0
        self.encoding_repairs = 0
        self.lines_decoded = 0

    def sample(self, events: List[tuple], reason: str, event: tuple) -> None:
        """Keep ``event`` if ``reason`` is still under its sample cap
        (events reach here in ``(line_idx, sub)`` order per reason)."""
        seen = self.event_counts.get(reason, 0)
        if seen < self.sample_limit:
            self.event_counts[reason] = seen + 1
            events.append(event)

    def file_incident(self, reason: str, name: str) -> None:
        """Reader-quarantine protocol: record a whole-file incident."""
        scan = self.scan
        scan.file_incidents[reason] = scan.file_incidents.get(reason, 0) + 1
        self.sample(
            scan.events,
            reason,
            (self.line_idx + 1, _SUB_FIRST, _OP_FILE, reason, name, None),
        )

    def parse(
        self, raw: str, line_idx: int, events: List[tuple]
    ) -> Optional[Tuple[RawLine, Optional[ErrorHit], bool]]:
        """Parse, quarantine and extract line ``line_idx`` (decoded).

        Everything but the watermark: returns ``None`` for a blank or
        rejected line, else the parsed line, its hit (which carries
        the *unclamped* time) and whether the line feeds the
        downtime/gangd channel.  Rejection and encoding samples go to
        ``events``.
        """
        self.lines_decoded += 1
        if not raw.strip():
            return None
        scan = self.scan
        try:
            line = parse_line(raw)
        except LogFormatError as exc:
            reason = exc.reason
            scan.rejected[reason] = scan.rejected.get(reason, 0) + 1
            self.extractor.stats.malformed_lines += 1
            self.sample(
                events,
                reason,
                (line_idx, _SUB_FIRST, _OP_REJECT, reason, raw.rstrip("\n"), None),
            )
            return None
        if "\ufffd" in line.message:
            self.encoding_repairs += 1
            self.sample(
                events,
                REASON_ENCODING,
                (
                    line_idx,
                    _SUB_FIRST,
                    _OP_ENCODING,
                    REASON_ENCODING,
                    line.message,
                    None,
                ),
            )
        self.parsed += 1
        # One shared channel carries both stateful-extraction line
        # families: downtime markers and gangd recovery lines.  The
        # downstream extractors each prefilter on their own marker.
        message = line.message
        stateful = DOWNTIME_MARKER in message or RECOVERY_MARKER in message
        return line, self.extractor.extract_line(line), stateful

    def process_raw(self, raw: str) -> None:
        """Consume one raw line (terminator optional: every consumer
        of ``raw`` strips it before use, so both spellings behave
        identically)."""
        self.line_idx += 1
        scan = self.scan
        parsed = self.parse(raw, self.line_idx, scan.events)
        if parsed is None:
            return
        line, hit, stateful = parsed
        time_ = line.time
        if time_ < self.local_last:
            self.clock_repairs += 1
            self.sample(
                scan.events,
                REASON_CLOCK_STEP,
                (
                    self.line_idx,
                    _SUB_CLOCK,
                    _OP_CLOCK,
                    line.host,
                    time_,
                    self.local_last,
                ),
            )
            time_ = self.local_last
        else:
            scan.unclamped_times.append(time_)
            if len(scan.boundary_candidates) < self.sample_limit:
                scan.boundary_candidates.append(
                    (self.line_idx, line.host, time_)
                )
            self.local_last = time_
        if stateful:
            scan.downtime_lines.append((time_, line.host, line.message))
        if hit is not None:
            scan.hits.append_fields(
                time_,
                hit.node,
                -1 if hit.gpu_index is None else hit.gpu_index,
                hit.pci_address,
                hit.event_class.value,
                -1 if hit.xid is None else hit.xid,
            )

    def finish(self) -> None:
        """Fold the accumulated state into the scan's summary fields."""
        scan = self.scan
        scan.lines_read = self.line_idx
        scan.parsed_lines = self.parsed
        scan.lines_decoded = self.lines_decoded
        scan.local_max = (
            self.local_last if self.local_last != _NEG_INF else None
        )
        if self.encoding_repairs:
            scan.repaired[REASON_ENCODING] = self.encoding_repairs
        if self.clock_repairs:
            scan.repaired[REASON_CLOCK_STEP] = self.clock_repairs
        scan.stats = {
            name: value
            for name, value in vars(self.extractor.stats).items()
            if value
        }


def scan_plain_buffer(
    buf,
    day: str,
    inventory: Optional[Inventory] = None,
    sample_limit: int = Quarantine.DEFAULT_SAMPLE_LIMIT,
) -> DayScan:
    """The bytes-first scan of one buffer of whole syslog lines.

    ``buf`` (``bytes`` or an ``mmap``) is the day file ``day``, or the
    run of its lines one stream poll found complete; a last line
    without a terminator counts.  The buffer is scanned in array
    passes (:mod:`repro.pipeline.bytescan`); only *suspicious* lines —
    marker matches, non-ASCII, torn shapes, anything non-canonical —
    are decoded, each through :meth:`_LineProcessor.parse`.
    :func:`merge_scan` stitches the watermark exactly for any
    contiguous split of a line stream, so merging the scans of a
    file's pieces in order equals merging the scan of the whole file.
    """
    scan = DayScan(day=day, bytes_read=len(buf))
    proc = _LineProcessor(scan, inventory, sample_limit)
    scan_buffer(buf, proc)
    proc.finish()
    return scan


def scan_day_file(
    path: Path,
    inventory: Optional[Inventory] = None,
    sample_limit: int = Quarantine.DEFAULT_SAMPLE_LIMIT,
    force_decode: bool = False,
) -> DayScan:
    """Run the watermark-independent half of Stage II over one file.

    This is the pipeline's hot loop, shared verbatim by the serial
    pass (``workers=1``) and every pool worker — parallelism cannot
    change per-line behaviour because there is only one implementation
    of it.

    Plain files take the bytes-first path: the whole file is mapped
    (or read) as one buffer and handed to :func:`scan_plain_buffer`.
    Gz files keep the tolerant chunked incremental decode.
    ``force_decode=True`` pins the legacy decoded path for plain files
    too; it is the reference implementation the bytes-first
    differential tests compare against, and the automatic fallback when
    a file cannot be buffered.
    """
    started = time.perf_counter()
    buf = None
    if not force_decode and not path.name.endswith(".gz"):
        buf = open_plain_buffer(path)
    if buf is not None:
        try:
            scan = scan_plain_buffer(buf, path.name, inventory, sample_limit)
        finally:
            close_plain_buffer(buf)
    else:
        scan = DayScan(day=path.name)
        try:
            scan.bytes_read = path.stat().st_size
        except OSError:
            pass
        proc = _LineProcessor(scan, inventory, sample_limit)
        for raw in iter_file_lines(path, proc):
            proc.process_raw(raw)
        proc.finish()
    scan.scan_wall_seconds = time.perf_counter() - started
    return scan


def merge_scan(
    scan: DayScan,
    watermark: float,
    quarantine: Quarantine,
    stats: ExtractionStats,
    downtime_extractor: DowntimeExtractor,
    hits_out: HitColumns,
    recovery_extractor: Optional[RecoveryExtractor] = None,
) -> float:
    """Fold one scan into the global accumulators, in day order.

    Args:
        scan: the shard to merge (its day must be the next one in
            order).
        watermark: the monotonic watermark carried out of the previous
            day (``-inf`` for the first).
        quarantine: the run's global quarantine (counters restored in
            bulk, samples replayed in order).
        stats: the run's global extraction stats (deltas added).
        downtime_extractor: the run's downtime state machine (fed the
            shard's downtime lines, stitched times, in line order).
        hits_out: the run's accumulated error hits, folded
            column-to-column.
        recovery_extractor: optional gang-recovery state machine; fed
            the same stitched line channel (it prefilters on its own
            marker, so non-recovery runs pay nothing).

    Returns:
        the watermark to carry into the next day.
    """
    # Boundary clamps: locally unclamped lines below the incoming
    # watermark would have been repaired by the serial pass.
    boundary_repairs = 0
    if watermark != _NEG_INF and scan.unclamped_times:
        boundary_repairs = bisect_left(scan.unclamped_times, watermark)

    # --- counters (exact, bulk) --------------------------------------
    repaired = dict(scan.repaired)
    if boundary_repairs:
        repaired[REASON_CLOCK_STEP] = (
            repaired.get(REASON_CLOCK_STEP, 0) + boundary_repairs
        )
    delta: Dict[str, Dict[str, int]] = {}
    if scan.rejected:
        delta["rejected"] = dict(scan.rejected)
    if repaired:
        delta["repaired"] = repaired
    if scan.file_incidents:
        delta["file_incidents"] = dict(scan.file_incidents)
    quarantine.restore(delta)

    # --- samples (exact global order) --------------------------------
    events = scan.events
    if boundary_repairs:
        events = list(events)
        for line_idx, host, raw_time in scan.boundary_candidates:
            if raw_time < watermark:
                insort(
                    events,
                    (line_idx, _SUB_CLOCK, _OP_CLOCK, host, raw_time, _NEG_INF),
                )
    for line_idx, sub, op, a, b, c in events:
        if op == _OP_CLOCK:
            target = c if c > watermark else watermark
            quarantine.record_sample(
                REASON_CLOCK_STEP,
                f"{a}: {b:.6f} clamped to {target:.6f}",
                repaired=True,
            )
        elif op == _OP_REJECT:
            quarantine.record_sample(a, b, repaired=False)
        elif op == _OP_ENCODING:
            quarantine.record_sample(REASON_ENCODING, b, repaired=True)
        else:  # _OP_FILE
            quarantine.record_sample(a, b, repaired=False)

    # --- stats --------------------------------------------------------
    for name, value in scan.stats.items():
        setattr(stats, name, getattr(stats, name) + value)

    # --- hits and downtime lines (watermark stitch) -------------------
    # The clamp is applied inline (``t < -inf`` is vacuously false for
    # the first day).
    hits_out.extend_clamped(scan.hits, watermark)
    for t, host, message in scan.downtime_lines:
        raw = RawLine(
            time=watermark if t < watermark else t, host=host, message=message
        )
        downtime_extractor.feed(raw)
        if recovery_extractor is not None:
            recovery_extractor.feed(raw)

    # --- watermark ----------------------------------------------------
    if scan.local_max is not None and scan.local_max > watermark:
        return scan.local_max
    return watermark
