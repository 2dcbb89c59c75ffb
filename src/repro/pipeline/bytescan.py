"""Bytes-first scan of day files (the Stage-II hot loop).

The decoded reference scan decodes every line to ``str`` and parses,
extracts and clamps it one at a time, yet the overwhelming majority of
lines need none of that: a canonical ``timestamp host message`` line's
only observable scan effects are its timestamp (watermark, clock-step
accounting), the parsed-line counters and — for ``NVRM:`` lines — the
XID/ECC extraction.  This module computes all of those from the raw
bytes, in array passes.

A day file's bytes — a plain file's mapping, a gz day decompressed, or
a stream poll's complete lines — are walked in line-aligned slices of
at most :data:`SLICE_BYTES` (a ``\\r\\n`` is never split; a line longer
than a slice makes one slice of its own).  A slice of a mapping is
copied out of it once, so no array ever views the file's mapping (the
caller closes it, and an exported ``mmap`` cannot close); a ``bytes``
buffer is read in place.  Each slice is then

1. split into lines under universal newlines;
2. screened: a line holding an odd byte or a torn-write shape, or a
   ``healthcheck: node`` / ``gangd: job`` marker together with an
   ``NVRM:``, is *suspicious*;
3. parsed in columns: every other line's timestamp is validated with
   vectorized compares, and the lines are cut into *runs*: a line
   whose first :data:`_PREFIX` bytes after the timestamp equal the
   previous line's continues that line's run (an error burst repeats
   a whole line but its time).  Each run's first line has its host
   and first ``NVRM:`` marker located with bounded window searches;
4. extracted per distinct ``(host, pci, code)`` byte triple: the runs'
   XID and ECC lines are grouped by their triple, and each distinct
   triple is parsed, classified and resolved once per scan.  A run
   whose first line extracted an XID line (a hit, an excluded or an
   unknown XID) from within those prefix bytes is decided: its other
   lines take that line's spans, kind and triple.  Every other run's
   other lines are parsed and extracted on their own;
5. decoded where it must be: suspicious lines and every line the
   columns cannot prove canonical go through
   :meth:`~repro.pipeline.shard._LineProcessor.parse`, the reference's
   own parse and extract (``scan_day_file(..., force_decode=True)``
   keeps the whole decoded path callable as the reference).  A
   canonical marker line stays in the array lane: its time and host
   come from the columns and its message from its bytes;
6. clamped: the parsed lines of both lanes, in line order, meet the
   local watermark in one running-max pass, which also yields the
   clock-step repairs, the unclamped times, the boundary candidates
   and the per-reason sample caps in ``(line_idx, sub)`` order; the
   marker lines of both lanes join the downtime/gangd channel in line
   order, at their clamped times.

Every shortcut below is an equivalence (argued inline), not a
heuristic, so the array passes cannot change scan output — only skip
work.  A differential fuzz suite (``tests/test_bytes_prefilter.py``)
checks this against chaos-corrupted corpora and slice-edge payloads.

Manual XID/ECC parsing
----------------------
The extraction patterns (:data:`~repro.pipeline.extract.XID_PATTERN`,
:data:`~repro.pipeline.extract.ECC_PATTERN`) both begin with the
literal ``"NVRM: "`` — every possible match starts at an ``"NVRM:"``
occurrence, and step 3 knows each line's first one.  The fixed shape
at that occurrence is an exact mirror of the regex **at that
position**: the PCI character class contains neither ``")"`` nor
space, so the group boundary is forced (the first ``")"`` for XID, the
first ``": uncorrectable ECC error"`` for ECC — greedy backtracking
cannot cross either literal, whose text contains non-class bytes), and
the XID code boundary is forced the same way (``\\d+`` cannot contain
the ``","`` that must follow it).  A successful parse at the first
occurrence is therefore the regex's leftmost match.  A *failed* parse
proves the regex fails at that occurrence; if the line contains no
second ``"NVRM:"`` there is no other candidate and the line matches
nothing.  ``extract_line`` tries the XID pattern before the ECC one,
so an XID parse decides the line, but an ECC parse decides it only
when no second ``"NVRM:"`` follows (the XID pattern may match there).
A second occurrence after a failed or an ECC parse is the one shape
the manual parse does not decide — those (vanishingly rare) lines take
the decoded fallback.

Why bytes-level tests are sound
-------------------------------
``0x0A``/``0x0D`` never occur inside a multi-byte UTF-8 sequence, so
byte-level line splitting agrees with splitting after decode.  ASCII
bytes always decode to themselves under ``errors="replace"`` (Python's
maximal-subpart U+FFFD replacement only ever consumes non-ASCII
bytes), so an ASCII marker is present in the decoded line iff its
bytes are present in the raw line.  Conversely, any line that could
decode differently than its raw bytes (non-ASCII), split differently
under ``str.split`` (the non-space ASCII whitespace set), or trip the
torn-write logic is routed to the fallback by step 2.  An all-ASCII
line decodes to its bytes, so a marker line's message is its bytes
after the host.
"""

from __future__ import annotations

import re
from datetime import date
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.timebase import STUDY_EPOCH
from ..core.xid import EventClass, classify_xid, is_excluded
from ..recovery.config import RECOVERY_MARKER
from ..syslog.quarantine import REASON_CLOCK_STEP
from .downtime import DOWNTIME_MARKER
from .extract import NVRM_MARKER

__all__ = ["SLICE_BYTES", "scan_buffer"]

#: Upper bound on one slice of the buffer (one line longer than this
#: is a slice of its own): it bounds the scan's working set, which is
#: a few times the slice size whatever the file size.
SLICE_BYTES = 256 * 1024

#: Width of the bounded per-line searches (host end, ``")"``, ``","``)
#: and of each half of a triple's grouping key; a search that runs off
#: its window falls back to an exact search over the whole slice.
_WIDTH = 48

#: Bytes each slice copy reaches past the slice's end, so every window
#: gather, and every look one or two bytes past a line end, stays in
#: bounds.  They are the next slice's first bytes, or zeros at the
#: buffer's end: no shape the scan looks for contains a NUL byte or a
#: line terminator, and the slice's last line ends with one (or, at the
#: buffer's end, with the zeros), so no shape can match across the
#: slice's end either way.
_PAD = 2 * _WIDTH

#: Bytes after a line's timestamp that make it a repeat of the line
#: before it (step 3): long enough to hold the host, the ``NVRM:`` and
#: the XID shape up to the code's ``","`` of a Delta-shaped burst line,
#: and a whole number of words that still fits in :data:`_PAD`.
_PREFIX = 64


#: Bytes that make a line unsafe for the array lane: anything >= 0x80
#: (may decode to U+FFFD, to non-ASCII whitespace like U+0085/U+00A0,
#: or to unicode digits) and the ASCII characters ``str.split()``
#: treats as whitespace besides space/``\\r``/``\\n`` (``\\t``, vertical
#: tab, form feed, FS/GS/RS/US) — ``bytes`` and ``str`` field
#: splitting agree on everything else.
_ODD = np.zeros(256, dtype=bool)
_ODD[[0x09, 0x0B, 0x0C, 0x1C, 0x1D, 0x1E, 0x1F]] = True
_ODD[0x80:] = True


def _bytes_array(text: bytes) -> np.ndarray:
    return np.frombuffer(text, dtype=np.uint8)


#: A canonical syslog timestamp and the space after it, as per-byte
#: bounds: ``0``-``9`` at the 20 digit positions, the literal at the
#: seven others.  The same 27-byte shape anywhere but at a line start
#: is a torn write (the reader's ``_EMBEDDED_TIMESTAMP``, which only
#: inspects the message field — always preceded by the line's own
#: timestamp and host, so never at a line start).
_TS_LO = _bytes_array(b"0000-00-00T00:00:00.000000 \0\0\0\0\0")
_TS_HI = _bytes_array(b"9999-99-99T99:99:99.999999 \xff\xff\xff\xff\xff")
_TS_LEN = 27
_TS_DIGITS = np.flatnonzero(_TS_LO[:_TS_LEN] != _TS_HI[:_TS_LEN])
_ALL_TRUE = np.uint64(0x0101010101010101)
#: Weights of the 20 timestamp digits: column 0 sums the day key
#: ``YYYYMMDD``, column 1 the microseconds into the day.  Every product
#: and partial sum is an integer below 2**53, so the ``float64``
#: product is exact in any summation order.
_TS_WEIGHTS = np.zeros((20, 2))
_TS_WEIGHTS[:8, 0] = 10.0 ** np.arange(7, -1, -1)
_TS_WEIGHTS[8:14, 1] = [36e9, 36e8, 6e8, 6e7, 1e7, 1e6]
_TS_WEIGHTS[14:, 1] = 10.0 ** np.arange(5, -1, -1)


def _word_pattern(text: bytes) -> Tuple[np.ndarray, np.ndarray]:
    """``(mask, value)`` little-endian words matching ``text`` at the
    start of a word-gathered window (any bytes after it)."""
    width = -(-len(text) // 8) * 8
    mask = (b"\xff" * len(text)).ljust(width, b"\0")
    return (
        np.frombuffer(mask, dtype="<u8"),
        np.frombuffer(text.ljust(width, b"\0"), dtype="<u8"),
    )


_NVRM = _word_pattern(NVRM_MARKER.encode("ascii"))
#: Markers whose lines feed the downtime/gangd channel (which carries
#: the message text), each with one of its bytes that is rare in
#: syslog text and that byte's offset: candidates are found at that
#: byte, then matched whole.
_MARKERS = tuple(
    (_word_pattern(marker.encode("ascii")), ord(anchor), marker.index(anchor))
    for marker, anchor in ((DOWNTIME_MARKER, "h"), (RECOVERY_MARKER, "j"))
)
#: The fixed byte shapes the XID/ECC parse anchors on, right after the
#: ``"NVRM:"`` occurrence.
_XID_SHAPE = _word_pattern(b" Xid (PCI:")
_ECC_SHAPE = _word_pattern(b" GPU at PCI:")
_ECC_TAIL = b": uncorrectable ECC error"
#: Any byte outside the patterns' PCI character class ``[0-9A-Fa-f:]``.
_PCI_BAD = re.compile(rb"[^0-9A-Fa-f:]").search
_ECC_CLASS_VALUE = EventClass.UNCORRECTABLE_ECC.value

_EPOCH_DATE = STUDY_EPOCH.date()
#: Microsecond counts below this convert to ``float64`` exactly, so
#: ``micros / 1e6`` is then the correctly rounded quotient Python's
#: ``int / int`` gives; larger ones (dates centuries from the epoch)
#: divide as Python ints.
_EXACT_MICROS = 2**53
#: "No occurrence" position: beyond any slice.
_NOWHERE = np.int64(2**62)

#: What a distinct triple (or a line) extracts to.
_HIT, _EXCLUDED, _UNKNOWN, _BAD, _PLAIN = range(5)

#: Sample-event sort key: ``(line_idx, sub)`` is unique per event.
_event_order = itemgetter(0, 1)


class _Triple:
    """The verdict on one distinct ``(host, pci, code)`` byte triple
    (``code`` is ``None`` for an ECC line), with the interned hit tail
    once a hit of it has been appended."""

    __slots__ = (
        "kind", "host", "pci", "class_value", "xid", "gpu", "bump",
        "node_id", "pci_id", "class_id",
    )

    def __init__(
        self,
        kind: int,
        host: str = "",
        pci: str = "",
        class_value: str = "",
        xid: int = -1,
        gpu: int = -1,
        bump: int = 0,
    ) -> None:
        self.kind = kind
        self.host = host
        self.pci = pci
        self.class_value = class_value
        self.xid = xid
        self.gpu = gpu
        self.bump = bump
        self.node_id = -1
        self.pci_id = -1
        self.class_id = -1


def _day_base(key: int) -> Optional[int]:
    """Microseconds from the study epoch to midnight of day
    ``YYYYMMDD``, or ``None`` for a date the canonical parser rejects
    (``date.fromisoformat`` decides, as it does there)."""
    try:
        day = date.fromisoformat(
            f"{key // 10000:04d}-{key // 100 % 100:02d}-{key % 100:02d}"
        )
    except ValueError:
        return None
    return (day - _EPOCH_DATE).days * 86_400_000_000


def _slice_end(buf, start: int, size: int) -> int:
    """Where the slice beginning at line start ``start`` ends.

    Just past the last line terminator in the next
    :data:`SLICE_BYTES` (just past the whole ``\\r\\n`` when that
    terminator is its ``\\r``), or just past the first terminator
    after them when one line is longer than a slice.
    """
    end = start + SLICE_BYTES
    if end >= size:
        return size
    cut = max(buf.rfind(b"\n", start, end), buf.rfind(b"\r", start, end))
    if cut < 0:
        found = [i for i in (buf.find(b"\n", end), buf.find(b"\r", end)) if i >= 0]
        if not found:
            return size
        cut = min(found)
    if buf[cut] == 0x0D and cut + 1 < size and buf[cut + 1] == 0x0A:
        cut += 1
    return cut + 1


def _line_spans(a: np.ndarray, n: int, has_cr: bool):
    """``(starts, ends, terminator_bytes)`` of the slice's lines.

    Same line boundaries as the decoded reference's
    ``replace("\\r\\n", "\\n").replace("\\r", "\\n")`` translation; an
    unterminated tail counts as a line when it is not empty.
    """
    body = a[:n]
    lf = body == 0x0A
    if has_cr:
        cr = body == 0x0D
        term_bytes = np.count_nonzero(lf) + np.count_nonzero(cr)
        lf[1:] &= ~cr[:-1]  # the "\n" of "\r\n" ends no line of its own
        ends = np.flatnonzero(cr | lf)
        nxt = ends + 1 + (cr[ends] & (a[ends + 1] == 0x0A))
    else:
        ends = np.flatnonzero(lf)
        term_bytes = len(ends)
        nxt = ends + 1
    starts = np.empty(len(ends) + 1, dtype=np.int64)
    starts[0] = 0
    starts[1:] = nxt
    if starts[-1] < n:
        ends = np.append(ends, n)
    else:
        starts = starts[:-1]
    return starts, ends, term_bytes


def _row_of(starts: np.ndarray, positions) -> np.ndarray:
    """Index of the line holding each (non-terminator) byte position."""
    return np.searchsorted(starts, positions, side="right") - 1


def _torn_positions(a: np.ndarray, n: int, starts: np.ndarray) -> np.ndarray:
    """Starts of every canonical timestamp-plus-space shape that does
    not begin a line: the torn-write tell (the shape holds no
    terminator, so it lies inside one line).

    Candidates are the positions with the shape's ``"T"`` and first
    ``":"`` in place; each is then checked against the whole shape.
    """
    shape = (a[10 : 10 + n] == 0x54) & (a[13 : 13 + n] == 0x3A)
    shape[starts] = False
    if not shape.any():
        return np.empty(0, dtype=np.int64)
    cand = np.flatnonzero(shape)
    return cand[_canonical(_words(a, n, cand, 4))]


#: ``_LOW_BYTES[c]`` keeps the low ``c`` bytes of a little-endian word.
_LOW_BYTES = np.array(
    [(1 << (8 * c)) - 1 for c in range(8)] + [2**64 - 1], dtype=np.uint64
)
_BYTE_OFFSETS = np.array([0, 8, 16], dtype=np.int64)


def _rows(a: np.ndarray, n: int, width: int) -> np.ndarray:
    """A read-only view whose row ``i`` (``i <= n``) is the ``width``
    bytes from ``a[i]`` on (the ``ndarray`` constructor costs a fraction
    of ``as_strided``, which matters on a stream poll's small slices)."""
    rows = np.ndarray((n + 1, width), np.uint8, a, 0, (1, 1))
    rows.flags.writeable = False
    return rows


def _words(a: np.ndarray, n: int, at: np.ndarray, count: int) -> np.ndarray:
    """The ``8 * count`` bytes at each position of ``at``, as ``count``
    little-endian words per row."""
    return _rows(a, n, 8 * count)[at].view("<u8")


def _matches(words: np.ndarray, pattern: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Rows of ``words`` (from :func:`_words`) that start with the
    pattern from :func:`_word_pattern`."""
    mask, value = pattern
    found = (words[:, 0] & mask[0]) == value[0]
    for i in range(1, len(mask)):
        found &= (words[:, i] & mask[i]) == value[i]
    return found


def _canonical(block: np.ndarray) -> np.ndarray:
    """Rows of a 4-word block (from :func:`_words`) that start with a
    canonical timestamp and a space: the 32 per-byte bound checks are
    folded as bytes of words, so each row takes four word tests."""
    raw = block.view(np.uint8)
    inside = ((raw >= _TS_LO) & (raw <= _TS_HI)).view(np.uint64)
    return (inside[:, 0] & inside[:, 1] & inside[:, 2] & inside[:, 3]) == _ALL_TRUE


def _first(
    a: np.ndarray,
    n: int,
    window: np.ndarray,
    at: np.ndarray,
    stop: np.ndarray,
    byte: int,
) -> np.ndarray:
    """Per row, the first position of ``byte`` in ``[at, stop)``, or
    ``stop`` when there is none — ``bytes.find(byte, at, stop)`` with
    ``stop`` for ``-1``."""
    hit = window[at] == byte
    off = hit.argmax(axis=1)
    pos = at + off
    missed = ~hit[np.arange(len(at)), off]
    if missed.any():
        pos[missed] = stop[missed]
        far = missed & (at + _WIDTH < stop)
        if far.any():
            every = np.append(np.flatnonzero(a[:n] == byte), _NOWHERE)
            pos[far] = every[np.searchsorted(every, at[far])]
    return np.minimum(pos, stop)


class _Scan:
    """One buffer's scan: the triple memo that outlives a slice, and
    the per-slice array passes."""

    def __init__(self, proc) -> None:
        self.proc = proc
        self.triples: Dict[tuple, _Triple] = {}
        self.keyed: Dict[bytes, _Triple] = {}
        # The current slice's triples, and each one's index among them.
        self.slice_triples: List[_Triple] = []
        self.slots: Dict[int, int] = {}

    def _triple(
        self, host_b: bytes, pci_b: bytes, code_b: Optional[bytes]
    ) -> _Triple:
        """The memoized verdict on one triple: decided once per scan,
        exactly as ``extract_line`` decides each of its lines."""
        key = (host_b, pci_b, code_b)
        triple = self.triples.get(key)
        if triple is not None:
            return triple
        xid = -1
        cls_value = _ECC_CLASS_VALUE
        pci_ok = bool(pci_b) and _PCI_BAD(pci_b) is None
        if not pci_ok or (code_b is not None and not code_b.isdigit()):
            triple = _Triple(_BAD)
        elif code_b is not None and is_excluded(int(code_b)):
            triple = _Triple(_EXCLUDED)
        elif code_b is not None and classify_xid(int(code_b)) is None:
            triple = _Triple(_UNKNOWN)
        else:
            if code_b is not None:
                xid = int(code_b)
                cls_value = classify_xid(xid).value  # type: ignore[union-attr]
            host = host_b.decode("ascii")
            pci = pci_b.decode("ascii")
            # resolve_gpu counts one unresolved line per call; keep the
            # per-line count and charge it per line instead.
            extractor = self.proc.extractor
            stats = extractor.stats
            before = stats.unresolved_pci_lines
            gpu = extractor.resolve_gpu(host, pci)
            bump = stats.unresolved_pci_lines - before
            stats.unresolved_pci_lines = before
            triple = _Triple(
                _HIT, host, pci, cls_value, xid, -1 if gpu is None else gpu, bump
            )
        self.triples[key] = triple
        return triple

    # -- one slice -----------------------------------------------------

    def _slot_of(self, triple: _Triple) -> int:
        """``triple``'s index in the slice's triple table."""
        index = self.slots.get(id(triple))
        if index is None:
            index = self.slots[id(triple)] = len(self.slice_triples)
            self.slice_triples.append(triple)
        return index

    def scan_slice(self, raw, n: int, has_cr: bool) -> None:
        """Consume one slice: the first ``n`` bytes of ``raw`` (``bytes``
        or a ``memoryview``), whole lines, followed by :data:`_PAD` more
        bytes; ``has_cr`` says whether the slice holds a ``\\r``."""
        a = np.frombuffer(raw, dtype=np.uint8)
        body = a[:n]
        window = _rows(a, n, _WIDTH)
        starts, ends, term_bytes = _line_spans(a, n, has_cr)
        nvrm = np.flatnonzero(body == 0x4E)  # "N"
        nvrm = nvrm[_matches(_words(a, n, nvrm, 1), _NVRM)]
        nvrm = np.append(nvrm, [_NOWHERE, _NOWHERE])

        # ---- screen: lines the decoded path must see ---------------------
        suspect = np.zeros(len(starts), dtype=bool)
        if body.max() >= 0x80 or np.count_nonzero(body < 0x20) != term_bytes:
            suspect[_row_of(starts, np.flatnonzero(_ODD[body]))] = True
        suspect[_row_of(starts, _torn_positions(a, n, starts))] = True
        # A marker can start neither in the timestamp nor in a host
        # that parse_line accepts (its first space follows a ":"), so a
        # marker anywhere on an array-lane line is one in its message.
        # A marker line that also holds an "NVRM:" is decoded.
        marker = np.zeros(len(starts), dtype=bool)
        for pattern, anchor, offset in _MARKERS:
            at = np.flatnonzero(body == anchor) - offset
            at = at[at >= 0]
            at = at[_matches(_words(a, n, at, len(pattern[0])), pattern)]
            marker[_row_of(starts, at)] = True
        both = np.flatnonzero(marker)
        both = both[nvrm[np.searchsorted(nvrm, starts[both])] < ends[both]]
        suspect[both] = True

        # ---- columns: timestamp ------------------------------------------
        # The timestamp parse mirrors parse_syslog_timestamp's canonical
        # path: field values in range, date.fromisoformat per distinct
        # day, and one integer-microsecond division.
        rows = np.flatnonzero((ends - starts >= 30) & ~suspect)
        block = _words(a, n, starts[rows], 4)
        keep = np.flatnonzero(_canonical(block))
        rows = rows[keep]
        d = block.view(np.uint8)[keep][:, _TS_DIGITS] - np.uint8(0x30)
        hms = d[:, 8:14:2] * np.uint8(10) + d[:, 9:14:2]  # hour, minute, second
        day_keys, into_day = (d @ _TS_WEIGHTS).T
        days = np.unique(day_keys)
        day_of = np.searchsorted(days, day_keys)
        bases = [_day_base(key) for key in days.astype(np.int64).tolist()]
        keep = np.flatnonzero(
            (hms[:, 0] < 24)
            & (hms[:, 1] < 60)
            & (hms[:, 2] < 60)
            & np.array([b is not None for b in bases], dtype=bool)[day_of]
            & (a[starts[rows] + 27] != 0x20)
        )
        rows = rows[keep]
        S = starts[rows]
        E = ends[rows]
        micros = np.array([b or 0 for b in bases], dtype=np.int64)[
            day_of[keep]
        ] + into_day[keep].astype(np.int64)
        times = micros / 1e6
        for i in np.flatnonzero(np.abs(micros) >= _EXACT_MICROS).tolist():
            times[i] = int(micros[i]) / 10**6

        # ---- runs: each burst decided once -------------------------------
        # Say line R's first _PREFIX bytes after the timestamp equal
        # those of line H, which extracted an XID line (a hit, an
        # excluded or an unknown XID: its first "NVRM:" parsed) whose
        # "," lies inside those bytes.  Host end, "NVRM:", shape, ")"
        # and "," then all lie inside the equal bytes, which hold no
        # line terminator, so R's searches find each at the same offset
        # before R's end: no "NVRM:" can start in R's timestamp, and
        # an earlier one than H's would lie in the equal bytes too.
        # R's host, pci and code bytes are H's, so R's triple, kind and
        # slot are H's, and nothing past the prefix (a second "NVRM:",
        # another pid) matters once the first "NVRM:" parsed.  An odd
        # byte or a torn shape past the prefix kept R out of ``rows``.
        # So a run's first line is decided, and so are its others
        # when it is such a line H; each other line of any other run is
        # decided on its own.
        prefix = _words(a, n, S + 27, _PREFIX // 8)
        head = np.ones(len(rows), dtype=bool)
        # Eight word compares per line are eight bools, one word.
        head[1:] = (prefix[1:] != prefix[:-1]).view(np.uint64)[:, 0] != 0
        self.slice_triples = []
        self.slots = {}
        lead = np.flatnonzero(head)
        host_end, kind, slot, fallback, comma = self._decide(
            raw, a, n, window, nvrm, S[lead], E[lead]
        )
        # A kind other than _PLAIN is a parsed triple of an accepted
        # line; a "," before _NOWHERE makes it an XID line.
        whole = (kind != _PLAIN) & (comma < S[lead] + 27 + _PREFIX)
        run = np.cumsum(head) - 1  # each line's run, as an index of lead
        host_end = host_end[run] + (S - S[lead[run]])
        kind, slot, fallback = kind[run], slot[run], fallback[run]
        alone = np.flatnonzero(~head & ~whole[run])
        if len(alone):
            decided = self._decide(raw, a, n, window, nvrm, S[alone], E[alone])
            for column, values in zip((host_end, kind, slot, fallback), decided):
                column[alone] = values

        fast = np.flatnonzero(~fallback)
        rows = rows[fast]
        self._commit(
            raw, starts, ends, rows, S[fast] + 27, host_end[fast],
            times[fast], kind[fast], slot[fast], self.slice_triples,
            np.flatnonzero(marker[rows]),
        )

    def _decide(self, raw, a, n, window, nvrm, S, E):
        """Parse and extract the lines starting at ``S`` and ending at
        ``E`` (screened, canonical timestamps, a host byte after it).

        Returns, per line, its host end, its extraction kind and slot
        in the slice's triple table, whether the decoded lane must take
        it, and where its XID code's ``","`` lies (:data:`_NOWHERE` for
        a line extracted as no XID line).
        """
        m = len(S)
        # The canonical shape "TTTTTTTTTTTTTTTTTTTTTTTTTT H... M..." with
        # single-space separators: then str.split(maxsplit=2) yields
        # exactly these three spans (no odd whitespace on the line), the
        # host neither is empty nor ends in ":", and the message is
        # non-empty — i.e. parse_line() succeeds.
        sp = _first(a, n, window, S + 28, E, 0x20)
        ok = (sp + 1 < E) & (a[sp + 1] != 0x20) & (a[sp - 1] != 0x3A)

        # ---- the first NVRM: marker --------------------------------------
        slot = np.full(m, -1, dtype=np.int64)
        j = np.searchsorted(nvrm, S)
        p = nvrm[j]
        # A marker inside the timestamp/host fields: no message match.
        fallback = ~ok | ((p < E) & (p <= sp))
        # Lines whose first marker parses as neither pattern: they match
        # nothing unless a second marker follows (then undecided).
        unparsed = np.zeros(m, dtype=bool)
        marked = np.flatnonzero(ok & (p < E) & (p > sp))
        shape = _words(a, n, p[marked] + 5, 2)
        is_xid = _matches(shape, _XID_SHAPE)
        is_ecc = _matches(shape, _ECC_SHAPE)
        unparsed[marked[~is_xid & ~is_ecc]] = True

        # XID: "(PCI:" pci "): " code "," at the marker.
        xi = marked[is_xid]
        at = p[xi] + 15
        close = _first(a, n, window, at, E[xi], 0x29)  # ")"
        good = (close < E[xi]) & (a[close + 1] == 0x3A) & (a[close + 2] == 0x20)
        unparsed[xi[~good]] = True
        xi, at, close = xi[good], at[good], close[good]
        comma = _first(a, n, window, close + 3, E[xi], 0x2C)  # ","
        good = comma < E[xi]
        unparsed[xi[~good]] = True
        xi, at, close, comma = xi[good], at[good], close[good], comma[good]
        commas = np.full(m, _NOWHERE, dtype=np.int64)
        commas[xi] = comma
        h0 = S[xi] + 27
        h1 = sp[xi]
        slot_of = self._slot_of

        def xid_triple(r: int) -> _Triple:
            return self._triple(
                bytes(raw[h0[r] : h1[r]]),
                bytes(raw[at[r] : close[r]]),
                bytes(raw[close[r] + 3 : comma[r]]),
            )

        # Group by the triple's bytes.  A line's fingerprint is the 16
        # bytes from its host's start and the 24 from its pci's start,
        # each masked to its span, and both span lengths; with the host
        # and the span pci "): " code inside those windows, equal
        # fingerprints are equal triples.  Each distinct fingerprint is
        # decided once per scan.
        hlen = h1 - h0
        rlen = comma - at
        short = np.flatnonzero((hlen <= 16) & (rlen <= 24))
        if len(short):
            hs = hlen[short, None]
            rs = rlen[short, None]
            keys = np.concatenate(
                (
                    _words(a, n, h0[short], 2),
                    _words(a, n, at[short], 3),
                    (hs | rs << 8).astype(np.uint64),
                ),
                axis=1,
            )
            keys[:, :2] &= _LOW_BYTES[np.clip(hs - _BYTE_OFFSETS[:2], 0, 8)]
            keys[:, 2:5] &= _LOW_BYTES[np.clip(rs - _BYTE_OFFSETS, 0, 8)]
            blob = keys.tobytes()
            width = keys.itemsize * keys.shape[1]
            keyed = self.keyed
            seen: Dict[bytes, int] = {}
            slots = []
            for at_key, r in zip(range(0, len(blob), width), short.tolist()):
                key = blob[at_key : at_key + width]
                index = seen.get(key)
                if index is None:
                    triple = keyed.get(key)
                    if triple is None:
                        triple = keyed[key] = xid_triple(r)
                    index = seen[key] = slot_of(triple)
                slots.append(index)
            slot[xi[short]] = slots
        for r in np.flatnonzero((hlen > 16) | (rlen > 24)).tolist():
            slot[xi[r]] = slot_of(xid_triple(r))

        # ECC: "GPU at PCI:" pci ": uncorrectable ECC error" (rare).
        # extract_line tries the XID pattern first, and it may match at
        # a later "NVRM:": an ECC line with a second marker is undecided.
        second = nvrm[j + 1] < E
        ecc = marked[is_ecc]
        fallback[ecc[second[ecc]]] = True
        for i in ecc[~second[ecc]].tolist():
            pci_at = int(p[i]) + 17
            tail = bytes(raw[pci_at : E[i]]).find(_ECC_TAIL)
            if tail > 0:
                host_b = bytes(raw[S[i] + 27 : sp[i]])
                pci_b = bytes(raw[pci_at : pci_at + tail])
                slot[i] = slot_of(self._triple(host_b, pci_b, None))
            else:
                unparsed[i] = True

        kind = np.full(m, _PLAIN, dtype=np.int8)
        triples = self.slice_triples
        if triples:
            tagged = np.flatnonzero(slot >= 0)
            kind[tagged] = np.array([t.kind for t in triples], np.int8)[slot[tagged]]
            unparsed |= kind == _BAD
            kind[kind == _BAD] = _PLAIN
        fallback |= unparsed & second
        return sp, kind, slot, fallback, commas

    def _commit(
        self,
        raw,
        starts: np.ndarray,
        ends: np.ndarray,
        rows: np.ndarray,
        host_at: np.ndarray,
        host_end: np.ndarray,
        times: np.ndarray,
        kind: np.ndarray,
        slot: np.ndarray,
        triples: List[_Triple],
        markers: np.ndarray,
    ) -> None:
        """Decode the other lines, clamp both lanes, append the slice.

        ``rows`` are the slice's array-lane lines (ascending), with
        their host spans, unclamped times, extraction kind and triple
        slot, and ``markers`` indexes the ones that feed the
        downtime/gangd channel; every other non-empty line goes
        through the decoded lane, whose parse sees them in line order.
        """
        proc = self.proc
        scan = proc.scan
        count = len(starts)
        base = proc.line_idx
        proc.line_idx = base + count
        sample_limit = proc.sample_limit

        # ---- decoded lane ------------------------------------------------
        parsed = np.zeros(count, dtype=bool)
        parsed[rows] = True
        time_at = np.empty(count)
        time_at[rows] = times
        decoded = np.flatnonzero(~parsed & (ends > starts))
        events: List[tuple] = []
        hosts: Dict[int, str] = {}
        stateful: List[Tuple[int, str, str]] = []
        decoded_hits: list = []
        parse = proc.parse
        for row, s, e in zip(
            decoded.tolist(), starts[decoded].tolist(), ends[decoded].tolist()
        ):
            result = parse(str(raw[s:e], "utf-8", "replace"), base + row + 1, events)
            if result is None:
                continue
            line, hit, is_stateful = result
            parsed[row] = True
            time_at[row] = line.time
            hosts[row] = line.host
            if is_stateful:
                stateful.append((row, line.host, line.message))
            if hit is not None:
                decoded_hits.append((row, hit))
        if len(markers):
            # parse counts an array-lane marker line as it counts any
            # other array-lane line without "NVRM:", and its message is
            # the line's bytes after the host and one space.
            marked_rows = rows[markers]
            for row, h0, h1, end in zip(
                marked_rows.tolist(),
                host_at[markers].tolist(),
                host_end[markers].tolist(),
                ends[marked_rows].tolist(),
            ):
                stateful.append(
                    (row, str(raw[h0:h1], "ascii"), str(raw[h1 + 1 : end], "ascii"))
                )
            stateful.sort(key=_row_key)

        def host(row: int) -> str:
            name = hosts.get(row)
            if name is None:
                i = int(np.searchsorted(rows, row))
                name = bytes(raw[host_at[i] : host_end[i]]).decode("ascii")
            return name

        # ---- watermark: one running-max pass over both lanes -------------
        # The serial pass clamps line i to max(W, x_0..x_{i-1}) when its
        # time x_i falls below that running maximum, which then stays;
        # otherwise x_i is the new maximum.  So the clamped time is the
        # running maximum including line i, and a repair is x_i below
        # the running maximum before it.
        prow = np.flatnonzero(parsed)
        if len(prow):
            x = time_at[prow]
            before = np.empty(len(x))
            before[0] = proc.local_last
            np.maximum.accumulate(x[:-1], out=before[1:])
            np.maximum(before, proc.local_last, out=before)
            clamped = x < before
            steps = np.flatnonzero(clamped)
            free = np.flatnonzero(~clamped)
            proc.clock_repairs += len(steps)
            room = sample_limit - proc.event_counts.get(REASON_CLOCK_STEP, 0)
            if len(steps) and room > 0:
                take = steps[:room]
                proc.event_counts[REASON_CLOCK_STEP] = (
                    sample_limit - room + len(take)
                )
                for i, raw_t, last in zip(
                    take.tolist(), x[take].tolist(), before[take].tolist()
                ):
                    row = int(prow[i])
                    # (line_idx, _SUB_CLOCK, _OP_CLOCK, host, raw, clamped to)
                    events.append((base + row + 1, 1, "C", host(row), raw_t, last))
            unclamped = x[free]
            scan.unclamped_times.frombytes(unclamped.view(np.uint8))
            boundary = scan.boundary_candidates
            room = sample_limit - len(boundary)
            if room > 0:
                for i, raw_t in zip(free[:room].tolist(), unclamped[:room].tolist()):
                    row = int(prow[i])
                    boundary.append((base + row + 1, host(row), raw_t))
            time_at[prow] = np.maximum(x, before)
            proc.local_last = float(time_at[prow[-1]])
        events.sort(key=_event_order)
        scan.events.extend(events)
        for row, name, message in stateful:
            scan.downtime_lines.append((float(time_at[row]), name, message))

        # ---- hits, in line order across both lanes -----------------------
        hits = scan.hits
        fast_hits = np.flatnonzero(kind == _HIT)
        hit_slots = slot[fast_hits]
        hit_rows = rows[fast_hits]
        # Strings are interned in first-hit order, as the serial pass
        # appends them: each triple at its first hit, each decoded hit
        # at its own line.
        pending: list = list(decoded_hits)
        new = [
            (index, triple)
            for index, triple in enumerate(triples)
            if triple.kind == _HIT and triple.node_id < 0
        ]
        if new:
            first = np.full(len(triples), _NOWHERE)
            np.minimum.at(first, hit_slots, hit_rows)
            first = first.tolist()
            pending.extend((first[index], triple) for index, triple in new)
        pending.sort(key=_row_key)
        decoded_fields = {}
        for row, item in pending:
            if isinstance(item, _Triple):
                item.node_id, item.pci_id, item.class_id = hits.intern(
                    item.host, item.pci, item.class_value
                )
            else:
                node_id, pci_id, class_id = hits.intern(
                    item.node, item.pci_address, item.event_class.value
                )
                decoded_fields[row] = (
                    node_id,
                    pci_id,
                    -1 if item.gpu_index is None else item.gpu_index,
                    class_id,
                    -1 if item.xid is None else item.xid,
                )
        if len(hit_rows) or decoded_fields:
            fields = np.array(
                [
                    (t.node_id, t.pci_id, t.gpu, t.class_id, t.xid, t.bump)
                    for t in triples
                ],
                dtype=np.int64,
            ).reshape(-1, 6)[hit_slots]
            proc.extractor.stats.unresolved_pci_lines += int(fields[:, 5].sum())
            columns = fields[:, :5]
            if decoded_fields:
                hit_rows = np.concatenate(
                    (hit_rows, np.fromiter(decoded_fields, np.int64))
                )
                order = np.argsort(hit_rows, kind="stable")
                hit_rows = hit_rows[order]
                extra = np.array(list(decoded_fields.values()), dtype=np.int64)
                columns = np.concatenate((columns, extra))[order]
            hits.extend_arrays(time_at[hit_rows], *columns.T)

        # ---- counters: what extract_line counts per array-lane line ------
        stats = proc.extractor.stats
        proc.parsed += len(rows)
        stats.total_lines += len(rows)
        stats.matched_lines += len(fast_hits)
        stats.excluded_xid_lines += int(np.count_nonzero(kind == _EXCLUDED))
        stats.unknown_xid_lines += int(np.count_nonzero(kind == _UNKNOWN))


_row_key = itemgetter(0)


def scan_buffer(buf, proc) -> None:
    """Walk one day file's bytes through ``proc``.

    ``buf`` is an ``mmap`` or ``bytes`` buffer of whole lines (a last
    line without a terminator counts); ``proc`` is the scan's
    :class:`~repro.pipeline.shard._LineProcessor`, whose line index,
    local watermark, counters and hit tables carry from slice to
    slice exactly as through one serial pass.
    """
    scan = _Scan(proc)
    size = len(buf)
    # A bytes buffer is read in place; an mmap is copied slice by slice,
    # so that nothing views it when the caller closes it.
    view = memoryview(buf) if isinstance(buf, bytes) else buf
    start = 0
    while start < size:
        end = _slice_end(buf, start, size)
        if end + _PAD <= size:
            raw = view[start : end + _PAD]
        else:
            raw = buf[start:size] + bytes(end + _PAD - size)
        scan.scan_slice(raw, end - start, buf.find(b"\r", start, end) >= 0)
        start = end
