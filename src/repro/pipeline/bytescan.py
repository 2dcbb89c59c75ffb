"""Bytes-first scan of plain day files (the Stage-II hot loop).

The legacy scan decodes every byte of every day file to ``str`` before
looking at it, yet the overwhelming majority of lines need none of
that: a canonical ``timestamp host message`` line's only observable
scan effects are the timestamp bookkeeping (watermark, clock-step
accounting), the parsed-line counters, and — for ``NVRM:`` lines —
the XID/ECC extraction.  This module computes all of those straight
from the raw bytes.  A plain day file is mapped (or read) as one bytes
buffer and walked line by line; each line is either

* **fast** — pure-ASCII, canonically shaped (single-space separators),
  free of every corruption tell and every stateful-extraction marker.
  Its effects are reproduced from the bytes — no ``str`` is ever
  materialized except the handful of interned host/PCI tokens; or
* **suspicious** — anything else.  The line is decoded and replayed
  through :meth:`~repro.pipeline.shard._LineProcessor.process_raw`,
  the *exact* legacy per-line logic, state shared with the fast path.

Because every shortcut below is an equivalence (argued inline), not a
heuristic, the fast path cannot change scan output — only skip work.
A differential fuzz suite (``tests/test_bytes_prefilter.py``) checks
this against chaos-corrupted corpora, and ``scan_day_file(...,
force_decode=True)`` keeps the legacy decoded path callable as the
reference.

Marker scouts
-------------
Instead of running ``line.find(marker)`` per line, the scanner keeps
one cached next-occurrence offset per marker over the whole buffer
(``next_nvrm``, ``next_odd``, ...) and refreshes it only once the
walk passes it.  ``size`` is the not-found sentinel, so both the
refresh test and the in-line test are single integer compares.

Manual XID/ECC parsing
----------------------
The extraction patterns (:data:`~repro.pipeline.extract.XID_PATTERN`,
:data:`~repro.pipeline.extract.ECC_PATTERN`) both begin with the
literal ``"NVRM: "`` — every possible match starts at an ``"NVRM:"``
occurrence, and the scout already knows the first one.  The fast path
parses the fixed shape at that occurrence by hand (slice compares +
``find``), which is an exact mirror of the regex **at that position**:
the PCI character class contains neither ``")"`` nor space, so the
group boundary is forced (the first ``")"`` for XID, the first
``": uncorrectable ECC error"`` for ECC — greedy backtracking cannot
cross either literal, whose text contains non-class bytes), and the
XID code boundary is forced the same way (``\\d+`` cannot contain the
``","`` that must follow it).  A successful manual parse at the first
occurrence is therefore the regex's leftmost match.  A *failed* manual
parse proves the regex fails at that occurrence; if the line contains
no second ``"NVRM:"`` there is no other candidate and the line matches
nothing.  A second occurrence after a failed parse is the one shape
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
torn-write / marker logic is routed to the fallback by the scouts.
"""

from __future__ import annotations

import re
from datetime import date
from itertools import chain
from typing import Optional

from ..core.timebase import STUDY_EPOCH
from ..core.xid import EventClass, classify_xid, is_excluded
from ..recovery.config import RECOVERY_MARKER
from ..syslog.quarantine import REASON_CLOCK_STEP
from .downtime import DOWNTIME_MARKER
from .extract import NVRM_MARKER

__all__ = ["scan_buffer"]

#: The markers whose presence forces the decoded fallback, as bytes.
#: Pure ASCII, so bytes-presence ⟺ decoded-presence (see module doc).
_NVRM = NVRM_MARKER.encode("ascii")
_DOWNTIME = DOWNTIME_MARKER.encode("ascii")
_RECOVERY = RECOVERY_MARKER.encode("ascii")

#: Bytes that make a line unsafe for the fast path: anything >= 0x80
#: (may decode to U+FFFD, to non-ASCII whitespace like U+0085/U+00A0,
#: or to unicode digits) and the ASCII characters ``str.split()``
#: treats as whitespace besides space/``\r``/``\n`` (``\t``, vertical
#: tab, form feed, FS/GS/RS/US) — ``bytes`` and ``str`` field
#: splitting agree on everything else.
_ODD_BYTES = re.compile(rb"[\t\x0b\x0c\x1c-\x1f\x80-\xff]")

#: Every byte *not* in :data:`_ODD_BYTES`, as a ``translate`` deletion
#: table: ``raw.translate(None, _PLAIN_DELETE)`` strips the benign
#: bytes at memcpy speed, leaving a non-empty remainder iff the buffer
#: contains any odd byte at all.  Clean buffers (the common case) then
#: skip the character-class scout entirely.
_PLAIN_DELETE = bytes(
    i
    for i in range(256)
    if not (i in (0x09, 0x0B, 0x0C) or 0x1C <= i <= 0x1F or i >= 0x80)
)

#: A full syslog timestamp *not* at the start of a line: the shape of
#: a torn write (reader's ``_EMBEDDED_TIMESTAMP``, which only inspects
#: the message field — always preceded by a space, never by a line
#: terminator, so the ``[^\n\r]`` assertion keeps every real match and
#: only excludes each line's own leading timestamp).  The pattern is
#: anchored on the literal ``":"`` between hours and minutes so the
#: regex engine fast-skips between candidates with ``memchr`` instead
#: of attempting a digit match at every byte (~15× faster over a
#: digit-heavy corpus); the rest of the shape sits in a fixed-width
#: lookbehind plus the tail.  A match therefore starts 13 bytes into
#: the embedded timestamp — still inside the same line (the shape
#: contains no terminator bytes), so the scout's line-span tests are
#: unaffected by the shifted anchor.
_EMBEDDED_TS = re.compile(
    rb":(?<=[^\n\r]\d{4}-\d{2}-\d{2}T\d{2}:)\d{2}:\d{2}\.\d{6} "
)

#: Shape of the 10-byte day prefix ``YYYY-MM-DD`` (validated once per
#: distinct day prefix, not once per line).
_DAY_SHAPE = re.compile(rb"\A\d{4}-\d{2}-\d{2}\Z")

#: The fixed byte shapes the manual XID/ECC parse anchors on, right
#: after the ``"NVRM:"`` scout position.
_XID_SHAPE = b" Xid (PCI:"
_ECC_SHAPE = b" GPU at PCI:"
_ECC_TAIL = b": uncorrectable ECC error"
#: Any byte outside the patterns' PCI character class ``[0-9A-Fa-f:]``.
_PCI_BAD = re.compile(rb"[^0-9A-Fa-f:]").search
_ECC_CLASS_VALUE = EventClass.UNCORRECTABLE_ECC.value

#: One whole canonical XID line, matched at C speed by ``finditer``
#: over the entire buffer — the overwhelmingly common line shape pays
#: no per-line Python walking at all.  Anatomy:
#:
#: * the leading ``\n`` anchors matches to line starts (the engine
#:   scans for it with memchr; the file's first line goes through the
#:   walker instead) and is not re-consumed between adjacent matches
#:   because the line's own terminator is only ever *asserted*;
#: * the timestamp/host shape mirrors the walker's structural checks
#:   (single spaces, ``[!-~]`` keeps the host free of whitespace);
#: * the lazy ``[ -~]*?`` prefix plus the ``(?=[ -~]*(\n))`` tail
#:   lookahead after the comma together prove the whole line printable
#:   ASCII and ``\n``-terminated in a *single* pass over the message
#:   (prefix by the class scan, tail by the lookahead) — so no odd
#:   byte, ``\r``, or encoding replacement can hide in a match.  The
#:   chosen candidate is still the leftmost full XID shape, the match
#:   ``XID_PATTERN.search`` finds on the decoded message: a candidate
#:   only fails its tail check when a non-printable byte follows its
#:   comma, and that byte either blocks the lazy scan from ever
#:   reaching a later candidate or sits in the later candidate's tail
#:   too — a backtracked match can never succeed, so tail-check
#:   backtracking cannot select a different candidate than ``search``
#:   would.  ``[ -~]`` excludes both terminators, so the captured
#:   ``\n`` is the line's own terminator — the scanner reads the line
#:   end straight out of ``m.start(7)`` instead of running a per-line
#:   ``find``;
#: * torn-write shapes and downtime/gangd markers are printable and so
#:   still possible inside a matched line: the caller keeps consulting
#:   those scouts before trusting a match.
_FAST_XID_LINE = re.compile(
    rb"\n"
    rb"(\d{4}-\d{2}-\d{2}T\d{2}):(\d{2}:\d{2})\.(\d{6}) "
    rb"([!-~]+) "
    rb"[ -~]*?NVRM: Xid \(PCI:([0-9A-Fa-f:]+)\): (\d+),"
    rb"(?=[ -~]*(\n))"
)

#: Per-scan verdict sentinels for the XID-code memo.
_EXCLUDED = object()
_UNKNOWN = object()

_EPOCH_DATE = STUDY_EPOCH.date()

#: Sentinel distinguishing "never computed" from "computed: invalid".
_MISS = object()

#: Minute+second field table: ``b"07:33" -> (7 * 60 + 33) * 1e6``
#: microseconds for every valid pair, absent for everything else
#: (non-digits, a wrong separator, the signs/spaces ``int()``
#: tolerates, out-of-range values) — one dict get both parses and
#: validates both fields and their separator at once (3600 entries).
_MS_MICROS = {
    b"%02d:%02d" % (m, s): (m * 60 + s) * 1_000_000
    for m in range(60)
    for s in range(60)
}


def _hour_base_micros(key: bytes, day_cache: dict) -> Optional[int]:
    """Microseconds since the study epoch for one 13-byte hour prefix
    (``YYYY-MM-DDTHH``).

    ``None`` marks a prefix the canonical parser would reject (bad
    shape, out-of-range fields, impossible date), sending the line to
    the fallback so ``strptime`` error semantics stay authoritative.
    The arithmetic mirrors
    :func:`~repro.core.timebase.parse_syslog_timestamp` exactly.  A
    day file holds a couple dozen distinct hour prefixes, so the
    caller memoizes whole results and this runs a handful of times per
    file; the date half is additionally memoized in ``day_cache``.
    """
    hh = key[11:13]
    if key[10] != 0x54 or not hh.isdigit():  # 0x54 = "T"
        return None
    hour = int(hh)
    if hour > 23:
        return None
    day_key = key[:10]
    day_base = day_cache.get(day_key, _MISS)
    if day_base is _MISS:
        day_base = None
        if _DAY_SHAPE.match(day_key) is not None:
            try:
                day = date.fromisoformat(day_key.decode("ascii"))
            except ValueError:
                day = None
            if day is not None:
                day_base = (day - _EPOCH_DATE).days * 86_400_000_000
        day_cache[day_key] = day_base
    if day_base is None:
        return None
    return day_base + hour * 3_600_000_000


def scan_buffer(buf, proc) -> None:
    """Walk one plain day file's bytes through ``proc``.

    ``buf`` is an ``mmap`` or ``bytes`` buffer of the whole file;
    ``proc`` is the scan's
    :class:`~repro.pipeline.shard._LineProcessor`.  State (line index,
    local watermark, clock-repair count, counter deltas) is borrowed
    into locals for the fast loop and synced around each fallback
    call, so fast and fallback lines interleave exactly as one serial
    pass.
    """
    size = len(buf)
    find = buf.find
    scan = proc.scan
    events = scan.events
    event_counts = proc.event_counts
    sample_limit = proc.sample_limit
    unclamped_append = scan.unclamped_times.append
    boundary = scan.boundary_candidates
    extractor = proc.extractor
    stats = extractor.stats
    resolve_gpu = extractor.resolve_gpu

    # The hit columns, unrolled: the interning dicts and array appends
    # are shared with HitColumns.append_hit, so fallback-path hits and
    # fast-path hits land in the same tables.
    hits = scan.hits
    times_append = hits.times.append
    node_ids_append = hits.node_ids.append
    pci_ids_append = hits.pci_ids.append
    gpu_indexes_append = hits.gpu_indexes.append
    class_ids_append = hits.class_ids.append
    xids_append = hits.xids.append
    node_intern = hits._node_ids
    nodes = hits.nodes
    pci_intern = hits._pci_ids
    pcis = hits.pcis
    class_intern = hits._class_ids
    classes = hits.classes

    line_idx = proc.line_idx
    local_last = proc.local_last
    clock_repairs = proc.clock_repairs
    # Pure-counter deltas accumulate in locals and fold in at the end:
    # interleaving with fallback-path increments cannot matter.
    fast_parsed = 0
    matched_add = 0
    excluded_add = 0
    unknown_add = 0
    unresolved_add = 0
    boundary_room = sample_limit - len(boundary)

    # Hour-prefix -> epoch-microseconds cache: a day file holds ~24
    # distinct hour prefixes, so the slow validation essentially never
    # runs; minute:second pairs parse through the combined table.
    hour_cache: dict = {}
    day_cache: dict = {}
    ms_micros = _MS_MICROS.get
    # Decoded-token caches: day files repeat the same few hundred
    # hosts/addresses and a handful of XID codes millions of times.
    # ``pci_seen`` holds byte spans already validated against the PCI
    # character class; ``xid_memo`` maps raw code digits to their
    # selection verdict; ``hit_cache`` memoizes the whole interned
    # tail of a hit — column ids, resolved GPU index, and whether the
    # line counts as unresolved — keyed by the (host, pci) byte spans.
    host_cache: dict = {}
    pci_seen: set = set()
    xid_memo: dict = {}
    hit_cache: dict = {}
    # The fast lane's fused memo: (host, pci, code) byte triple ->
    # selection verdict or the whole interned hit tail in one probe.
    # ``prev_*``/``p_*`` short-circuit the probe for the previous
    # line's triple (``prev_kind``: -1 unset, 0 hit, 1 excluded,
    # 2 unknown).
    hit_memo: dict = {}
    prev_host = prev_pci = prev_num = None
    prev_kind = -1
    p_node = p_pci_id = p_gpu = p_bump = p_cid = p_xid = 0
    miss = _MISS

    odd_search = _ODD_BYTES.search
    torn_search = _EMBEDDED_TS.search

    next_nl = find(b"\n")
    if next_nl < 0:
        next_nl = size
    next_cr = find(b"\r")
    if next_cr < 0:
        next_cr = size
    next_nvrm = find(_NVRM)
    if next_nvrm < 0:
        next_nvrm = size
    next_down = find(_DOWNTIME)
    if next_down < 0:
        next_down = size
    next_gang = find(_RECOVERY)
    if next_gang < 0:
        next_gang = size
    # Presence gate before the odd-byte scout: one C-speed translate
    # pass decides whether the buffer holds any odd byte at all, so
    # clean files (the common case) never run the class search.
    raw = buf if isinstance(buf, bytes) else buf[:]
    if raw.translate(None, _PLAIN_DELETE):
        match = odd_search(buf)
        next_odd = match.start() if match else size
    else:
        next_odd = size
    match = torn_search(buf)
    next_torn = match.start() if match else size
    scout_min = min(next_torn, next_down, next_gang)

    # The canonical-XID-line fast lane drives the outer loop: one
    # C-speed finditer pass, with the per-line walker only covering
    # the gaps between matches (and the tail after the last one, via
    # the ``None`` sentinel).  ``FOR_ITER`` advances the match stream
    # without a ``next()`` call per line.
    pos = 0
    for xid_m in chain(_FAST_XID_LINE.finditer(buf), (None,)):
        if xid_m is None:
            mstart = size
        else:
            mstart = xid_m.start() + 1
            if mstart < pos:
                # A match inside an already-consumed line (its line
                # start was walked past as part of a fallback): skip.
                continue
        while pos < mstart:
            # ---- line span under universal newlines ----------------------
            # Same line boundaries as the chunked decoder's
            # replace("\r\n", "\n").replace("\r", "\n") translation:
            # terminators never sit inside a multi-byte UTF-8 sequence.
            if next_nl < pos:
                next_nl = find(b"\n", pos)
                if next_nl < 0:
                    next_nl = size
            if next_cr < pos:
                next_cr = find(b"\r", pos)
                if next_cr < 0:
                    next_cr = size
            if next_cr < next_nl:
                end = next_cr
                nxt = end + 2 if end + 1 == next_nl else end + 1
            elif next_nl < size:
                end = next_nl
                nxt = end + 1
            else:
                end = size
                nxt = size
            line_idx += 1
            if end == pos:  # empty line: skipped without decode either way
                pos = nxt
                continue

            # ---- marker scouts (refresh the ones the walk passed) --------
            if next_odd < pos:
                match = odd_search(buf, pos)
                next_odd = match.start() if match else size
            if next_torn < pos:
                match = torn_search(buf, pos)
                next_torn = match.start() if match else size
            if next_nvrm < pos:
                next_nvrm = find(_NVRM, pos)
                if next_nvrm < 0:
                    next_nvrm = size
            if next_down < pos:
                next_down = find(_DOWNTIME, pos)
                if next_down < 0:
                    next_down = size
            if next_gang < pos:
                next_gang = find(_RECOVERY, pos)
                if next_gang < 0:
                    next_gang = size

            # ---- fast path: canonical line -------------------------------
            # Requires the exact shape "TTTTTTTTTTTTTTTTTTT.ffffff H... M..."
            # with single-space separators: then str.split(maxsplit=2)
            # would yield precisely these three spans (no odd whitespace on
            # the line), the host neither is empty nor ends in ":", and the
            # message is non-empty — i.e. parse_line() succeeds.  All
            # checks below are side-effect-free until ``ok`` survives them;
            # anything else (including every malformed shape) falls back.
            done = False
            if (
                next_odd >= end
                and next_torn >= end
                and next_down >= end
                and next_gang >= end
                and end - pos >= 30
                and buf[pos + 26] == 0x20
            ):
                key = buf[pos : pos + 13]
                hour_base = hour_cache.get(key, miss)
                if hour_base is miss:
                    hour_base = _hour_base_micros(key, day_cache)
                    hour_cache[key] = hour_base
                if (
                    hour_base is not None
                    and buf[pos + 13] == 0x3A  # ":"
                    and buf[pos + 19] == 0x2E  # "."
                ):
                    ms_us = ms_micros(buf[pos + 14 : pos + 19])
                    frac = buf[pos + 20 : pos + 26]
                    if ms_us is not None and frac.isdigit():
                        sp = find(b" ", pos + 28, end)
                        if (
                            sp != -1
                            and sp + 1 < end
                            and buf[pos + 27] != 0x20
                            and buf[sp + 1] != 0x20
                            and buf[sp - 1] != 0x3A
                        ):
                            ok = True
                            do_hit = False
                            class_id = -1
                            xid_num = -1
                            pci_b = None
                            if next_nvrm < end:
                                # Manual mirror of extract_line over the
                                # message span (see module doc): parse the
                                # fixed shape at the first occurrence; a
                                # second occurrence after a failed parse is
                                # undecided and falls back.
                                p = next_nvrm
                                if p <= sp:
                                    # Marker inside the timestamp/host
                                    # fields: not a message-span match.
                                    ok = False
                                elif buf[p + 5 : p + 15] == _XID_SHAPE:
                                    good = False
                                    close = find(b")", p + 15, end)
                                    if (
                                        close != -1
                                        and buf[close + 1 : close + 3] == b": "
                                    ):
                                        comma = find(b",", close + 3, end)
                                        if comma != -1:
                                            num_b = buf[close + 3 : comma]
                                            pci_b = buf[p + 15 : close]
                                            if num_b.isdigit() and pci_b:
                                                if pci_b in pci_seen:
                                                    good = True
                                                elif _PCI_BAD(pci_b) is None:
                                                    pci_seen.add(pci_b)
                                                    good = True
                                    if good:
                                        verdict = xid_memo.get(num_b, miss)
                                        if verdict is miss:
                                            xid_num = int(num_b)
                                            if is_excluded(xid_num):
                                                verdict = _EXCLUDED
                                            else:
                                                cls = classify_xid(xid_num)
                                                if cls is None:
                                                    verdict = _UNKNOWN
                                                else:
                                                    value = cls.value
                                                    cid = class_intern.get(value)
                                                    if cid is None:
                                                        cid = len(classes)
                                                        class_intern[value] = cid
                                                        classes.append(value)
                                                    verdict = (xid_num, cid)
                                            xid_memo[num_b] = verdict
                                        if verdict is _EXCLUDED:
                                            excluded_add += 1
                                        elif verdict is _UNKNOWN:
                                            unknown_add += 1
                                        else:
                                            xid_num, class_id = verdict
                                            do_hit = True
                                    elif find(_NVRM, p + 5, end) != -1:
                                        ok = False
                                    # else: the only candidate start fails
                                    # both patterns ("Xid (PCI:" after the
                                    # marker excludes the ECC shape), so
                                    # the line matches nothing.
                                elif buf[p + 5 : p + 17] == _ECC_SHAPE:
                                    good = False
                                    q = find(_ECC_TAIL, p + 17, end)
                                    if q > p + 17:
                                        pci_b = buf[p + 17 : q]
                                        if pci_b in pci_seen:
                                            good = True
                                        elif _PCI_BAD(pci_b) is None:
                                            pci_seen.add(pci_b)
                                            good = True
                                    if good:
                                        cid = class_intern.get(_ECC_CLASS_VALUE)
                                        if cid is None:
                                            cid = len(classes)
                                            class_intern[_ECC_CLASS_VALUE] = cid
                                            classes.append(_ECC_CLASS_VALUE)
                                        class_id = cid
                                        xid_num = -1
                                        do_hit = True
                                    elif find(_NVRM, p + 5, end) != -1:
                                        ok = False
                                elif find(_NVRM, p + 5, end) != -1:
                                    ok = False
                            if ok:
                                # All checks passed: commit every effect,
                                # identically to parse_syslog_timestamp's
                                # fast path (one integer-µs division) plus
                                # the legacy clamp/extract bookkeeping.
                                done = True
                                fast_parsed += 1
                                t = (hour_base + ms_us + int(frac)) / 10**6
                                if t < local_last:
                                    clock_repairs += 1
                                    seen = event_counts.get(REASON_CLOCK_STEP, 0)
                                    if seen < sample_limit:
                                        event_counts[REASON_CLOCK_STEP] = seen + 1
                                        host_b = buf[pos + 27 : sp]
                                        host = host_cache.get(host_b)
                                        if host is None:
                                            host = host_b.decode("ascii")
                                            host_cache[host_b] = host
                                        events.append(
                                            (
                                                line_idx,
                                                1,  # _SUB_CLOCK
                                                "C",  # _OP_CLOCK
                                                host,
                                                t,
                                                local_last,
                                            )
                                        )
                                    # Hits on a stepped line carry the
                                    # clamped time, like the legacy clamp.
                                    t = local_last
                                else:
                                    unclamped_append(t)
                                    if boundary_room > 0:
                                        boundary_room -= 1
                                        host_b = buf[pos + 27 : sp]
                                        host = host_cache.get(host_b)
                                        if host is None:
                                            host = host_b.decode("ascii")
                                            host_cache[host_b] = host
                                        boundary.append((line_idx, host, t))
                                    local_last = t
                                if do_hit:
                                    host_b = buf[pos + 27 : sp]
                                    cached = hit_cache.get((host_b, pci_b))
                                    if cached is None:
                                        host = host_cache.get(host_b)
                                        if host is None:
                                            host = host_b.decode("ascii")
                                            host_cache[host_b] = host
                                        pci = pci_b.decode("ascii")
                                        node_id = node_intern.get(host)
                                        if node_id is None:
                                            node_id = len(nodes)
                                            node_intern[host] = node_id
                                            nodes.append(host)
                                        pci_id = pci_intern.get(pci)
                                        if pci_id is None:
                                            pci_id = len(pcis)
                                            pci_intern[pci] = pci_id
                                            pcis.append(pci)
                                        # resolve_gpu counts this line's
                                        # unresolved stat itself; remember
                                        # the per-line delta for replays.
                                        before = stats.unresolved_pci_lines
                                        gpu = resolve_gpu(host, pci)
                                        bump = stats.unresolved_pci_lines - before
                                        gpu_i = -1 if gpu is None else gpu
                                        hit_cache[(host_b, pci_b)] = (
                                            node_id,
                                            pci_id,
                                            gpu_i,
                                            bump,
                                        )
                                    else:
                                        node_id, pci_id, gpu_i, bump = cached
                                        unresolved_add += bump
                                    matched_add += 1
                                    times_append(t)
                                    node_ids_append(node_id)
                                    pci_ids_append(pci_id)
                                    gpu_indexes_append(gpu_i)
                                    class_ids_append(class_id)
                                    xids_append(xid_num)

            if not done:
                # Sync borrowed state, replay the line through the exact
                # legacy logic (which re-increments line_idx), resync.
                proc.line_idx = line_idx - 1
                proc.local_last = local_last
                proc.clock_repairs = clock_repairs
                proc.process_raw(buf[pos:end].decode("utf-8", "replace"))
                local_last = proc.local_last
                clock_repairs = proc.clock_repairs
                boundary_room = sample_limit - len(boundary)
            pos = nxt
        if xid_m is None:
            break

        # ---- fast lane: the matched canonical XID line ---------------
        # The lookahead proved the whole line printable ASCII and
        # ``\n``-terminated, so the line end *is* the captured
        # terminator — no span search, no odd-byte test.  Only the
        # shapes that are themselves printable (torn writes, the
        # downtime/gangd markers) can hide inside a match, so those
        # scouts still gate it; any trip replays the line through the
        # decoded fallback, exactly like a walker line would.
        end = xid_m.start(7)
        line_idx += 1
        done = False
        # ``scout_min`` is a lower bound on the three gating scouts
        # (their refreshes only ever move them forward), so the common
        # clean line pays one compare; a trip refreshes whatever went
        # stale and recomputes the bound before deciding.
        if scout_min < end:
            if next_torn < pos:
                match = torn_search(buf, pos)
                next_torn = match.start() if match else size
            if next_down < pos:
                next_down = find(_DOWNTIME, pos)
                if next_down < 0:
                    next_down = size
            if next_gang < pos:
                next_gang = find(_RECOVERY, pos)
                if next_gang < 0:
                    next_gang = size
            scout_min = next_torn
            if next_down < scout_min:
                scout_min = next_down
            if next_gang < scout_min:
                scout_min = next_gang
        if scout_min >= end:
            hour_b, msb, frac, host_b, pci_b, num_b, _nl = xid_m.groups()
            hour_base = hour_cache.get(hour_b, miss)
            if hour_base is miss:
                hour_base = _hour_base_micros(hour_b, day_cache)
                hour_cache[hour_b] = hour_base
            ms_us = ms_micros(msb)
            if (
                hour_base is not None
                and ms_us is not None
                and host_b[-1] != 0x3A  # parse_line rejects "host:"
            ):
                done = True
                fast_parsed += 1
                t = (hour_base + ms_us + int(frac)) / 10**6
                if t < local_last:
                    clock_repairs += 1
                    seen = event_counts.get(REASON_CLOCK_STEP, 0)
                    if seen < sample_limit:
                        event_counts[REASON_CLOCK_STEP] = seen + 1
                        host = host_cache.get(host_b)
                        if host is None:
                            host = host_b.decode("ascii")
                            host_cache[host_b] = host
                        events.append(
                            (
                                line_idx,
                                1,  # _SUB_CLOCK
                                "C",  # _OP_CLOCK
                                host,
                                t,
                                local_last,
                            )
                        )
                    t = local_last
                else:
                    unclamped_append(t)
                    if boundary_room > 0:
                        boundary_room -= 1
                        host = host_cache.get(host_b)
                        if host is None:
                            host = host_b.decode("ascii")
                            host_cache[host_b] = host
                        boundary.append((line_idx, host, t))
                    local_last = t
                # Consecutive hits overwhelmingly repeat the previous
                # line's (host, pci, code) triple (error bursts), so
                # three C-level bytes compares short-circuit even the
                # memo probe, with the interned tail parked in the
                # ``p_*`` locals (names the walker lane never touches,
                # so interleaved fallback lines cannot poison them).
                # ``p_bump`` replays the per-line unresolved count
                # that ``resolve_gpu`` charged the triple's first
                # line; creation mirrors extract_line exactly.
                if (
                    host_b == prev_host
                    and pci_b == prev_pci
                    and num_b == prev_num
                ):
                    if prev_kind == 0:
                        unresolved_add += p_bump
                        matched_add += 1
                        times_append(t)
                        node_ids_append(p_node)
                        pci_ids_append(p_pci_id)
                        gpu_indexes_append(p_gpu)
                        class_ids_append(p_cid)
                        xids_append(p_xid)
                    elif prev_kind == 1:
                        excluded_add += 1
                    else:
                        unknown_add += 1
                else:
                    prev_host = host_b
                    prev_pci = pci_b
                    prev_num = num_b
                    key3 = (host_b, pci_b, num_b)
                    cached = hit_memo.get(key3, miss)
                    if cached.__class__ is tuple:
                        p_node, p_pci_id, p_gpu, p_bump, p_cid, p_xid = cached
                        prev_kind = 0
                        unresolved_add += p_bump
                        matched_add += 1
                        times_append(t)
                        node_ids_append(p_node)
                        pci_ids_append(p_pci_id)
                        gpu_indexes_append(p_gpu)
                        class_ids_append(p_cid)
                        xids_append(p_xid)
                    elif cached is _EXCLUDED:
                        prev_kind = 1
                        excluded_add += 1
                    elif cached is _UNKNOWN:
                        prev_kind = 2
                        unknown_add += 1
                    else:
                        xid_num = int(num_b)
                        if is_excluded(xid_num):
                            hit_memo[key3] = _EXCLUDED
                            prev_kind = 1
                            excluded_add += 1
                        else:
                            cls = classify_xid(xid_num)
                            if cls is None:
                                hit_memo[key3] = _UNKNOWN
                                prev_kind = 2
                                unknown_add += 1
                            else:
                                value = cls.value
                                class_id = class_intern.get(value)
                                if class_id is None:
                                    class_id = len(classes)
                                    class_intern[value] = class_id
                                    classes.append(value)
                                host = host_cache.get(host_b)
                                if host is None:
                                    host = host_b.decode("ascii")
                                    host_cache[host_b] = host
                                pci = pci_b.decode("ascii")
                                node_id = node_intern.get(host)
                                if node_id is None:
                                    node_id = len(nodes)
                                    node_intern[host] = node_id
                                    nodes.append(host)
                                pci_id = pci_intern.get(pci)
                                if pci_id is None:
                                    pci_id = len(pcis)
                                    pci_intern[pci] = pci_id
                                    pcis.append(pci)
                                before = stats.unresolved_pci_lines
                                gpu = resolve_gpu(host, pci)
                                bump = stats.unresolved_pci_lines - before
                                gpu_i = -1 if gpu is None else gpu
                                hit_memo[key3] = (
                                    node_id,
                                    pci_id,
                                    gpu_i,
                                    bump,
                                    class_id,
                                    xid_num,
                                )
                                p_node = node_id
                                p_pci_id = pci_id
                                p_gpu = gpu_i
                                p_bump = bump
                                p_cid = class_id
                                p_xid = xid_num
                                prev_kind = 0
                                matched_add += 1
                                times_append(t)
                                node_ids_append(node_id)
                                pci_ids_append(pci_id)
                                gpu_indexes_append(gpu_i)
                                class_ids_append(class_id)
                                xids_append(xid_num)
        if not done:
            proc.line_idx = line_idx - 1
            proc.local_last = local_last
            proc.clock_repairs = clock_repairs
            proc.process_raw(buf[pos:end].decode("utf-8", "replace"))
            local_last = proc.local_last
            clock_repairs = proc.clock_repairs
            boundary_room = sample_limit - len(boundary)
        pos = end + 1

    proc.line_idx = line_idx
    proc.local_last = local_last
    proc.clock_repairs = clock_repairs
    proc.parsed += fast_parsed
    # Fast lines would each have passed through extract_line; fold in
    # the counter deltas it would have produced.
    stats.total_lines += fast_parsed
    stats.matched_lines += matched_add
    stats.excluded_xid_lines += excluded_add
    stats.unknown_xid_lines += unknown_add
    stats.unresolved_pci_lines += unresolved_add
