"""Stage-II error coalescing (Fig. 1-(1), Section III-B).

"The error coalescing step mitigates [duplicate-line over-counting] by
combining identical error log lines from the same GPU in a short time
window Δt into a single error, i.e., only counting the first
occurrence in Δt."

Two window semantics are provided, because the literature uses both and
the ablation benchmark (A1) compares them:

* ``TUMBLING`` (default, the paper's description): the first occurrence
  opens a window ``[t0, t0 + Δt)``; identical hits inside it merge; the
  next hit after the window opens a new error.
* ``SLIDING``: a hit merges while the *gap to the previous identical
  hit* is at most Δt; a persistent error stream with sub-Δt gaps
  collapses into a single error no matter how long it lasts (which is
  exactly why the paper's wording implies the tumbling form — the
  17-day episode would otherwise count as one error).

Identity is ``(node, GPU, event class)``; the GPU key falls back to the
raw PCI address when the inventory could not resolve an index.

One kernel serves batch and stream: :func:`coalesce_groups` coalesces a
columnar hit store onto the groups carried in from an earlier call, in
array passes, and returns the completed errors and the groups still
open as :class:`ErrorTable` columns.  :func:`coalesce_columns` is the
batch pass (one call, then every group flushed and boxed once), and
:class:`StreamingCoalescer` makes one call per ingest chunk.  The
per-hit :class:`ErrorCoalescer` (with :func:`coalesce`) is the
reference that the differential tests compare both against; nothing
at runtime calls it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.records import ExtractedError
from ..core.xid import EventClass
from .extract import ErrorHit
from .shard import HitColumns

#: Default coalescing window Δt, in seconds.
DEFAULT_WINDOW_SECONDS = 30.0


class WindowMode(enum.Enum):
    """Window semantics for coalescing."""

    TUMBLING = "tumbling"
    SLIDING = "sliding"


@dataclass
class _OpenGroup:
    """An in-progress coalescing group."""

    first: ErrorHit
    last_time: float
    count: int


def _identity(hit: ErrorHit) -> Tuple[str, object, EventClass]:
    gpu_key: object = (
        hit.gpu_index if hit.gpu_index is not None else hit.pci_address
    )
    return (hit.node, gpu_key, hit.event_class)


class ErrorCoalescer:
    """Streaming coalescer over time-ordered error hits.

    Args:
        window_seconds: the Δt window.
        mode: tumbling (paper) or sliding (ablation).

    Use :meth:`push` for streaming operation plus a final
    :meth:`flush`, or the one-shot :func:`coalesce` helper.
    """

    def __init__(
        self,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        mode: WindowMode = WindowMode.TUMBLING,
    ) -> None:
        if window_seconds < 0:
            raise ValueError(f"window must be non-negative, got {window_seconds}")
        self._window = window_seconds
        self._mode = mode
        self._open: Dict[Tuple[str, object, EventClass], _OpenGroup] = {}
        self._last_time: Optional[float] = None

    @property
    def window_seconds(self) -> float:
        """The Δt in use."""
        return self._window

    def push(self, hit: ErrorHit) -> Optional[ExtractedError]:
        """Feed one hit; returns a completed error when one closes.

        Hits must arrive in non-decreasing time order.
        """
        if self._last_time is not None and hit.time < self._last_time - 1e-9:
            raise ValueError(
                f"hits out of order: {hit.time} after {self._last_time}"
            )
        self._last_time = hit.time
        key = _identity(hit)
        group = self._open.get(key)
        if group is None:
            self._open[key] = _OpenGroup(first=hit, last_time=hit.time, count=1)
            return None
        boundary = (
            group.first.time + self._window
            if self._mode is WindowMode.TUMBLING
            else group.last_time + self._window
        )
        if hit.time < boundary:
            group.last_time = hit.time
            group.count += 1
            return None
        completed = self._to_error(group)
        self._open[key] = _OpenGroup(first=hit, last_time=hit.time, count=1)
        return completed

    def flush(self) -> List[ExtractedError]:
        """Close every open group (end of the input stream)."""
        completed = [self._to_error(g) for g in self._open.values()]
        self._open.clear()
        completed.sort(key=lambda e: e.time)
        return completed

    @staticmethod
    def _to_error(group: _OpenGroup) -> ExtractedError:
        first = group.first
        return ExtractedError(
            time=first.time,
            node=first.node,
            gpu_index=first.gpu_index,
            event_class=first.event_class,
            xid=first.xid,
            raw_line_count=group.count,
            last_time=group.last_time,
        )


def coalesce(
    hits: Iterable[ErrorHit],
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    mode: WindowMode = WindowMode.TUMBLING,
) -> List[ExtractedError]:
    """One-shot coalescing of a time-ordered hit stream.

    Returns completed errors sorted by first-occurrence time.
    """
    coalescer = ErrorCoalescer(window_seconds, mode)
    errors: List[ExtractedError] = []
    for hit in hits:
        done = coalescer.push(hit)
        if done is not None:
            errors.append(done)
    errors.extend(coalescer.flush())
    errors.sort(key=lambda e: e.time)
    return errors



#: Inverse of ``EventClass(...)`` without the enum-call overhead.
_CLASS_BY_VALUE = {cls.value: cls for cls in EventClass}

_NEG_INF = float("-inf")

#: Hits per block of the key and window passes: their temporaries
#: exist one block at a time, so the pass holds no more than the sort
#: order and the ``(key, time)`` pairs at the size of the whole stream.
_BLOCK = 1 << 16

#: :class:`ErrorTable`'s columns: two float64 times, then int64s.
_COLUMNS = (
    "first", "last", "node", "gpu", "pci", "cls", "xid", "count", "tag",
    "rank", "row",
)


@dataclass(eq=False)
class ErrorTable:
    """Coalesced groups as typed columns, one row per group.

    ``first``/``last`` are hit times; ``node``, ``pci`` and ``cls``
    index the string tables (as in :class:`HitColumns`); ``gpu``,
    ``xid`` and an unrecorded ``pci`` are ``-1``; ``count`` is the hits
    merged.  :func:`coalesce` orders errors by ``(first, tag, rank)``:
    tag 0 and the index (from 1) of the push that completed the group,
    or tag 1 (flushed, or not complete yet) and its key's ordinal of
    first appearance.  ``row`` is the group's row among a
    :class:`StreamingCoalescer`'s completed errors, else ``-1``.
    """

    first: np.ndarray
    last: np.ndarray
    node: np.ndarray
    gpu: np.ndarray
    pci: np.ndarray
    cls: np.ndarray
    xid: np.ndarray
    count: np.ndarray
    tag: np.ndarray
    rank: np.ndarray
    row: np.ndarray
    nodes: List[str] = field(default_factory=list)
    pcis: List[str] = field(default_factory=list)
    classes: List[str] = field(default_factory=list)

    @classmethod
    def build(cls, rows: Sequence[tuple], like=None) -> "ErrorTable":
        """A table of rows in column order, strings by name and ``None``
        for ``-1``, over ``like``'s string tables (new names join them)."""
        tables = ([], [], []) if like is None else (like.nodes, like.pcis, like.classes)
        columns = [list(column) for column in zip(*rows)] or [[] for _ in _COLUMNS]
        for k, names in zip((2, 4, 5), tables):
            ids = {name: i for i, name in enumerate(names)}
            for i, name in enumerate(columns[k]):
                if name is not None and name not in ids:
                    ids[name] = len(names)
                    names.append(name)
                columns[k][i] = ids.get(name, -1)
        for k in (3, 6):
            columns[k] = [-1 if value is None else value for value in columns[k]]
        return cls(
            *(
                np.array(column, np.float64 if k < 2 else np.int64)
                for k, column in enumerate(columns)
            ),
            *tables,
        )

    @classmethod
    def of(cls, errors: Sequence[ExtractedError]) -> "ErrorTable":
        """A table of boxed errors (no PCI, tie order unset)."""
        return cls.build([
            (e.time, e.last_time, e.node, e.gpu_index, None, e.event_class.value,
             e.xid, e.raw_line_count, 0, 0, -1)
            for e in errors
        ])

    def __len__(self) -> int:
        return len(self.first)

    def __iter__(self) -> Iterator[ExtractedError]:
        """The rows as boxed errors, in row order."""
        return iter(self.boxed())

    def _map(self, column) -> "ErrorTable":
        """The table, same strings, whose ``name`` column is ``column(name)``."""
        return ErrorTable(*map(column, _COLUMNS), self.nodes, self.pcis, self.classes)

    def take(self, rows) -> "ErrorTable":
        """The rows ``rows`` selects (indices, a mask or a slice)."""
        return self._map(lambda name: getattr(self, name)[rows])

    def concat(self, other: "ErrorTable") -> "ErrorTable":
        """These rows, then ``other``'s (over the same string tables)."""
        return self._map(
            lambda name: np.concatenate((getattr(self, name), getattr(other, name)))
        )

    def boxed(self) -> List[ExtractedError]:
        """Every row as an :class:`ExtractedError`, in row order."""
        nodes = self.nodes
        classes = [_CLASS_BY_VALUE[value] for value in self.classes]
        return [
            ExtractedError(
                first, nodes[n], None if g < 0 else g, classes[c],
                None if x < 0 else x, count, last,
            )
            for first, n, g, c, x, count, last in zip(*(
                getattr(self, name).tolist()
                for name in ("first", "node", "gpu", "cls", "xid", "count", "last")
            ))
        ]


def _order_error(times: np.ndarray) -> Optional[str]:
    """The reference's out-of-order message for the first step back of
    more than 1e-9 s in a hit time column, or ``None``."""
    back = np.flatnonzero(times[1:] < times[:-1] - 1e-9)
    if not len(back):
        return None
    i = int(back[0])
    return f"hits out of order: {float(times[i + 1])} after {float(times[i])}"


def _tumbling_starts(
    t: np.ndarray, new_key: np.ndarray, closed: np.ndarray, window: float
) -> np.ndarray:
    """The rows opening a tumbling group, over key-sorted rows.

    Row ``j``'s group ends at the first later row of its key at or past
    ``t[j] + Δt`` (the next one if ``j`` is ``closed``).  A row Δt past
    its key's previous one, or after a closed group, always opens a
    group; such rows cut the keys into runs, and a run under Δt is one
    group.  Longer runs chain: one ``searchsorted`` over their ``(run,
    time)`` pairs (complex numbers, which numpy orders
    lexicographically) finds every row's closer, then the chain is
    walked a group at a time.  A key that steps back within the 1e-9 s
    tolerance has no sorted pairs, so it is walked hit by hit.
    """
    count = len(t)
    starts = []
    start = 0
    if not (t[1:] < t[:-1])[~new_key[1:]].any():
        opens = new_key.copy()
        opens[1:] |= (t[1:] >= t[:-1] + window) | closed[:-1]
        runs = np.flatnonzero(opens)
        ends = np.append(runs[1:], count)
        long = (ends - runs > 1) & (t[ends - 1] >= t[runs] + window)
        if not long.any():
            return runs
        member = np.repeat(long, ends - runs)
        # The time column lives in the pairs' imaginary part.
        pairs = np.empty(np.count_nonzero(member), dtype=np.complex128)
        pairs.real = np.repeat(np.flatnonzero(long), (ends - runs)[long])
        pairs.imag = t[member]
        for lo in range(0, len(pairs), _BLOCK):
            bounds = pairs[lo : lo + _BLOCK].copy()
            bounds.imag += window
            closer = np.maximum(
                np.searchsorted(pairs, bounds, side="left"),
                np.arange(lo + 1, lo + len(bounds) + 1),
            )
            while start < lo + len(bounds):
                starts.append(start)
                start = int(closer[start - lo])
        del pairs
        return np.union1d(runs, np.flatnonzero(member)[starts])
    times = t.tolist()
    shut = closed.tolist()
    key_start = np.flatnonzero(new_key)
    key_end = np.append(key_start[1:], count)[np.cumsum(new_key) - 1].tolist()
    while start < count:
        starts.append(start)
        bound = _NEG_INF if shut[start] else times[start] + window
        stop = key_end[start]
        start += 1
        while start < stop and times[start] < bound:
            start += 1
    return np.array(starts, dtype=np.int64)


def coalesce_groups(
    cols: HitColumns,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    mode: WindowMode = WindowMode.TUMBLING,
    carry: Optional[ErrorTable] = None,
    pushes: int = 0,
) -> Tuple[ErrorTable, ErrorTable]:
    """The Δt kernel: coalesce a columnar hit store onto carried groups.

    ``carry`` holds at most one group per identity key, over ``cols``'
    string tables: an open group, or one a watermark closed (``row >=
    0``), which the key's next hit completes.  ``pushes`` counts the
    hits pushed before.  Returns ``(completed, still_open)``: groups a
    later hit closed, in push order, tag 0; and each key's last group,
    tag 1, new keys numbered on from the carried ranks — carried groups
    in their order, then keys that (re)open here in push order, as a
    dict's keys would be.

    The rows are one per carried group, then one per hit.  The key maps
    onto ints (node and class ids; ``gpu_index`` when resolved, else
    ``-1 - pci_id``), and one stable sort by it lines each key's rows
    up.  Sliding groups split where the gap to the key's previous row
    reaches Δt; tumbling ones chain (:func:`_tumbling_starts`).  A step
    back of more than 1e-9 s is refused with the reference's message.
    """
    if window_seconds < 0:
        raise ValueError(f"window must be non-negative, got {window_seconds}")
    if carry is None:
        carry = ErrorTable.build([], cols)
    hit_times = np.frombuffer(cols.times, dtype=np.float64)
    error = _order_error(hit_times)
    if error is not None:
        raise ValueError(error)
    m, total = len(carry), len(carry) + len(hit_times)
    if m == total:
        return carry.take(slice(0, 0)), carry

    def rows(name: str, column: str = "") -> np.ndarray:
        hits = np.frombuffer(getattr(cols, column), np.int64) if column else hit_times
        return np.concatenate((getattr(carry, name), hits)) if m else hits

    t, last = rows("first"), rows("last")
    node, gpu, pci, cls, xid = (
        rows(name, column) for name, column in (
            ("node", "node_ids"), ("gpu", "gpu_indexes"), ("pci", "pci_ids"),
            ("cls", "class_ids"), ("xid", "xids"),
        )
    )
    gpu_key = np.where(gpu >= 0, gpu, -1 - pci)
    order = np.lexsort((gpu_key, cls, node))
    new_key = np.empty(total, dtype=bool)
    new_key[0] = True
    for lo in range(1, total, _BLOCK):
        block = order[lo - 1 : lo + _BLOCK]
        same = np.ones(len(block) - 1, dtype=bool)
        for column in (node, cls, gpu_key):
            values = column[block]
            same &= values[1:] == values[:-1]
        new_key[lo : lo + len(same)] = ~same
    del gpu_key
    closed = np.append(carry.row >= 0, np.zeros(total - m, bool))[order]
    ts = t[order]
    if mode is WindowMode.TUMBLING:
        first = _tumbling_starts(ts, new_key, closed, window_seconds)
    else:
        prev = np.where(closed, _NEG_INF, last[order])
        opens = new_key.copy()
        opens[1:] |= ts[1:] >= prev[:-1] + window_seconds
        first = np.flatnonzero(opens)
        del prev, opens
    end = np.append(first[1:], total)
    key_start = np.flatnonzero(new_key)
    run = key_start[np.searchsorted(key_start, first, side="right") - 1]
    flushed = np.append(new_key[first[1:]], True)
    head, lead = order[first], order[run]
    carried = np.flatnonzero(head < m)
    count = end - first
    count[carried] += carry.count[head[carried]] - 1
    row = np.full(len(first), -1, dtype=np.int64)
    row[carried] = carry.row[head[carried]]
    # A completed group is ranked by the push of the next group's first
    # hit; a key still open keeps its ordinal, a new one numbers on.
    rank = pushes + order[np.minimum(end, total - 1)] - m + 1
    opened = np.flatnonzero(flushed)
    known = lead[opened] < m
    rank[opened[known]] = carry.rank[lead[opened[known]]]
    fresh = opened[~known]
    base = int(carry.rank.max()) + 1 if m else 0
    rank[fresh[np.argsort(lead[fresh])]] = np.arange(base, base + len(fresh))
    # An open group sits where its key entered the open set: a carried
    # row keeps its place unless its key was closed and reopens here,
    # then (like a new key) at its first hit here.
    live = known.copy()
    live[known] = carry.row[lead[opened[known]]] < 0
    first_hit = order[np.minimum(run[opened] + known, total - 1)]
    place = np.where(
        head[opened] < m, head[opened], np.where(live, lead[opened], first_hit)
    )
    firsts, lasts = ts[first], last[order[end - 1]]
    tag = flushed.astype(np.int64)
    # The tables outlive every hit-sized array: release those first.
    del order, ts, new_key, closed
    done = np.flatnonzero(~flushed)

    def table(rows: np.ndarray) -> ErrorTable:
        at = head[rows]
        return ErrorTable(
            firsts[rows], lasts[rows], node[at], gpu[at], pci[at], cls[at],
            xid[at], count[rows], tag[rows], rank[rows], row[rows],
            carry.nodes, carry.pcis, carry.classes,
        )

    return table(done[np.argsort(rank[done])]), table(opened[np.argsort(place)])


def coalesce_columns(
    cols: HitColumns,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    mode: WindowMode = WindowMode.TUMBLING,
) -> List[ExtractedError]:
    """The batch pass, list-equal to ``coalesce(cols.to_hits(), ...)``:
    one kernel call, every open group flushed, one boxing in order."""
    done, still_open = coalesce_groups(cols, window_seconds, mode)
    errors = done.concat(still_open)
    del done, still_open
    errors = errors.take(np.lexsort((errors.rank, errors.tag, errors.first)))
    return errors.boxed()


class StreamingCoalescer:
    """Watermark-evicting coalescer whose drained output is *identical*
    to batch :func:`coalesce` over the same hit stream.

    :meth:`evict` closes the groups whose window boundary the watermark
    passed (hits arrive in time order within 1e-9 s, so a later hit
    would complete them anyway).  Their tie order is *deferred*: a
    later hit of the key at push ``p`` gives tag 0, rank ``p``, as
    batch would have completed the group there; else the flush rank
    the group carries stands.  So :meth:`errors`, sorted by ``(first,
    tag, rank)``, equals the batch list once drained.

    The state is two :class:`ErrorTable`\\ s: a row per key seen (its
    open group, or its evicted group, ``row >= 0``) in the order of the
    version-1 checkpoint's ``open`` and ``pending`` lists, and every
    completed error in completion order.  :meth:`push_columns` is one
    :func:`coalesce_groups` call, :meth:`evict` one mask and
    :meth:`errors` one ``lexsort``; an error is boxed at most once, on
    the first :meth:`errors` that needs it.  Completed errors are kept
    (and checkpointed): memory grows with errors, not with raw hits.

    Args:
        window_seconds: the Δt window.
        mode: tumbling (paper) or sliding (ablation).
    """

    def __init__(
        self,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        mode: WindowMode = WindowMode.TUMBLING,
    ) -> None:
        if window_seconds < 0:
            raise ValueError(f"window must be non-negative, got {window_seconds}")
        self._window = window_seconds
        self._mode = mode
        self._groups = ErrorTable.build([])
        #: Completed errors in rows ``[0, _count)``, spare rows after.
        self._store = ErrorTable.build([], self._groups)
        self._count = 0
        self._boxed: List[ExtractedError] = []
        self._pushes = 0
        self._last_time: Optional[float] = None
        self._drained = False

    @property
    def window_seconds(self) -> float:
        """The Δt in use."""
        return self._window

    @property
    def mode(self) -> WindowMode:
        """The window semantics in use."""
        return self._mode

    @property
    def open_groups(self) -> int:
        """Number of groups still accumulating hits."""
        return int(np.count_nonzero(self._groups.row < 0))

    @property
    def completed_count(self) -> int:
        """Errors completed so far (excludes open groups)."""
        return self._count

    def emitted(self, start: int = 0) -> ErrorTable:
        """A copy of the completed errors from row ``start`` on, in
        completion order."""
        return self._store.take(np.arange(start, self._count))

    def _emit(self, groups: ErrorTable) -> ErrorTable:
        """Append completed ``groups``; returns them, ``row`` set."""
        start = self._count
        self._count += len(groups)
        if self._count > len(self._store):
            size = max(self._count, 2 * len(self._store), 64)
            self._store = self._store._map(
                lambda name: np.resize(getattr(self._store, name), size)
            )
        groups.row[:] = np.arange(start, self._count)
        for name in _COLUMNS:
            getattr(self._store, name)[start : self._count] = getattr(groups, name)
        return groups

    def _box(self) -> List[ExtractedError]:
        """The boxed errors, extended to every completed one."""
        boxed = self._boxed
        boxed.extend(self._store.take(slice(len(boxed), self._count)).boxed())
        return boxed

    def push(self, hit: ErrorHit) -> Optional[ExtractedError]:
        """Feed one hit; returns a completed error when one closes.

        Hits must arrive in non-decreasing time order (1e-9 tolerance,
        same contract as :class:`ErrorCoalescer`).
        """
        row = HitColumns()
        row.append_hit(hit)
        done = self.push_columns(row)
        return self._box()[int(done.row[0])] if len(done) else None

    def push_columns(self, cols: HitColumns) -> ErrorTable:
        """Feed a batch of hits, as if ``cols.to_hits()`` one by one;
        returns the errors it completed, in push order."""
        if self._drained:
            raise ValueError("coalescer already drained")
        groups = self._groups
        hits = HitColumns(nodes=groups.nodes, pcis=groups.pcis, classes=groups.classes)
        hits.extend_clamped(cols, _NEG_INF)
        if not len(hits):
            return self.emitted(self._count)
        last_time = self._last_time
        if last_time is not None and hits.times[0] < last_time - 1e-9:
            raise ValueError(f"hits out of order: {hits.times[0]} after {last_time}")
        done, self._groups = coalesce_groups(
            hits, self._window, self._mode, groups, self._pushes
        )
        self._pushes += len(hits)
        self._last_time = hits.times[-1]
        # Evicted groups completed here resolve their deferred ranks.
        resolved = done.row >= 0
        self._store.tag[done.row[resolved]] = 0
        self._store.rank[done.row[resolved]] = done.rank[resolved]
        return self._emit(done.take(~resolved))

    def evict(self, watermark: float) -> ErrorTable:
        """Close every group whose window boundary the watermark passed
        (by at least 1e-9 s, so no later hit can merge into it); returns
        the newly completed errors."""
        if self._drained:
            raise ValueError("coalescer already drained")
        groups = self._groups
        boundary = groups.first if self._mode is WindowMode.TUMBLING else groups.last
        evicted = (groups.row < 0) & (boundary + self._window <= watermark - 1e-9)
        done = self._emit(groups.take(evicted))
        self._groups = groups.take(~evicted).concat(done)
        return done

    def drain(self) -> List[ExtractedError]:
        """End of stream: flush the open groups.  Returns the errors
        that completes, in batch flush order; a second drain returns
        ``[]``."""
        if self._drained:
            return []
        start = self._count
        self._emit(self._groups.take(self._groups.row < 0))
        self._groups = self._groups.take(slice(0, 0))
        self._drained = True
        boxed = self._box()
        flushed = np.argsort(self._store.first[start : self._count], kind="stable")
        return [boxed[start + i] for i in flushed.tolist()]

    def errors(self) -> List[ExtractedError]:
        """All completed errors in batch order: after :meth:`drain`,
        :func:`coalesce`'s list; before, a correct-so-far view."""
        done = self._store.take(slice(0, self._count))
        boxed = self._box()
        order = np.lexsort((done.rank, done.tag, done.first))
        return [boxed[i] for i in order.tolist()]

    def to_state(self) -> Dict[str, object]:
        """The version-1 checkpoint document (``key_order`` lists the
        groups' keys: every key seen, none after :meth:`drain`)."""
        groups, store = self._groups, self._store
        g = {name: getattr(groups, name).tolist() for name in _COLUMNS}
        e = {name: getattr(store, name)[: self._count].tolist() for name in _COLUMNS}
        nodes, pcis, classes = groups.nodes, groups.pcis, groups.classes
        keys = [
            [nodes[n], gpu if gpu >= 0 else pcis[p], classes[c]]
            for n, gpu, p, c in zip(g["node"], g["gpu"], g["pci"], g["cls"])
        ]
        pending = {r for r in g["row"] if r >= 0}
        return {
            "window_seconds": self._window,
            "mode": self._mode.value,
            "pushes": self._pushes,
            "last_time": self._last_time,
            "drained": self._drained,
            "key_order": sorted(
                ([key, r] for key, r in zip(keys, g["rank"])), key=lambda kr: kr[1]
            ),
            # An open group as [key, first hit, last_time, count].
            "open": [
                [key, [g["first"][i], nodes[g["node"][i]], _none(g["gpu"][i]),
                       pcis[g["pci"][i]], classes[g["cls"][i]], _none(g["xid"][i])],
                 g["last"][i], g["count"][i]]
                for i, key in enumerate(keys) if g["row"][i] < 0
            ],
            "pending": [[key, r] for key, r in zip(keys, g["row"]) if r >= 0],
            "emitted": [
                [[e["first"][i], nodes[e["node"][i]], _none(e["gpu"][i]),
                  classes[e["cls"][i]], _none(e["xid"][i]), e["count"][i],
                  e["last"][i]],
                 *((None, None) if i in pending else (e["tag"][i], e["rank"][i]))]
                for i in range(self._count)
            ],
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "StreamingCoalescer":
        """Rebuild a coalescer from :meth:`to_state` output."""
        self = cls(
            float(state["window_seconds"]),  # type: ignore[arg-type]
            WindowMode(state["mode"]),
        )
        self._pushes = int(state["pushes"])  # type: ignore[call-overload]
        last_time = state.get("last_time")
        self._last_time = None if last_time is None else float(last_time)  # type: ignore[arg-type]
        self._drained = bool(state["drained"])
        ordinal = {
            tuple(key): int(r) for key, r in state["key_order"]  # type: ignore[union-attr]
        }
        pending = {
            int(r): tuple(key) for key, r in state["pending"]  # type: ignore[union-attr]
        }
        done = []
        for i, ((t, node, gpu, value, xid, count, last), tag, rank) in enumerate(
            state["emitted"]  # type: ignore[arg-type]
        ):
            if tag is None:
                tag, rank = 1, ordinal[pending[i]]
            done.append((float(t), float(last), node, gpu, None, value, xid,
                         int(count), int(tag), int(rank), -1))
        self._emit(ErrorTable.build(done, self._store))
        # An evicted group is its completed row; its pending entry's key
        # holds the PCI of an unresolved GPU.
        held = [
            (float(t), float(last), node, gpu, pci, value, xid, int(count), 1,
             ordinal[tuple(key)], -1)
            for key, (t, node, gpu, pci, value, xid), last, count
            in state["open"]  # type: ignore[union-attr]
        ] + [
            (*done[i][:4], key[1] if isinstance(key[1], str) else None,
             *done[i][5:8], 1, ordinal[key], i)
            for i, key in pending.items()
        ]
        self._groups = ErrorTable.build(held, self._store)
        for value in self._store.classes:
            EventClass(value)  # an unknown class is damage, found at load
        return self


def _none(value: int) -> Optional[int]:
    """A ``-1``-encoded column value as its JSON form."""
    return None if value < 0 else value
