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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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


def _time_order(times: np.ndarray) -> Tuple[Optional[str], bool]:
    """``(error, sorted)`` for a hit time column: the reference's
    out-of-order message for the first step back of more than 1e-9 s
    (``None`` when there is none), and whether the column never steps
    back at all."""
    back = np.flatnonzero(times[1:] < times[:-1] - 1e-9)
    if len(back):
        i = int(back[0])
        return (
            f"hits out of order: {float(times[i + 1])} after {float(times[i])}",
            False,
        )
    return None, not (times[1:] < times[:-1]).any()


def coalesce_columns(
    cols: HitColumns,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    mode: WindowMode = WindowMode.TUMBLING,
) -> List[ExtractedError]:
    """:func:`coalesce` over a columnar hit store, in array passes.

    Output is list-equal to ``coalesce(cols.to_hits(), ...)``:

    * **Grouping** — the identity key maps bijectively onto small
      ints: ``node`` ↔ its unique intern id, ``EventClass`` ↔ its
      unique class id, and the GPU key (``gpu_index`` when resolved,
      else the PCI string) ↔ ``gpu_index`` when non-negative, else
      ``-1 - pci_id`` (negative, so it can never collide with a real
      GPU index).  One stable sort by that key lines each key's hits
      up in push order, which is time order.
    * **Window logic** — the same boundary arithmetic on the same
      times.  Sliding groups split wherever the gap to the key's
      previous hit reaches Δt.  Tumbling groups chain: the group
      opened by hit ``j`` is closed by the first later hit of its key
      at or past ``t_j + Δt``, found for every hit at once by one
      ``searchsorted`` over ``(key, time)`` pairs (complex numbers,
      which numpy orders lexicographically); only the chain from the
      first hit is then walked, one step per group.
    * **Ordering** — :func:`coalesce` emits completed groups in push
      order, then the groups still open (by first time, ties in key
      first-appearance order), then sorts everything stably by first
      time.  That is one ``lexsort`` by ``(first time, flushed?,
      completing push index or key first-appearance index)``.

    A stream that steps back in time by no more than the 1e-9 s the
    ordering check tolerates has no sorted time column to search, so
    it is coalesced by the per-hit reference instead.  Boxed objects
    are only built per *coalesced error*, never per raw hit.
    """
    if window_seconds < 0:
        raise ValueError(f"window must be non-negative, got {window_seconds}")
    count = len(cols)
    if not count:
        return []
    error, in_order = _time_order(np.frombuffer(cols.times, dtype=np.float64))
    if error is not None:
        raise ValueError(error)
    if not in_order:
        return coalesce(cols.to_hits(), window_seconds, mode)

    node = np.frombuffer(cols.node_ids, dtype=np.int64)
    gpu = np.frombuffer(cols.gpu_indexes, dtype=np.int64)
    cls = np.frombuffer(cols.class_ids, dtype=np.int64)
    gpu_key = np.where(gpu >= 0, gpu, -1 - np.frombuffer(cols.pci_ids, dtype=np.int64))
    order = np.lexsort((gpu_key, cls, node))
    new_key = np.empty(count, dtype=bool)
    new_key[0] = True
    for lo in range(1, count, _BLOCK):
        rows = order[lo - 1 : lo + _BLOCK]
        same = np.ones(len(rows) - 1, dtype=bool)
        for column in (node, cls, gpu_key):
            values = column[rows]
            same &= values[1:] == values[:-1]
        new_key[lo : lo + len(same)] = ~same
    del gpu_key

    if mode is WindowMode.TUMBLING:
        # The time column lives in the pairs' imaginary part.
        pairs = np.empty(count, dtype=np.complex128)
        np.cumsum(new_key, dtype=np.float64, out=pairs.real)
        pairs.real -= 1
        pairs.imag = np.frombuffer(cols.times, dtype=np.float64)[order]
        t = pairs.imag
        starts = []
        start = 0
        for lo in range(0, count, _BLOCK):
            bounds = pairs[lo : lo + _BLOCK].copy()
            bounds.imag += window_seconds
            closer = np.maximum(
                np.searchsorted(pairs, bounds, side="left"),
                np.arange(lo + 1, lo + len(bounds) + 1),
            )
            while start < lo + len(bounds):
                starts.append(start)
                start = int(closer[start - lo])
        del bounds, closer
        first = np.array(starts, dtype=np.int64)
    else:
        t = np.frombuffer(cols.times, dtype=np.float64)[order]
        opens = new_key.copy()
        opens[1:] |= t[1:] >= t[:-1] + window_seconds
        first = np.flatnonzero(opens)
    end = np.append(first[1:], count)
    key_start = np.flatnonzero(new_key)
    # Groups still open at the end are each key's last; they are
    # ranked by their key's first hit, the others by the push that
    # completed them (the next group's first hit).
    flushed = np.append(new_key[first[1:]], True)
    rank = np.where(
        flushed,
        order[key_start[np.searchsorted(key_start, first, side="right") - 1]],
        order[np.minimum(end, count - 1)],
    )
    emit = np.lexsort((rank, flushed, t[first]))
    first, end = first[emit], end[emit]
    head = order[first]
    fields = (
        t[first].tolist(),
        node[head].tolist(),
        gpu[head].tolist(),
        cls[head].tolist(),
        np.frombuffer(cols.xids, dtype=np.int64)[head].tolist(),
        (end - first).tolist(),
        t[end - 1].tolist(),
    )
    # The errors outlive every hit-sized array: release those first.
    del t, order, new_key, head
    if mode is WindowMode.TUMBLING:
        del pairs
    nodes = cols.nodes
    classes = [_CLASS_BY_VALUE[value] for value in cols.classes]
    return [
        ExtractedError(
            first_time,
            nodes[n],
            None if g < 0 else g,
            classes[c],
            None if x < 0 else x,
            size,
            last_time,
        )
        for first_time, n, g, c, x, size, last_time in zip(*fields)
    ]


def _group_error(group: list) -> ExtractedError:
    """The error a :class:`StreamingCoalescer` group completes as."""
    first_time, last_time, count, node, gpu_index, _, event_class, xid = group
    return ExtractedError(
        first_time, node, gpu_index, event_class, xid, count, last_time
    )


class StreamingCoalescer:
    """Watermark-evicting coalescer whose drained output is *identical*
    to batch :func:`coalesce` over the same hit stream.

    The batch coalescer holds every open group until end of input, which
    a long-running service cannot afford.  This variant adds
    :meth:`evict`: once the stream watermark has passed a group's window
    boundary, no future hit can merge into it (hits arrive in
    non-decreasing time order within the pipeline's 1e-9 tolerance, so
    any future hit lies at or beyond the boundary and would complete
    the group anyway), and the group can be emitted early and its
    memory reclaimed.

    Matching the batch output *order* — not just the set — requires
    reconstructing :func:`coalesce`'s stable sort.  Batch output is the
    stable time-sort of push-completions (in push order) followed by
    flush-completions (in key first-insertion order), i.e. a sort by
    the key ``(time, tag, rank)`` with ``tag=0, rank=push index`` for
    push-completions and ``tag=1, rank=key insertion order`` for
    flush-completions.  An evicted group's rank is therefore *deferred*:
    if a later identical hit arrives at push index ``p``, batch would
    have completed the group there (``tag=0, rank=p``); if the stream
    ends first, batch would have flushed it (``tag=1, rank=key order``).
    :meth:`errors` applies the reconstructed sort, so a fully drained
    streaming pass is list-equal to the batch pass by construction.

    Hits arrive in columnar batches (:meth:`push_columns`, the stream
    ingest's path) or one at a time (:meth:`push`, a one-row batch);
    either way they run through the same loop.

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
        #: key -> ``[first_time, last_time, count, node, gpu_index, pci,
        #: event_class, xid]``, the last five from the group's first hit.
        self._open: Dict[Tuple[str, object, EventClass], list] = {}
        #: key -> first-ever insertion index (batch dict order proxy).
        self._key_order: Dict[Tuple[str, object, EventClass], int] = {}
        #: completed errors as mutable ``[error, tag, rank]`` entries;
        #: evicted entries carry ``tag=None`` until their rank resolves.
        self._emitted: List[List[object]] = []
        #: key -> index into ``_emitted`` of its unresolved eviction.
        self._pending: Dict[Tuple[str, object, EventClass], int] = {}
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
        return len(self._open)

    @property
    def completed_count(self) -> int:
        """Errors completed so far (excludes open groups)."""
        return len(self._emitted)

    def _boundary(self, group: list) -> float:
        return (
            group[0] if self._mode is WindowMode.TUMBLING else group[1]
        ) + self._window

    def push(self, hit: ErrorHit) -> Optional[ExtractedError]:
        """Feed one hit; returns a completed error when one closes.

        Hits must arrive in non-decreasing time order (1e-9 tolerance,
        same contract as :class:`ErrorCoalescer`).
        """
        row = HitColumns()
        row.append_hit(hit)
        done = self.push_columns(row)
        return done[0] if done else None

    def push_columns(self, cols: HitColumns) -> List[ExtractedError]:
        """Feed a batch of hits; returns the errors it completed.

        The effect is that of pushing ``cols.to_hits()`` one by one,
        completions returned in push order, but the loop borrows
        :func:`coalesce_columns`' consecutive-key short-circuit and
        boxes nothing per hit: a group keeps its first hit's fields.
        """
        if self._drained:
            raise ValueError("coalescer already drained")
        window = self._window
        tumbling = self._mode is WindowMode.TUMBLING
        nodes = cols.nodes
        pcis = cols.pcis
        classes = [_CLASS_BY_VALUE[value] for value in cols.classes]
        open_groups = self._open
        key_order = self._key_order
        pending = self._pending
        emitted = self._emitted
        pushes = self._pushes
        last_time = _NEG_INF if self._last_time is None else self._last_time
        completed: List[ExtractedError] = []
        # The short-circuit starts cold on every call: between calls
        # evict() may have closed the group it would point at.
        prev_n = prev_g = prev_p = prev_c = None
        key = group = None
        for t, n, g, p, c, x in zip(
            cols.times, cols.node_ids, cols.gpu_indexes,
            cols.pci_ids, cols.class_ids, cols.xids,
        ):
            if t < last_time - 1e-9:
                self._pushes = pushes
                self._last_time = last_time
                raise ValueError(f"hits out of order: {t} after {last_time}")
            last_time = t
            pushes += 1
            if n != prev_n or g != prev_g or p != prev_p or c != prev_c:
                prev_n, prev_g, prev_p, prev_c = n, g, p, c
                key = (nodes[n], g if g >= 0 else pcis[p], classes[c])
                if key not in key_order:
                    key_order[key] = len(key_order)
                if pending:
                    index = pending.pop(key, None)
                    if index is not None:
                        # Batch would have completed the evicted group
                        # at this very push; resolve its deferred rank.
                        entry = emitted[index]
                        entry[1] = 0
                        entry[2] = pushes
                group = open_groups.get(key)
            if group is not None:
                if t < (group[0] if tumbling else group[1]) + window:
                    group[1] = t
                    group[2] += 1
                    continue
                error = _group_error(group)
                emitted.append([error, 0, pushes])
                completed.append(error)
            open_groups[key] = group = [
                t, t, 1, nodes[n], None if g < 0 else g,
                pcis[p], classes[c], None if x < 0 else x,
            ]
        if pushes != self._pushes:
            self._pushes = pushes
            self._last_time = last_time
        return completed

    def evict(self, watermark: float) -> List[ExtractedError]:
        """Close every group whose window boundary the watermark passed.

        Safe by the ordering contract: a future hit has time at least
        ``watermark - 1e-9``, so a group with boundary at or below that
        can never absorb another merge.  Returns the newly completed
        errors in eviction order (callers feed them to estimators; the
        batch-identical ordering is applied later by :meth:`errors`).
        """
        if self._drained:
            raise ValueError("coalescer already drained")
        completed: List[ExtractedError] = []
        for key in [
            k
            for k, g in self._open.items()
            if self._boundary(g) <= watermark - 1e-9
        ]:
            error = _group_error(self._open.pop(key))
            self._pending[key] = len(self._emitted)
            self._emitted.append([error, None, None])
            completed.append(error)
        return completed

    def drain(self) -> List[ExtractedError]:
        """End of stream: flush open groups, resolve deferred ranks.

        Returns only the *newly* completed errors (the final flush), in
        batch flush order; use :meth:`errors` for the full sorted list.
        Idempotent — a second drain returns an empty list.
        """
        if self._drained:
            return []
        flushed = [
            (self._key_order[key], _group_error(group))
            for key, group in self._open.items()
        ]
        self._open.clear()
        for rank, error in flushed:
            self._emitted.append([error, 1, rank])
        for key, index in self._pending.items():
            entry = self._emitted[index]
            entry[1] = 1
            entry[2] = self._key_order[key]
        self._pending.clear()
        self._drained = True
        flushed.sort(key=lambda pair: pair[1].time)
        return [error for _, error in flushed]

    def errors(self) -> List[ExtractedError]:
        """All completed errors in batch-identical order.

        After :meth:`drain` this is exactly what :func:`coalesce` would
        return for the same hit stream.  Before drain, still-pending
        evictions sort with their provisional flush rank and open
        groups are absent, so the list is a (correct-so-far) prefix
        view rather than the final answer.
        """
        provisional = {
            index: self._key_order[key]
            for key, index in self._pending.items()
        }

        def sort_key(pair: Tuple[int, List[object]]) -> Tuple[float, int, int]:
            index, entry = pair
            error, tag, rank = entry
            if tag is None:
                return (error.time, 1, provisional[index])  # type: ignore[union-attr]
            return (error.time, tag, rank)  # type: ignore[return-value]

        return [
            entry[0]  # type: ignore[misc]
            for _, entry in sorted(enumerate(self._emitted), key=sort_key)
        ]

    def to_state(self) -> Dict[str, object]:
        """JSON-serializable state for checkpointing."""
        return {
            "window_seconds": self._window,
            "mode": self._mode.value,
            "pushes": self._pushes,
            "last_time": self._last_time,
            "drained": self._drained,
            "key_order": [
                [_key_to_json(key), order]
                for key, order in self._key_order.items()
            ],
            # An open group as [key, first hit, last_time, count].
            "open": [
                [_key_to_json(key), [g[0], *g[3:6], g[6].value, g[7]]]
                + g[1:3]
                for key, g in self._open.items()
            ],
            "pending": [
                [_key_to_json(key), index]
                for key, index in self._pending.items()
            ],
            "emitted": [
                [_error_to_json(error), tag, rank]
                for error, tag, rank in self._emitted
            ],
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "StreamingCoalescer":
        """Rebuild a coalescer from :meth:`to_state` output."""
        self = cls(
            window_seconds=float(state["window_seconds"]),  # type: ignore[arg-type]
            mode=WindowMode(state["mode"]),
        )
        self._pushes = int(state["pushes"])  # type: ignore[call-overload]
        last_time = state.get("last_time")
        self._last_time = None if last_time is None else float(last_time)  # type: ignore[arg-type]
        self._drained = bool(state["drained"])
        for raw_key, order in state["key_order"]:  # type: ignore[union-attr]
            self._key_order[_key_from_json(raw_key)] = int(order)
        for raw_key, raw_hit, last, count in state["open"]:  # type: ignore[union-attr]
            time, node, gpu_index, pci, class_value, xid = raw_hit
            self._open[_key_from_json(raw_key)] = [
                float(time), float(last), int(count), node, gpu_index, pci,
                EventClass(class_value), xid,
            ]
        for raw_key, index in state["pending"]:  # type: ignore[union-attr]
            self._pending[_key_from_json(raw_key)] = int(index)
        for raw_error, tag, rank in state["emitted"]:  # type: ignore[union-attr]
            self._emitted.append(
                [
                    _error_from_json(raw_error),
                    None if tag is None else int(tag),
                    None if rank is None else int(rank),
                ]
            )
        return self


def _key_to_json(key: Tuple[str, object, EventClass]) -> List[object]:
    node, gpu_key, event_class = key
    return [node, gpu_key, event_class.value]


def _key_from_json(raw: object) -> Tuple[str, object, EventClass]:
    node, gpu_key, class_value = raw  # type: ignore[misc]
    return (node, gpu_key, EventClass(class_value))


def _error_to_json(error: ExtractedError) -> List[object]:
    return [
        error.time,
        error.node,
        error.gpu_index,
        error.event_class.value,
        error.xid,
        error.raw_line_count,
        error.last_time,
    ]


def _error_from_json(raw: object) -> ExtractedError:
    time, node, gpu_index, class_value, xid, count, last = raw  # type: ignore[misc]
    return ExtractedError(
        time=float(time),
        node=node,
        gpu_index=gpu_index,
        event_class=EventClass(class_value),
        xid=xid,
        raw_line_count=int(count),
        last_time=None if last is None else float(last),
    )


def iter_coalesced(
    hits: Iterable[ErrorHit],
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    mode: WindowMode = WindowMode.TUMBLING,
) -> Iterator[ExtractedError]:
    """Streaming variant of :func:`coalesce`.

    Completed errors are yielded as their windows close, then the
    remainder at end of stream; output is *approximately* ordered (an
    error is only emitted once a newer identical hit arrives or the
    stream ends), which is sufficient for counting but callers needing
    strict order should use :func:`coalesce`.
    """
    coalescer = ErrorCoalescer(window_seconds, mode)
    for hit in hits:
        done = coalescer.push(hit)
        if done is not None:
            yield done
    yield from coalescer.flush()
