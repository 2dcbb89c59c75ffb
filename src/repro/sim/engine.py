"""Discrete-event simulation engine.

A minimal but complete event-heap DES kernel: events are ``(time,
priority, seq)``-ordered callbacks; the seq counter breaks ties so
execution is deterministic for equal timestamps.  Subsystems (fault
processes, the scheduler, the ops/repair model) register callbacks and
may cancel previously scheduled events — cancellation is lazy
(tombstoned) to keep the heap O(log n).

The engine runs until a configured horizon, which for the full study is
the 1170-day measurement window.
"""

from __future__ import annotations

import copy
import hashlib
import heapq
import json
import time as _time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..core.exceptions import SimulationError

EventCallback = Callable[[], None]


@dataclass(slots=True, eq=False)
class _ScheduledEvent:
    """One scheduled callback and its cancellation state.

    The heap holds ``(time, priority, seq, event)`` tuples, so ordering
    is compared in C; ``seq`` is unique, so the event itself is never
    compared.
    """

    time: float
    priority: int
    seq: int
    callback: EventCallback
    label: str = ""
    cancelled: bool = False
    fired: bool = False


#: A heap entry: the event's sort key, then the event.
_Entry = Tuple[float, int, int, _ScheduledEvent]


class EventHandle:
    """Opaque handle returned by :meth:`Engine.schedule` for cancellation."""

    __slots__ = ("_event", "_engine")

    def __init__(self, event: _ScheduledEvent, engine: "Engine") -> None:
        self._event = event
        self._engine = engine

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already fired or was cancelled."""
        if self._event.cancelled or self._event.fired:
            return
        self._event.cancelled = True
        self._engine._note_cancelled()

    @property
    def cancelled(self) -> bool:
        """True when the event has been cancelled."""
        return self._event.cancelled

    @property
    def time(self) -> float:
        """Scheduled firing time."""
        return self._event.time


@dataclass
class EngineSnapshot:
    """Frozen copy of an :class:`Engine`'s mutable state.

    Produced by :meth:`Engine.snapshot`; heap entries are copies, so
    later engine activity (including compaction) never mutates a
    snapshot.  Callbacks are shared by reference — see
    :meth:`Engine.snapshot` for the validity rules.
    """

    now: float
    seq: int
    executed: int
    scheduled: int
    cancelled_pending: int
    cancellations: int
    tombstones_fired: int
    compactions: int
    tombstones_removed: int
    events: List[_ScheduledEvent]
    calls_by_subsystem: Dict[str, int]
    seconds_by_subsystem: Dict[str, float]
    compaction_scanned: int = 0

    @property
    def live_events(self) -> int:
        """Snapshot heap entries that are not tombstones."""
        return sum(1 for e in self.events if not e.cancelled)


def _subsystem_of(label: str) -> str:
    """The metrics subsystem of an event label (prefix before ``:``)."""
    if not label:
        return "unlabeled"
    return label.split(":", 1)[0]


class Engine:
    """The discrete-event simulation kernel.

    Args:
        horizon: simulation end time in seconds.  Events scheduled at or
            beyond the horizon are accepted but never executed.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when present the engine tallies per-subsystem event counts
            and callback wall time (flushed via :meth:`flush_metrics`).
        auto_compact_ratio: tombstone fraction of the heap above which
            compaction runs automatically (``0`` disables).
        auto_compact_min: heap size below which auto-compaction never
            triggers (tiny heaps are not worth the heapify).

    **Compaction cost model.**  A compaction pass scans the whole heap
    (``O(n)`` filter + heapify), so the trigger must guarantee each
    pass removes enough tombstones to amortize that scan.  Automatic
    compaction fires only when the pending tombstone count reaches
    ``auto_compact_ratio * len(heap)`` on a heap of at least
    ``auto_compact_min`` entries:

    * the *ratio* term bounds scanned-per-removed by ``1/ratio``
      regardless of heap size (each pass removes at least half the
      entries it scans at the default 0.5), so total compaction work
      over a run is bounded by ``cancellations / ratio`` entries
      scanned — tombstone storms on million-entry heaps stay safe;
    * the *min* term keeps small heaps from paying heapify churn at
      all: their tombstones are simply skipped when they surface.

    :attr:`compaction_scanned` exposes the total scan work so
    regression tests can pin the amortized bound.
    """

    #: Default tombstone fraction that triggers automatic compaction.
    AUTO_COMPACT_RATIO = 0.5
    #: Default minimum heap size for automatic compaction.
    AUTO_COMPACT_MIN = 4096

    def __init__(
        self,
        horizon: float,
        metrics=None,
        auto_compact_ratio: float = AUTO_COMPACT_RATIO,
        auto_compact_min: int = AUTO_COMPACT_MIN,
    ) -> None:
        if horizon <= 0:
            raise SimulationError(f"horizon must be positive, got {horizon}")
        if not 0.0 <= auto_compact_ratio <= 1.0:
            raise SimulationError(
                f"auto_compact_ratio must be in [0, 1], got {auto_compact_ratio}"
            )
        self._horizon = float(horizon)
        self._now = 0.0
        self._heap: List[_Entry] = []
        self._seq = 0
        self._executed = 0
        self._scheduled = 0
        self._running = False
        self._metrics = metrics
        self._auto_compact_ratio = auto_compact_ratio
        self._auto_compact_min = auto_compact_min
        # Tombstone accounting (all O(1) per operation).
        self._cancelled_pending = 0
        self._cancellations = 0
        self._tombstones_fired = 0
        self._compactions = 0
        self._tombstones_removed = 0
        self._compaction_scanned = 0
        # Per-subsystem tallies, flushed to the registry post-run so the
        # hot loop touches only plain dicts.
        self._calls_by_subsystem: Dict[str, int] = {}
        self._seconds_by_subsystem: Dict[str, float] = {}

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def horizon(self) -> float:
        """The simulation end time."""
        return self._horizon

    @property
    def executed_events(self) -> int:
        """Number of event callbacks executed so far (for diagnostics)."""
        return self._executed

    @property
    def pending_events(self) -> int:
        """Number of heap entries not yet fired (including tombstones)."""
        return len(self._heap)

    def schedule(
        self,
        time: float,
        callback: EventCallback,
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` to run at ``time``.

        Args:
            time: absolute simulation time; must not be in the past.
            callback: zero-argument callable executed when the event fires.
            priority: lower values run first among same-time events;
                used e.g. so an error lands before the job-end record it
                may cause.
            label: optional diagnostic tag.

        Returns:
            a handle whose :meth:`EventHandle.cancel` withdraws the event.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        time = float(time)
        event = _ScheduledEvent(time, priority, self._seq, callback, label)
        heapq.heappush(self._heap, (time, priority, self._seq, event))
        self._seq += 1
        self._scheduled += 1
        return EventHandle(event, self)

    def schedule_after(
        self,
        delay: float,
        callback: EventCallback,
        priority: int = 0,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule(self._now + delay, callback, priority, label)

    def schedule_batch(
        self,
        entries: Iterable[Tuple[float, EventCallback]],
        priority: int = 0,
        label: str = "",
    ) -> int:
        """Bulk-schedule fire-and-forget events; returns the count pushed.

        Built for fleet-scale producers that enqueue thousands of
        events per slice: no :class:`EventHandle` objects are created
        (batch entries cannot be cancelled individually), and when the
        batch is large relative to the heap the entries are appended
        and re-heapified in one ``O(n + k)`` pass instead of ``k``
        ``O(log n)`` sift-ups.  Ordering semantics are identical to
        ``k`` consecutive :meth:`schedule` calls — the shared sequence
        counter keeps execution order deterministic.
        """
        now = self._now
        seq = self._seq
        events: List[_Entry] = []
        for time, callback in entries:
            if time < now:
                raise SimulationError(
                    f"cannot schedule event at {time} before current "
                    f"time {now}"
                )
            time = float(time)
            events.append(
                (
                    time,
                    priority,
                    seq,
                    _ScheduledEvent(time, priority, seq, callback, label),
                )
            )
            seq += 1
        self._seq = seq
        if not events:
            return 0
        if len(events) >= max(64, len(self._heap) // 4):
            self._heap.extend(events)
            heapq.heapify(self._heap)
        else:
            for entry in events:
                heapq.heappush(self._heap, entry)
        self._scheduled += len(events)
        return len(events)

    def run(self, until: Optional[float] = None) -> None:
        """Execute events in time order until the horizon (or ``until``).

        Safe to call repeatedly with increasing ``until`` values to step
        the simulation; a second concurrent call is an error.
        """
        if self._running:
            raise SimulationError("engine is already running (reentrant run())")
        stop = self._horizon if until is None else min(until, self._horizon)
        self._running = True
        timed = self._metrics is not None
        try:
            while self._heap and self._heap[0][0] < stop:
                event = heapq.heappop(self._heap)[3]
                if event.cancelled:
                    self._cancelled_pending -= 1
                    self._tombstones_fired += 1
                    continue
                self._now = event.time
                event.fired = True
                if timed:
                    subsystem = _subsystem_of(event.label)
                    t0 = _time.perf_counter()
                    event.callback()
                    elapsed = _time.perf_counter() - t0
                    self._calls_by_subsystem[subsystem] = (
                        self._calls_by_subsystem.get(subsystem, 0) + 1
                    )
                    self._seconds_by_subsystem[subsystem] = (
                        self._seconds_by_subsystem.get(subsystem, 0.0) + elapsed
                    )
                else:
                    event.callback()
                self._executed += 1
            # Advance the clock even if the heap drained early.
            self._now = max(self._now, stop)
        finally:
            self._running = False

    # ------------------------------------------------------------------
    # Tombstone accounting and compaction
    # ------------------------------------------------------------------

    def _note_cancelled(self) -> None:
        """Bookkeeping for one fresh cancellation; may auto-compact.

        The trigger requires the heap to clear the size floor and the
        tombstone count to clear the ratio threshold, so every
        automatic pass removes at least ``auto_compact_ratio`` of what
        it scans (see the class docstring for the amortization
        argument).
        """
        self._cancellations += 1
        self._cancelled_pending += 1
        if (
            self._auto_compact_ratio > 0
            and len(self._heap) >= self._auto_compact_min
            and self._cancelled_pending
            >= self._auto_compact_ratio * len(self._heap)
        ):
            self.compact()

    @property
    def live_pending_events(self) -> int:
        """Heap entries that will actually fire (tombstones excluded)."""
        return len(self._heap) - self._cancelled_pending

    @property
    def tombstone_ratio(self) -> float:
        """Fraction of the heap occupied by cancelled entries."""
        if not self._heap:
            return 0.0
        return self._cancelled_pending / len(self._heap)

    @property
    def compactions(self) -> int:
        """Number of compaction passes run so far."""
        return self._compactions

    @property
    def compaction_scanned(self) -> int:
        """Total heap entries scanned by compaction passes.

        The regression metric for the amortization guarantee: under
        automatic compaction this never exceeds ``cancellations /
        auto_compact_ratio`` regardless of heap size.
        """
        return self._compaction_scanned

    def compact(self) -> int:
        """Remove tombstoned entries from the heap; returns count removed.

        Called automatically when the tombstone count crosses the
        configured thresholds; safe to call at any time (including from
        within a running callback — the loop re-reads the heap each
        iteration).
        """
        self._compaction_scanned += len(self._heap)
        live = [entry for entry in self._heap if not entry[3].cancelled]
        removed = len(self._heap) - len(live)
        if removed:
            heapq.heapify(live)
            self._heap = live
            self._compactions += 1
            self._tombstones_removed += removed
        self._cancelled_pending = 0
        return removed

    def drain_cancelled(self) -> int:
        """Backwards-compatible alias for :meth:`compact`."""
        return self.compact()

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> "EngineSnapshot":
        """Capture the engine's full mutable state.

        The returned snapshot owns copies of every heap entry
        (including tombstones, so cancellation accounting survives a
        restore), the clock, the sequence counter, and all tallies.
        Callbacks are shared *by reference* — snapshots are an
        in-process mechanism, valid as long as the subsystem state the
        callbacks close over is restored (or unchanged) alongside the
        engine.  Cross-process recovery uses the replay-verified
        checkpoints in :mod:`repro.sim.checkpoint` instead (closures
        are not serializable; DESIGN §10).
        """
        return EngineSnapshot(
            now=self._now,
            seq=self._seq,
            executed=self._executed,
            scheduled=self._scheduled,
            cancelled_pending=self._cancelled_pending,
            cancellations=self._cancellations,
            tombstones_fired=self._tombstones_fired,
            compactions=self._compactions,
            tombstones_removed=self._tombstones_removed,
            events=[copy.copy(entry[3]) for entry in self._heap],
            calls_by_subsystem=dict(self._calls_by_subsystem),
            seconds_by_subsystem=dict(self._seconds_by_subsystem),
            compaction_scanned=self._compaction_scanned,
        )

    def restore(self, snapshot: "EngineSnapshot") -> None:
        """Reset the engine to a previously captured snapshot.

        The snapshot itself is not consumed: the heap is rebuilt from
        fresh copies, so one snapshot can seed any number of restores
        (speculative execution, repeated what-if runs).  Restoring
        while :meth:`run` is on the stack is an error.
        """
        if self._running:
            raise SimulationError("cannot restore while the engine is running")
        self._now = snapshot.now
        self._seq = snapshot.seq
        self._executed = snapshot.executed
        self._scheduled = snapshot.scheduled
        self._cancelled_pending = snapshot.cancelled_pending
        self._cancellations = snapshot.cancellations
        self._tombstones_fired = snapshot.tombstones_fired
        self._compactions = snapshot.compactions
        self._tombstones_removed = snapshot.tombstones_removed
        self._compaction_scanned = snapshot.compaction_scanned
        heap = [
            (event.time, event.priority, event.seq, event)
            for event in map(copy.copy, snapshot.events)
        ]
        heapq.heapify(heap)
        self._heap = heap
        self._calls_by_subsystem = dict(snapshot.calls_by_subsystem)
        self._seconds_by_subsystem = dict(snapshot.seconds_by_subsystem)

    def state_digest(self, exclude_label_prefixes: tuple = ()) -> str:
        """A deterministic hash of the engine's observable state.

        Covers the clock and the multiset of *live* pending events as
        ``(time, priority, label)``.  Tombstones, callback identities,
        and sequence numbers are excluded: two runs that would execute
        the same future simulation events digest equally, which is
        exactly the property the replay-verified resume path checks (a
        resumed run must reach each checkpointed sim-time with the
        digest the original run recorded).

        Args:
            exclude_label_prefixes: drop events whose label starts with
                any of these prefixes.  The checkpointer excludes
                harness-injected events (``checkpoint:`` ticks,
                ``chaos:`` process kills) so that a retry attempt —
                which replays the simulation but may carry a different
                set of harness events — still matches the digests the
                killed attempt recorded.
        """
        live = sorted(
            (e.time, e.priority, e.label)
            for *_, e in self._heap
            if not e.cancelled
            and not any(
                e.label.startswith(prefix)
                for prefix in exclude_label_prefixes
            )
        )
        payload = {"now": self._now, "events": live}
        blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def flush_metrics(self) -> None:
        """Publish the engine's tallies into the metrics registry.

        Cheap enough to call repeatedly; the hot loop only touches
        plain dicts and this converts them to labeled series in one
        pass (counters are set-once from monotone internal tallies).
        """
        if self._metrics is None:
            return
        m = self._metrics
        executed = m.counter(
            "sim_events_executed_total",
            "event callbacks executed, by subsystem (event-label prefix)",
            labels=("subsystem",),
        )
        for subsystem, count in self._calls_by_subsystem.items():
            child = executed.labels(subsystem=subsystem)
            child.inc(count - child.value)
        seconds = m.counter(
            "sim_callback_seconds_total",
            "host wall seconds spent in event callbacks, by subsystem",
            labels=("subsystem",),
            domain="host",
        )
        for subsystem, total in self._seconds_by_subsystem.items():
            child = seconds.labels(subsystem=subsystem)
            child.inc(max(total - child.value, 0.0))
        m.counter(
            "sim_events_scheduled_total", "events pushed onto the heap"
        ).inc(self._scheduled - m.value("sim_events_scheduled_total"))
        m.counter(
            "sim_events_cancelled_total", "event handles cancelled"
        ).inc(self._cancellations - m.value("sim_events_cancelled_total"))
        m.counter(
            "sim_tombstones_fired_total",
            "cancelled entries popped (and skipped) by the run loop",
        ).inc(self._tombstones_fired - m.value("sim_tombstones_fired_total"))
        m.counter(
            "sim_compactions_total", "tombstone compaction passes"
        ).inc(self._compactions - m.value("sim_compactions_total"))
        m.counter(
            "sim_tombstones_removed_total",
            "tombstoned entries removed by compaction",
        ).inc(
            self._tombstones_removed - m.value("sim_tombstones_removed_total")
        )
        m.counter(
            "sim_compaction_scanned_total",
            "heap entries scanned by compaction passes",
        ).inc(
            self._compaction_scanned - m.value("sim_compaction_scanned_total")
        )
        depth = m.gauge(
            "sim_heap_depth",
            "pending heap entries by state",
            labels=("state",),
        )
        depth.labels(state="live").set(self.live_pending_events)
        depth.labels(state="tombstone").set(self._cancelled_pending)
        m.gauge(
            "sim_tombstone_ratio", "cancelled fraction of the pending heap"
        ).set(self.tombstone_ratio)
        m.gauge("sim_now_seconds", "current simulation time").set(self._now)
