"""Bounded-memory per-architecture accumulation (DESIGN §17).

Fleet campaigns never hold the event stream: each node batch is queued
when it fires, and the queue is folded into fixed-size
per-architecture tallies once per slice.  State per architecture is
``O(nodes + periods × classes)`` plus one slice's queued batches — a
25k-node fleet's accumulator is a few hundred KiB regardless of how
many billions of events a multi-year campaign produces.

The Table II analog uses an exposure model instead of a scheduler:
each logical error independently encounters a job with the period's
GPU-busy probability, and an encountered job fails with the class's
calibrated kill probability (see
:func:`repro.fleetscale.sampling.kill_probabilities`).  All draws come
from the ``fleetscale.<arch>.impact`` stream, so impact statistics are
as deterministic as the event stream itself.  A fold takes one
``random(2N)`` for its ``N`` queued events and cuts it per batch in
firing order — the batch's "encountered" draws, then its kill draws —
which is exactly how one ``random(n)`` pair per batch would consume
the stream (``random`` takes one 64-bit word per value).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

from ..core.arch import Architecture
from ..core.periods import PeriodName, StudyWindow
from ..core.xid import EventClass, table1_order
from ..faults.config import FaultSuiteConfig
from ..sim.rng import RngRegistry
from .fleet import FleetSpec, SubFleet
from .sampling import CLASS_LIST, kill_probabilities

_PERIODS: Tuple[PeriodName, ...] = (
    PeriodName.PRE_OPERATIONAL,
    PeriodName.OPERATIONAL,
)
_PERIOD_INDEX = {p: i for i, p in enumerate(_PERIODS)}


class ArchStats:
    """One architecture's streaming tallies.

    Attributes:
        arch: the architecture.
        node_count / gpu_count: sub-fleet geometry.
        counts: ``(periods, classes)`` int64 logical-error counts.
        node_events: per-node int64 event tallies (hot-node analysis).
        encountered / failed: ``(periods, classes)`` job-exposure
            tallies for the Table II analog.
    """

    def __init__(self, sub: SubFleet) -> None:
        self.arch = sub.arch
        self.node_count = sub.node_count
        self.gpu_count = sub.gpu_count
        n_classes = len(CLASS_LIST)
        self.counts = np.zeros((len(_PERIODS), n_classes), dtype=np.int64)
        self.node_events = np.zeros(sub.node_count, dtype=np.int64)
        self.encountered = np.zeros((len(_PERIODS), n_classes), dtype=np.int64)
        self.failed = np.zeros((len(_PERIODS), n_classes), dtype=np.int64)

    @property
    def total_events(self) -> int:
        return int(self.counts.sum())

    def class_counts(self, period: PeriodName) -> Dict[EventClass, int]:
        row = self.counts[_PERIOD_INDEX[period]]
        return {c: int(row[i]) for i, c in enumerate(CLASS_LIST)}

    def class_stat(
        self, window: StudyWindow, period: PeriodName, event_class: EventClass
    ) -> Dict[str, float]:
        """Count plus system/per-node MTBE hours for one Table I cell."""
        count = self.class_counts(period)[event_class]
        hours = window.period(period).duration_hours
        system = hours / count if count else float("inf")
        return {
            "count": count,
            "system_mtbe_hours": system,
            "per_node_mtbe_hours": system * self.node_count,
        }

    def impact_stat(
        self, period: PeriodName, event_class: EventClass
    ) -> Dict[str, float]:
        """Encountered/failed tallies and failure rate for one class."""
        pi = _PERIOD_INDEX[period]
        ci = CLASS_LIST.index(event_class)
        encountered = int(self.encountered[pi, ci])
        failed = int(self.failed[pi, ci])
        return {
            "encountered": encountered,
            "failed": failed,
            "failure_rate": failed / encountered if encountered else 0.0,
        }

    def payload(self, window: StudyWindow) -> dict:
        """JSON-ready summary (``fleet_result.json`` per-arch block)."""
        table1 = {
            period.value: {
                c.value: self.class_stat(window, period, c)
                for c in table1_order()
            }
            for period in _PERIODS
        }
        table2 = {
            c.value: self.impact_stat(PeriodName.OPERATIONAL, c)
            for c in table1_order()
        }
        # Events descending, ties by ascending node ordinal: a defined
        # order, so the digest does not depend on numpy's sort kernel.
        ordinals = np.arange(self.node_count)
        top = np.lexsort((ordinals, -self.node_events))[:5]
        return {
            "architecture": self.arch.value,
            "node_count": self.node_count,
            "gpu_count": self.gpu_count,
            "total_events": self.total_events,
            "table1": table1,
            "table2": table2,
            "hottest_nodes": [
                {"node_ordinal": int(i), "events": int(self.node_events[i])}
                for i in top
                if self.node_events[i] > 0
            ],
        }


#: A queued node batch: ``(node_ordinal, times, class_idx)``.
_Batch = Tuple[int, np.ndarray, np.ndarray]


class FleetAccumulator:
    """Folds node batches into :class:`ArchStats`, one per architecture.

    :meth:`observe` only queues a fired batch; tallies are current
    after :meth:`fold`, which the slice driver runs at every slice tick
    and the campaign once more after the engine drains.
    """

    def __init__(
        self,
        spec: FleetSpec,
        window: StudyWindow,
        suites: Dict[Architecture, FaultSuiteConfig],
        rngs: RngRegistry,
        busy_fraction_pre_op: float = 0.06,
        busy_fraction_op: float = 0.72,
    ) -> None:
        self._window = window
        self._boundary = window.pre_operational.end
        self._busy = np.array([busy_fraction_pre_op, busy_fraction_op])
        self._stats: Dict[Architecture, ArchStats] = {}
        self._kill: Dict[Architecture, np.ndarray] = {}
        self._impact_rng: Dict[Architecture, np.random.Generator] = {}
        self._queued: Dict[Architecture, List[_Batch]] = {}
        for arch, sub in spec.subfleets.items():
            self._queued[arch] = []
            self._stats[arch] = ArchStats(sub)
            probs = kill_probabilities(suites[arch])
            self._kill[arch] = np.array([probs[c] for c in CLASS_LIST])
            self._impact_rng[arch] = rngs.stream(
                f"fleetscale.{arch.value}.impact"
            )

    def observe(
        self,
        arch: Architecture,
        node: int,
        times: np.ndarray,
        class_idx: np.ndarray,
    ) -> None:
        """Queue one node's batch of events (size ≥ 1) for the next fold."""
        self._queued[arch].append((node, times, class_idx))

    def queue(self, arch: Architecture) -> Callable[[_Batch], None]:
        """The ``append`` of ``arch``'s batch queue: a scheduled batch
        queues its ``(node, times, class_idx)`` through it, with no
        per-call architecture lookup."""
        return self._queued[arch].append

    def fold(self) -> None:
        """Tally every queued batch, one pass per architecture."""
        for arch, batches in self._queued.items():
            if batches:
                self._fold(arch, batches)
                batches.clear()

    def _fold(self, arch: Architecture, batches: List[_Batch]) -> None:
        stats = self._stats[arch]
        nodes, batch_times, batch_classes = zip(*batches)
        sizes = np.fromiter(map(len, batch_times), np.int64, len(batches))
        times = np.concatenate(batch_times)
        class_idx = np.concatenate(batch_classes)
        period_idx = (times >= self._boundary).astype(np.int64)
        cells = period_idx * len(CLASS_LIST) + class_idx
        # Per batch: n "encountered" draws, then n kill draws.
        draws = self._impact_rng[arch].random(2 * len(times))
        first = np.repeat(
            np.tile([True, False], len(batches)), np.repeat(sizes, 2)
        )
        encountered = draws[first] < self._busy[period_idx]
        failed = encountered & (draws[~first] < self._kill[arch][class_idx])
        for table, cell in (
            (stats.counts, cells),
            (stats.encountered, cells[encountered]),
            (stats.failed, cells[failed]),
        ):
            table += np.bincount(cell, minlength=table.size).reshape(
                table.shape
            )
        np.add.at(stats.node_events, np.array(nodes, np.int64), sizes)

    def stats(self) -> Dict[Architecture, ArchStats]:
        return dict(self._stats)

    def __iter__(self) -> Iterator[ArchStats]:
        return iter(self._stats.values())

    @property
    def total_events(self) -> int:
        return sum(s.total_events for s in self._stats.values())

    def payloads(self) -> List[dict]:
        return [s.payload(self._window) for s in self._stats.values()]
