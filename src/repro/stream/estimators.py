"""Online fleet-health estimators over the streaming Stage-II output.

Two layers of state serve two different needs:

* **Online counters** (:class:`FleetEstimators`) — cheap accumulators
  that fold each poll's completed coalesced errors as one column table:
  cumulative counts per class/node/GPU (``bincount``/``unique``),
  rolling windows (last hour/day/week by log time, one stable sort
  each), top-K noisiest nodes and GPUs.  These power gauges and alert
  rules between polls without touching the full history.
* **The authoritative snapshot** (:func:`fleet_report`) — the exact
  batch ``analysis/`` computation (:class:`~repro.analysis.mtbe
  .MtbeAnalysis` Table I, :class:`~repro.analysis.availability
  .AvailabilityAnalysis` Figure 2 / Section V-C) run over the
  coalescer's batch-ordered error list.  Batch and stream callers
  share this one function, so a drained streaming pass produces
  *byte-identical* figures to the batch pipeline — same inputs, same
  code path, same rounding.

Rolling windows are keyed by *log time* (the watermark), not wall
time: replaying a historical corpus produces the same rolling numbers
it would have shown live, which is also what makes them testable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.availability import AvailabilityAnalysis
from ..analysis.mtbe import MtbeAnalysis, MtbeStat
from ..core.periods import PeriodName, StudyWindow
from ..core.records import DowntimeRecord, ExtractedError
from ..pipeline.coalesce import ErrorTable

#: Delta's A100 node count (the paper's per-node MTBE multiplier).
DEFAULT_NODE_COUNT = 106

#: Rolling-window horizons, in seconds of log time.
DEFAULT_HORIZONS: Tuple[float, ...] = (3600.0, 86400.0, 7 * 86400.0)

_HORIZON_LABELS = {3600.0: "1h", 86400.0: "24h", 7 * 86400.0: "7d"}


def horizon_label(seconds: float) -> str:
    """Human label for a rolling horizon (``3600.0`` → ``"1h"``)."""
    label = _HORIZON_LABELS.get(seconds)
    if label is not None:
        return label
    if seconds % 3600 == 0:
        return f"{int(seconds // 3600)}h"
    return f"{seconds:g}s"


def infer_stream_window(last_time: float) -> StudyWindow:
    """Pick a study window from the stream watermark.

    Mirrors the batch CLI's inference: a watermark past 400 days means
    the full Delta window; anything shorter gets the scaled 1:3
    pre-operational/operational split used for small artifacts.
    """
    if last_time > 400 * 86400:
        return StudyWindow.delta_default()
    total_days = max(last_time / 86400.0, 2.0)
    return StudyWindow.scaled(
        pre_days=total_days / 4, op_days=3 * total_days / 4
    )


@dataclass
class RollingWindow:
    """Errors whose first occurrence lies within one trailing horizon.

    Attributes:
        horizon_seconds: the trailing window length (log time).
        times: the errors' first-occurrence times, kept sorted so that
            out-of-completion-order arrivals (a long-lived group
            completing after younger ones) still evict exactly.
        classes, nodes: each error's class value and node, aligned
            with ``times``.
    """

    horizon_seconds: float
    times: np.ndarray = field(default_factory=lambda: np.empty(0))
    classes: np.ndarray = field(default_factory=lambda: np.empty(0, object))
    nodes: np.ndarray = field(default_factory=lambda: np.empty(0, object))

    def merge(self, times: np.ndarray, classes: np.ndarray, nodes: np.ndarray) -> None:
        """Merge errors in: one stable sort by time."""
        times = np.concatenate((self.times, times))
        order = np.argsort(times, kind="stable")
        self.times = times[order]
        self.classes = np.concatenate((self.classes, classes))[order]
        self.nodes = np.concatenate((self.nodes, nodes))[order]

    def evict(self, watermark: float) -> None:
        """Drop errors older than ``watermark - horizon``."""
        drop = np.searchsorted(self.times, watermark - self.horizon_seconds)
        self.times = self.times[drop:]
        self.classes = self.classes[drop:]
        self.nodes = self.nodes[drop:]

    def summary(self) -> Dict[str, object]:
        """Counts, per-class split, and the implied rolling MTBE."""
        per_class: Counter = Counter(self.classes.tolist())
        per_node: Counter = Counter(self.nodes.tolist())
        count = len(self.times)
        hours = self.horizon_seconds / 3600.0
        return {
            "horizon": horizon_label(self.horizon_seconds),
            "count": count,
            "per_class": dict(sorted(per_class.items())),
            "per_node": dict(sorted(per_node.items())),
            "errors_per_hour": count / hours if hours > 0 else 0.0,
            "system_mtbe_hours": (hours / count) if count else None,
        }


class FleetEstimators:
    """Cheap cumulative + rolling accumulators for live gauges.

    Fold every poll's *completed* coalesced errors in with
    :meth:`observe_errors` and advance the log-time watermark with
    :meth:`advance`; :meth:`snapshot` renders the online view.  The
    heavyweight, batch-identical figures come from
    :func:`fleet_report` instead — these counters never feed Table I.

    Args:
        node_count: per-node MTBE multiplier (106 on Delta).
        horizons: trailing rolling-window lengths in log seconds.
        top_k: list length for the noisiest-node/GPU leaderboards.
    """

    def __init__(
        self,
        node_count: int = DEFAULT_NODE_COUNT,
        horizons: Sequence[float] = DEFAULT_HORIZONS,
        top_k: int = 10,
    ) -> None:
        self._node_count = node_count
        self._top_k = top_k
        self.rolling = [RollingWindow(h) for h in horizons]
        self.total_errors = 0
        self.per_class: Counter = Counter()
        self.per_node: Counter = Counter()
        self.per_unit: Counter = Counter()
        self.first_error_time: Optional[float] = None
        self.last_error_time: Optional[float] = None
        self.watermark = float("-inf")

    def observe_error(self, error: ExtractedError) -> None:
        """Fold one completed coalesced error (a one-row
        :meth:`observe_errors`)."""
        self.observe_errors(ErrorTable.of([error]))

    def observe_errors(self, errors: ErrorTable) -> None:
        """Fold a table of completed coalesced errors into every
        accumulator, in array passes."""
        if not len(errors):
            return
        self.total_errors += len(errors)
        nodes, classes = errors.nodes, errors.classes
        for counter, names, ids in (
            (self.per_class, classes, errors.cls),
            (self.per_node, nodes, errors.node),
        ):
            counts = np.bincount(ids)
            counter.update({names[i]: int(counts[i]) for i in np.flatnonzero(counts)})
        # A GPU is (node, gpu index), -1 standing for an unresolved one.
        span = int(errors.gpu.max()) + 2
        units, counts = np.unique(
            errors.node * span + errors.gpu + 1, return_counts=True
        )
        for unit, count in zip(units.tolist(), counts.tolist()):
            self.per_unit[(nodes[unit // span], unit % span - 1)] += count
        earliest, latest = float(errors.first.min()), float(errors.first.max())
        if self.first_error_time is None or earliest < self.first_error_time:
            self.first_error_time = earliest
        if self.last_error_time is None or latest > self.last_error_time:
            self.last_error_time = latest
        labels = (
            np.array(classes, dtype=object)[errors.cls],
            np.array(nodes, dtype=object)[errors.node],
        )
        for window in self.rolling:
            window.merge(errors.first, *labels)

    def advance(self, watermark: float) -> None:
        """Move log time forward and evict expired rolling events."""
        if watermark <= self.watermark:
            return
        self.watermark = watermark
        for window in self.rolling:
            window.evict(watermark)

    def top_nodes(self, k: Optional[int] = None) -> List[Tuple[str, int]]:
        """The ``k`` noisiest nodes by cumulative error count."""
        k = self._top_k if k is None else k
        return sorted(self.per_node.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def top_units(self, k: Optional[int] = None) -> List[Tuple[str, object, int]]:
        """The ``k`` noisiest GPUs by cumulative error count."""
        k = self._top_k if k is None else k
        ranked = sorted(
            self.per_unit.items(),
            key=lambda kv: (-kv[1], kv[0][0], str(kv[0][1])),
        )[:k]
        return [(node, gpu, count) for (node, gpu), count in ranked]

    def snapshot(self) -> Dict[str, object]:
        """The online view: cumulative counts, rates, rolling windows."""
        per_node_rate: Dict[str, float] = {}
        span_hours = 0.0
        if self.watermark != float("-inf"):
            span_hours = max(self.watermark, 0.0) / 3600.0
        if span_hours > 0:
            per_node_rate = {
                node: count / span_hours
                for node, count in sorted(self.per_node.items())
            }
        return {
            "errors_total": self.total_errors,
            "per_class": dict(sorted(self.per_class.items())),
            "per_node": dict(sorted(self.per_node.items())),
            "per_node_errors_per_hour": per_node_rate,
            "top_nodes": [list(t) for t in self.top_nodes()],
            "top_gpus": [list(t) for t in self.top_units()],
            "rolling": [w.summary() for w in self.rolling],
            "first_error_time": self.first_error_time,
            "last_error_time": self.last_error_time,
        }


def _mtbe_stat_json(stat: MtbeStat) -> Dict[str, object]:
    return {
        "count": stat.count,
        "system_mtbe_hours": stat.system_mtbe_hours,
        "per_node_mtbe_hours": stat.per_node_mtbe_hours,
    }


def fleet_report(
    errors: Sequence[ExtractedError],
    downtime: Sequence[DowntimeRecord],
    window: StudyWindow,
    node_count: int = DEFAULT_NODE_COUNT,
) -> Dict[str, object]:
    """The authoritative fleet snapshot — the batch analysis, verbatim.

    Runs :class:`~repro.analysis.mtbe.MtbeAnalysis` and
    :class:`~repro.analysis.availability.AvailabilityAnalysis` over the
    given error/downtime lists and serializes the results.  Because the
    streaming service calls this with the coalescer's batch-ordered
    error list and the batch CLI can call it with ``run_pipeline``
    output, the two paths share every arithmetic and rounding step:
    identical inputs give byte-identical JSON.
    """
    mtbe = MtbeAnalysis(errors, window, node_count)
    table1 = {
        event_class.value: {
            period.value: _mtbe_stat_json(stat)
            for period, stat in row.items()
        }
        for event_class, row in mtbe.table1().items()
    }
    overall = {
        period.value: _mtbe_stat_json(mtbe.overall(period))
        for period in (PeriodName.PRE_OPERATIONAL, PeriodName.OPERATIONAL)
    }
    availability = AvailabilityAnalysis(downtime, window, node_count)
    report = availability.report(
        mtbe.overall(PeriodName.OPERATIONAL).per_node_mtbe_hours
    )
    distribution = availability.distribution()
    return {
        "schema": "repro-fleet-v1",
        "node_count": node_count,
        "window": {
            period.name.value: {
                "start": period.start,
                "end": period.end,
                "duration_hours": period.duration_hours,
            }
            for period in window
        },
        "errors_total": len(errors),
        "downtime_episodes_total": len(downtime),
        "table1": table1,
        "overall": overall,
        "memory_vs_hardware_ratio": mtbe.memory_vs_hardware_ratio(),
        "degradation_fraction": mtbe.degradation_fraction(),
        "outliers": [
            {
                "node": o.node,
                "gpu_key": o.gpu_key,
                "event_class": o.event_class.value,
                "period": o.period.value,
                "count": o.count,
                "share": o.share,
            }
            for o in mtbe.outliers
        ],
        "availability": {
            "mttr_hours": report.mttr_hours,
            "mttf_hours": report.mttf_hours,
            "availability_formula": report.availability_formula,
            "availability_direct": report.availability_direct,
            "downtime_node_hours": report.downtime_node_hours,
            "downtime_minutes_per_day": report.downtime_minutes_per_day,
            "episodes": report.episodes,
            "replacements": report.replacements,
        },
        "downtime_distribution": {
            "bin_edges_hours": list(distribution.bin_edges_hours),
            "counts": list(distribution.counts),
            "mean_hours": distribution.mean_hours,
            "p50_hours": distribution.p50_hours,
            "p95_hours": distribution.p95_hours,
            "p99_hours": distribution.p99_hours,
            "episodes": distribution.episodes,
        },
    }
