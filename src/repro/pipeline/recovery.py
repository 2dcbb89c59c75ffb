"""Extraction of gang-recovery events from raw logs.

The recovery engine logs every state transition through ``gangd:``
lines (host = the affected node)::

    gangd: job 1 started on gpua001,gpua002
    gangd: job 1 failed, losing 1.73h of work (13.9 GPU-h) back to watermark
    gangd: job 1 failure detected after 87s
    gangd: job 1 cordoned gpua002
    gangd: job 1 promoted spare gpua007
    gangd: job 1 restoring from checkpoint on gpua001,gpua007
    gangd: job 1 recovered in 649s (incident 3)

Stage II reconstructs the recovery timeline from these lines alone —
the same logs-only discipline the paper applies to downtime (Fig. 2) —
so recovery analysis needs no simulator-internal state.  The extractor
mirrors :class:`~repro.pipeline.downtime.DowntimeExtractor`'s streaming
shape and rides the same checkpoint channel (see
:mod:`repro.pipeline.shard`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..recovery.config import RECOVERY_MARKER
from ..syslog.reader import RawLine

_LINE_PATTERN = re.compile(
    re.escape(RECOVERY_MARKER) + r"(?P<gang>\d+) (?P<rest>.+)"
)
_RECOVERED_PATTERN = re.compile(r"recovered in (?P<seconds>\d+)s")

#: Ordered (prefix, action) classification of the ``gangd`` vocabulary.
#: First match wins; unknown phrasings fall through to ``"other"``.
_ACTIONS: Tuple[Tuple[str, str], ...] = (
    ("started on", "start"),
    ("restoring from checkpoint", "restore"),
    ("recovered in", "recovered"),
    ("failed,", "failure"),
    ("failure detected", "detected"),
    ("hang caught by watchdog", "hang_detected"),
    ("cordoned", "cordon"),
    ("uncordoned", "uncordon"),
    ("promoted spare", "spare_promoted"),
    ("spare", "spare_reserved"),
    ("no capacity, retry", "retry"),
    ("degrading to", "degrade"),
    ("completed all work", "completed"),
    ("abandoned", "abandoned"),
)


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovery state transition recovered from the logs.

    Attributes:
        time: line timestamp (seconds on the simulation clock).
        host: syslog host — the node the transition concerns.
        gang_id: the gang the line belongs to.
        action: normalized transition name (see ``_ACTIONS``).
        message: the raw text after the gang id, for anything the
            normalization drops.
    """

    time: float
    host: str
    gang_id: int
    action: str
    message: str


class RecoveryExtractor:
    """Streaming extractor of gang-recovery events."""

    def __init__(self) -> None:
        self._events: List[RecoveryEvent] = []

    def feed(self, line: RawLine) -> None:
        """Process one raw log line (non-``gangd`` lines are free)."""
        if RECOVERY_MARKER not in line.message:
            return
        match = _LINE_PATTERN.search(line.message)
        if match is None:
            return
        rest = match.group("rest")
        action = "other"
        for prefix, name in _ACTIONS:
            if rest.startswith(prefix):
                action = name
                break
        self._events.append(
            RecoveryEvent(
                time=line.time,
                host=line.host,
                gang_id=int(match.group("gang")),
                action=action,
                message=rest,
            )
        )

    def finish(self) -> List[RecoveryEvent]:
        """Close the pass and return events in time order."""
        self._events.sort(key=lambda e: (e.time, e.gang_id))
        return self._events

    def records(self) -> List[RecoveryEvent]:
        """Events so far, time-ordered (non-destructive)."""
        return sorted(self._events, key=lambda e: (e.time, e.gang_id))


def recovery_timeline_summary(
    events: List[RecoveryEvent],
) -> Dict[str, object]:
    """Reduce an event list to the report-facing counters.

    Returns action counts, per-gang incident counts, and the ETTR
    distribution parsed back out of ``recovered`` lines — the
    logs-derived counterpart of the simulator's own
    :class:`~repro.recovery.machine.RecoverySummary`.
    """
    by_action: Dict[str, int] = {}
    incidents_by_gang: Dict[int, int] = {}
    ettr_seconds: List[float] = []
    for event in events:
        by_action[event.action] = by_action.get(event.action, 0) + 1
        if event.action == "failure":
            incidents_by_gang[event.gang_id] = (
                incidents_by_gang.get(event.gang_id, 0) + 1
            )
        elif event.action == "recovered":
            match = _RECOVERED_PATTERN.search(event.message)
            if match is not None:
                ettr_seconds.append(float(match.group("seconds")))
    return {
        "events": len(events),
        "by_action": dict(sorted(by_action.items())),
        "incidents_by_gang": {
            str(k): v for k, v in sorted(incidents_by_gang.items())
        },
        "mean_ettr_minutes": (
            round(sum(ettr_seconds) / len(ettr_seconds) / 60.0, 3)
            if ettr_seconds
            else 0.0
        ),
    }
