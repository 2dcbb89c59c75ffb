"""Extraction of node-unavailability episodes from raw logs.

The ops layer logs three kinds of lines during a recovery::

    slurmctld: drain node gpua042 reason=gsp_error
    healthcheck: node gpua042 out of service cause=gsp_error kind=reboot
    healthcheck: node gpua042 returned to service

An unavailability episode (the quantity of Figure 2) spans from the
``out of service`` line to the matching ``returned to service`` line.
This mirrors how the paper measures downtime from operational logs
rather than from any simulator-internal state.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List

from ..core.records import DowntimeRecord
from ..core.xid import EventClass
from ..syslog.reader import RawLine

#: Literal shared by both downtime patterns — a cheap prefilter that
#: lets callers (and :meth:`DowntimeExtractor.feed` itself) skip regex
#: matching on the ~100% of lines that cannot be downtime markers.
DOWNTIME_MARKER = "healthcheck: node "

_OUT_PATTERN = re.compile(
    r"healthcheck: node (?P<node>\S+) out of service "
    r"cause=(?P<cause>\S+) kind=(?P<kind>\S+)"
)
_RETURN_PATTERN = re.compile(
    r"healthcheck: node (?P<node>\S+) returned to service(?P<swap> after gpu swap)?"
)


@dataclass
class DowntimeExtractionStats:
    """Counters for one downtime-extraction pass.

    Attributes:
        episodes: completed episodes extracted.
        unmatched_returns: 'returned to service' lines with no open
            episode (e.g. log truncation at window start).
        dangling_outages: nodes still out of service at end of logs.
    """

    episodes: int = 0
    unmatched_returns: int = 0
    dangling_outages: int = 0


class DowntimeExtractor:
    """Streaming extractor of unavailability episodes."""

    def __init__(self) -> None:
        self.stats = DowntimeExtractionStats()
        self._open: Dict[str, tuple] = {}
        self._records: List[DowntimeRecord] = []

    def feed(self, line: RawLine) -> None:
        """Process one raw log line."""
        if DOWNTIME_MARKER not in line.message:
            return
        match = _OUT_PATTERN.search(line.message)
        if match is not None:
            cause_text = match.group("cause")
            kind = match.group("kind")
            try:
                cause = EventClass(cause_text)
            except ValueError:
                cause = EventClass.UNCONTAINED_MEMORY_ERROR
            self._open[match.group("node")] = (line.time, cause, kind)
            return
        match = _RETURN_PATTERN.search(line.message)
        if match is not None:
            node = match.group("node")
            opened = self._open.pop(node, None)
            if opened is None:
                self.stats.unmatched_returns += 1
                return
            start, cause, _kind = opened
            self._records.append(
                DowntimeRecord(
                    node=node,
                    start=start,
                    end=line.time,
                    cause=cause,
                    gpu_replaced=match.group("swap") is not None,
                )
            )
            self.stats.episodes += 1

    def finish(self) -> List[DowntimeRecord]:
        """Close the pass and return episodes in start order."""
        self.stats.dangling_outages = len(self._open)
        self._open.clear()
        self._records.sort(key=lambda r: r.start)
        return self._records

    def records(self) -> List[DowntimeRecord]:
        """Completed episodes so far, in start order (non-destructive).

        Unlike :meth:`finish` this leaves open outages tracked, so a
        live consumer (the streaming fleet-health service) can render
        provisional availability figures between polls and still get
        the batch-identical answer from a later :meth:`finish`.
        """
        return sorted(self._records, key=lambda r: r.start)

    @property
    def open_outages(self) -> int:
        """Nodes currently out of service (not yet returned)."""
        return len(self._open)

    def to_state(self) -> Dict[str, object]:
        """JSON-serializable state for checkpointing."""
        return {
            "open": [
                [node, start, cause.value, kind]
                for node, (start, cause, kind) in self._open.items()
            ],
            "records": [
                [r.node, r.start, r.end, r.cause.value, r.gpu_replaced]
                for r in self._records
            ],
            "stats": [
                self.stats.episodes,
                self.stats.unmatched_returns,
                self.stats.dangling_outages,
            ],
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "DowntimeExtractor":
        """Rebuild an extractor from :meth:`to_state` output."""
        self = cls()
        for node, start, cause_value, kind in state["open"]:  # type: ignore[union-attr]
            self._open[node] = (float(start), EventClass(cause_value), kind)
        for node, start, end, cause_value, swapped in state["records"]:  # type: ignore[union-attr]
            self._records.append(
                DowntimeRecord(
                    node=node,
                    start=float(start),
                    end=float(end),
                    cause=EventClass(cause_value),
                    gpu_replaced=bool(swapped),
                )
            )
        episodes, unmatched, dangling = state["stats"]  # type: ignore[misc]
        self.stats = DowntimeExtractionStats(
            episodes=int(episodes),
            unmatched_returns=int(unmatched),
            dangling_outages=int(dangling),
        )
        return self
