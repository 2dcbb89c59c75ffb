"""Alert rules over the live coalesced-error stream.

Rules are threshold conditions over a trailing log-time horizon,
scoped either per node or fleet-wide.  The engine is edge-triggered
with re-arming: a rule fires once when its condition first becomes
true, stays latched while the condition holds, and re-arms when the
trailing window drains below the threshold again — so a single bad
hour produces one alert per affected scope, not one per error.

Like the rolling estimators, horizons are measured in *log time* (the
ingest watermark), which keeps replayed history and live tailing
byte-for-byte consistent and makes the engine deterministic under
test.  Fired alerts are appended to an in-memory history (served at
``/v1/alerts``) and optionally to a JSON-lines file.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.records import ExtractedError
from ..core.xid import EventClass
from ..pipeline.coalesce import ErrorTable


@dataclass(frozen=True)
class AlertRule:
    """One threshold condition over the error stream.

    Attributes:
        name: stable identifier (used for latching and in the log).
        description: human-readable condition summary.
        severity: ``"warning"`` or ``"critical"``.
        scope: ``"node"`` (evaluated per affected node) or ``"fleet"``.
        threshold: minimum matching errors within the horizon to fire.
        horizon_seconds: trailing log-time window length.
        event_class: restrict matching to one class (``None`` = any).
        xid: restrict matching to one XID code (``None`` = any).
    """

    name: str
    description: str
    severity: str
    scope: str
    threshold: int
    horizon_seconds: float
    event_class: Optional[EventClass] = None
    xid: Optional[int] = None

    def matches(self, errors: ErrorTable) -> np.ndarray:
        """Which rows of an error table count toward this rule."""
        keep = np.ones(len(errors), dtype=bool)
        if self.event_class is not None:
            names = np.array(errors.classes, dtype=object)
            keep &= names[errors.cls] == self.event_class.value
        if self.xid is not None:
            keep &= errors.xid == self.xid
        return keep


@dataclass(frozen=True)
class Alert:
    """One fired alert.

    Attributes:
        rule: name of the rule that fired.
        severity: copied from the rule.
        node: affected node, or ``None`` for fleet-scoped rules.
        time: log time (watermark) at which the condition became true.
        count: matching errors inside the horizon when it fired.
        message: rendered human-readable summary.
    """

    rule: str
    severity: str
    node: Optional[str]
    time: float
    count: int
    message: str

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable form (``/v1/alerts``, alert log lines)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "node": self.node,
            "time": self.time,
            "count": self.count,
            "message": self.message,
        }


def default_rules() -> List[AlertRule]:
    """The stock rule set, modeled on the paper's severity findings.

    XID 79 ("GPU fallen off the bus") is the strongest
    node-replacement predictor in the study, so a single occurrence
    alerts; the burst rules catch the error-storm behavior of the
    outlier GPUs in Section IV.
    """
    return [
        AlertRule(
            name="xid79_fallen_off_bus",
            description="XID 79 (GPU fallen off the bus) on a node within 24h",
            severity="critical",
            scope="node",
            threshold=1,
            horizon_seconds=86400.0,
            xid=79,
        ),
        AlertRule(
            name="uncontained_burst",
            description="3+ uncontained memory errors fleet-wide within 1h",
            severity="critical",
            scope="fleet",
            threshold=3,
            horizon_seconds=3600.0,
            event_class=EventClass.UNCONTAINED_MEMORY_ERROR,
        ),
        AlertRule(
            name="node_error_burst",
            description="5+ coalesced errors on one node within 1h",
            severity="warning",
            scope="node",
            threshold=5,
            horizon_seconds=3600.0,
        ),
    ]


class AlertEngine:
    """Edge-triggered rule evaluation over completed coalesced errors.

    Fold every poll's completed errors in with :meth:`observe_errors`,
    then call :meth:`evaluate` with the ingest watermark; newly fired
    alerts are returned (and appended to :attr:`history`).  Latching is per
    ``(rule, scope-key)``: a latched rule stays quiet until its
    trailing count drops below the threshold, then re-arms.
    """

    def __init__(self, rules: Optional[Sequence[AlertRule]] = None) -> None:
        self.rules: List[AlertRule] = (
            list(rules) if rules is not None else default_rules()
        )
        #: (rule name, node-or-"") -> sorted list of matching event times.
        self._events: Dict[Tuple[str, str], List[float]] = {}
        self._latched: Dict[Tuple[str, str], bool] = {}
        self.history: List[Alert] = []

    def observe_error(self, error: ExtractedError) -> None:
        """Fold one completed coalesced error (a one-row
        :meth:`observe_errors`)."""
        self.observe_errors(ErrorTable.of([error]))

    def observe_errors(self, errors: ErrorTable) -> None:
        """Fold a table of completed coalesced errors into every
        matching rule: one sorted merge per ``(rule, scope)`` key.  New
        keys enter in the order an error-by-error fold meets them (first
        matching row, then rule), the order :meth:`evaluate` fires in."""
        found = []
        for index, rule in enumerate(self.rules):
            rows = np.flatnonzero(rule.matches(errors))
            rows = rows[np.lexsort((errors.first[rows], errors.node[rows]))]
            node = rule.scope == "node"
            cuts = np.flatnonzero(np.diff(errors.node[rows])) + 1 if node else []
            for part in np.split(rows, cuts) if len(rows) else []:
                scope = errors.nodes[errors.node[part[0]]] if node else ""
                times = np.sort(errors.first[part])
                found.append((part.min(), index, (rule.name, scope), times))
        for _, _, key, times in sorted(found, key=lambda item: item[:2]):
            events = self._events.setdefault(key, [])
            events.extend(times.tolist())
            events.sort()

    def evaluate(self, watermark: float) -> List[Alert]:
        """Evict expired events, fire newly true rules, re-arm cleared ones."""
        fired: List[Alert] = []
        by_name = {rule.name: rule for rule in self.rules}
        for key, times in self._events.items():
            rule = by_name.get(key[0])
            if rule is None:
                continue
            cutoff = watermark - rule.horizon_seconds
            if times and times[0] < cutoff:
                del times[: bisect_left(times, cutoff)]
            count = len(times)
            if count >= rule.threshold:
                if not self._latched.get(key):
                    self._latched[key] = True
                    node = key[1] or None
                    scope_text = f"node {node}" if node else "fleet"
                    fired.append(
                        Alert(
                            rule=rule.name,
                            severity=rule.severity,
                            node=node,
                            time=watermark,
                            count=count,
                            message=(
                                f"{rule.severity.upper()}: {rule.description} "
                                f"({scope_text}: {count} in last "
                                f"{rule.horizon_seconds / 3600:g}h)"
                            ),
                        )
                    )
            else:
                self._latched[key] = False
        self.history.extend(fired)
        return fired

    def active_count(self) -> int:
        """Rules currently latched (condition still true)."""
        return sum(1 for latched in self._latched.values() if latched)

    def snapshot(self) -> Dict[str, object]:
        """JSON view of the engine (``/v1/alerts``)."""
        return {
            "rules": [
                {
                    "name": rule.name,
                    "description": rule.description,
                    "severity": rule.severity,
                    "scope": rule.scope,
                    "threshold": rule.threshold,
                    "horizon_seconds": rule.horizon_seconds,
                }
                for rule in self.rules
            ],
            "active": self.active_count(),
            "history": [alert.to_json() for alert in self.history],
        }


def append_alert_log(path, alerts: Sequence[Alert]) -> None:
    """Append fired alerts to a JSON-lines alert log (made on demand)."""
    if not alerts:
        return
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        for alert in alerts:
            handle.write(json.dumps(alert.to_json(), sort_keys=True) + "\n")
