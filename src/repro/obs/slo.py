"""Declarative service-level objectives with burn-rate alerting.

The fleet-health service states its own reliability the same way it
states the fleet's: as objectives evaluated over sliding windows.  An
:class:`SLOEngine` holds a set of :class:`ServiceObjective` s — route
availability ("99.9% of /v1/fleet requests succeed"), route latency
("95% of /v1/alerts requests complete within 250 ms"), and ingest
freshness ("99% of polls keep append-to-visible lag under 2 s") — and
classifies every event as *good* or *bad* against them.

Alerting follows the multi-window burn-rate recipe: the **burn rate**
is the observed bad fraction divided by the error budget ``1 −
target``; a burn rate of 1.0 spends the budget exactly at the
objective's horizon, 14.4 spends a 30-day budget in 2 days.  Two
policies are evaluated:

* **fast** — burn ≥ 14.4 on *both* the 5 m and 1 h windows (a sharp
  ongoing failure; short window confirms it is still happening, long
  window confirms it is material);
* **slow** — burn ≥ 6.0 on both the 1 h and 6 h windows (a sustained
  simmer that will exhaust the budget within days).

Firing is edge-triggered with re-arming — the same latch semantics as
:class:`~repro.stream.alerts.AlertEngine`: one alert when a policy's
condition first becomes true, silence while it holds, re-armed when
both windows drop back below the threshold.  The engine clock is
injectable (the service installs a monotonic wall clock; tests drive a
manual clock), so the window arithmetic is deterministic under test —
the SLO analog of the alert engine's log-time rule.

Good/bad counts live in fixed-width time bins (default 10 s) evicted
past the longest window, so memory is bounded by ``6 h / bin_width``
per objective regardless of traffic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ServiceObjective",
    "SLOAlert",
    "SLOEngine",
    "BURN_WINDOWS",
    "BURN_POLICIES",
    "default_slos",
    "tenant_slos",
]

#: Named burn-rate windows (label, seconds).
BURN_WINDOWS: Tuple[Tuple[str, float], ...] = (
    ("5m", 300.0),
    ("1h", 3600.0),
    ("6h", 21600.0),
)

#: Multi-window alert policies: (name, severity, threshold,
#: (short window, long window)).  Both windows must exceed the
#: threshold for the policy to fire.
BURN_POLICIES: Tuple[Tuple[str, str, float, Tuple[str, str]], ...] = (
    ("fast", "critical", 14.4, ("5m", "1h")),
    ("slow", "warning", 6.0, ("1h", "6h")),
)

_WINDOW_SECONDS = dict(BURN_WINDOWS)
_LONGEST_WINDOW = max(seconds for _, seconds in BURN_WINDOWS)

#: Width of the good/bad accounting bins (seconds).
BIN_SECONDS = 10.0


@dataclass(frozen=True)
class ServiceObjective:
    """One declarative objective over a stream of good/bad events.

    Attributes:
        name: stable identifier (metric label, report key).
        description: human-readable statement of the objective.
        kind: ``"availability"`` (good = non-5xx response),
            ``"latency"`` (good = faster than ``threshold_seconds``),
            or ``"freshness"`` (good = visibility lag within
            ``threshold_seconds``).
        target: required good fraction (e.g. ``0.999``).
        route: for request objectives, the route this applies to
            (``None`` matches every route; freshness ignores it).
        threshold_seconds: latency/freshness cut-off; ``None`` for
            availability.
    """

    name: str
    description: str
    kind: str
    target: float
    route: Optional[str] = None
    threshold_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("availability", "latency", "freshness"):
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(
                f"target must be a fraction in (0, 1), got {self.target}"
            )
        if self.kind in ("latency", "freshness") and (
            self.threshold_seconds is None or self.threshold_seconds <= 0
        ):
            raise ValueError(
                f"{self.name}: {self.kind} objectives need a positive "
                f"threshold_seconds"
            )

    @property
    def error_budget(self) -> float:
        """The tolerated bad fraction (``1 − target``)."""
        return 1.0 - self.target


@dataclass(frozen=True)
class SLOAlert:
    """One fired burn-rate alert.

    Attributes:
        objective: name of the breached objective.
        policy: ``"fast"`` or ``"slow"``.
        severity: copied from the policy.
        time: engine-clock time at which the condition became true.
        burn_rates: the per-window burn rates when it fired.
        message: rendered human-readable summary.
    """

    objective: str
    policy: str
    severity: str
    time: float
    burn_rates: Dict[str, float]
    message: str

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable form (``/v1/slo``, run reports)."""
        return {
            "objective": self.objective,
            "policy": self.policy,
            "severity": self.severity,
            "time": self.time,
            "burn_rates": dict(self.burn_rates),
            "message": self.message,
        }


def default_slos(
    routes: Sequence[str] = ("/v1/fleet", "/v1/alerts"),
    latency_threshold_seconds: float = 0.25,
    freshness_threshold_seconds: float = 2.0,
) -> List[ServiceObjective]:
    """The stock objective set for the fleet-health service.

    Availability at three nines and 95%-under-250 ms latency per data
    route, plus an ingest-freshness objective whose threshold matches
    the E14 append-to-visible latency bound.
    """
    objectives: List[ServiceObjective] = []
    for route in routes:
        stem = route.rsplit("/", 1)[-1] or route
        objectives.append(
            ServiceObjective(
                name=f"{stem}-availability",
                description=f"99.9% of {route} requests succeed (non-5xx)",
                kind="availability",
                target=0.999,
                route=route,
            )
        )
        objectives.append(
            ServiceObjective(
                name=f"{stem}-latency",
                description=(
                    f"95% of {route} requests complete within "
                    f"{latency_threshold_seconds * 1000:g} ms"
                ),
                kind="latency",
                target=0.95,
                route=route,
                threshold_seconds=latency_threshold_seconds,
            )
        )
    objectives.append(
        ServiceObjective(
            name="ingest-freshness",
            description=(
                "99% of ingest polls keep append-to-visible lag under "
                f"{freshness_threshold_seconds:g} s"
            ),
            kind="freshness",
            target=0.99,
            threshold_seconds=freshness_threshold_seconds,
        )
    )
    return objectives


def tenant_slos(
    tenant: str,
    routes: Sequence[str],
    latency_threshold_seconds: float = 0.25,
    freshness_threshold_seconds: float = 2.0,
) -> List[ServiceObjective]:
    """:func:`default_slos` for one tenant of the fleet-health service,
    with names prefixed ``<tenant>:`` so objectives from different
    tenants coexist in one engine.

    The freshness objective is named ``<tenant>:ingest-freshness`` —
    per-tenant poll loops target it by name via
    :meth:`SLOEngine.record_freshness`.
    """
    return [
        replace(objective, name=f"{tenant}:{objective.name}")
        for objective in default_slos(
            routes, latency_threshold_seconds, freshness_threshold_seconds
        )
    ]


class _Tracker:
    """Good/bad accounting for one objective: bins plus totals."""

    __slots__ = ("good", "bad", "_bins")

    def __init__(self) -> None:
        self.good = 0
        self.bad = 0
        #: bin index -> [good, bad]; evicted past the longest window.
        self._bins: Dict[int, List[int]] = {}

    def record(self, good: bool, now: float) -> None:
        index = int(now // BIN_SECONDS)
        bin_ = self._bins.get(index)
        if bin_ is None:
            bin_ = self._bins[index] = [0, 0]
        if good:
            self.good += 1
            bin_[0] += 1
        else:
            self.bad += 1
            bin_[1] += 1

    def evict(self, now: float) -> None:
        """Drop bins older than the longest alerting window."""
        horizon = int((now - _LONGEST_WINDOW) // BIN_SECONDS)
        if len(self._bins) and min(self._bins) < horizon:
            for index in [i for i in self._bins if i < horizon]:
                del self._bins[index]

    def window_counts(self, window_seconds: float, now: float) -> Tuple[int, int]:
        """``(good, bad)`` inside the trailing window ending at ``now``."""
        start = int((now - window_seconds) // BIN_SECONDS)
        end = int(now // BIN_SECONDS)
        good = bad = 0
        if len(self._bins) <= (end - start):
            items = (
                (i, b) for i, b in self._bins.items() if start < i <= end
            )
        else:
            items = (
                (i, self._bins[i])
                for i in range(start + 1, end + 1)
                if i in self._bins
            )
        for _, bin_ in items:
            good += bin_[0]
            bad += bin_[1]
        return good, bad


class SLOEngine:
    """Objective evaluation with multi-window burn-rate alerting.

    Args:
        objectives: the objective set (default :func:`default_slos`).
        registry: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when given the engine publishes ``slo_compliance``,
            ``slo_burn_rate``, ``slo_verdict`` gauges and an
            ``slo_alerts_total`` counter (host domain — the values
            derive from wall-clock traffic).
        clock: engine clock (seconds); defaults to an internal origin
            of 0.0 advanced only by explicit ``now=`` arguments, so
            library callers and tests stay deterministic.  The service
            installs a monotonic wall clock.

    All public methods are thread-safe: HTTP worker threads feed
    :meth:`record_request` while the poll loop calls
    :meth:`record_freshness`/:meth:`evaluate` and snapshot routes read.
    """

    def __init__(
        self,
        objectives: Optional[Sequence[ServiceObjective]] = None,
        registry=None,
        clock=None,
    ) -> None:
        self.objectives: List[ServiceObjective] = (
            list(objectives) if objectives is not None else default_slos()
        )
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names in {names}")
        self._clock = clock or (lambda: 0.0)
        self._lock = threading.Lock()
        self._trackers: Dict[str, _Tracker] = {
            o.name: _Tracker() for o in self.objectives
        }
        self._latched: Dict[Tuple[str, str], bool] = {}
        self.history: List[SLOAlert] = []

        self._compliance_gauge = None
        self._burn_gauge = None
        self._verdict_gauge = None
        self._alerts_counter = None
        if registry is not None and registry.enabled:
            self._compliance_gauge = registry.gauge(
                "slo_compliance",
                "observed good fraction per objective (cumulative)",
                labels=("slo",),
                domain="host",
            )
            self._burn_gauge = registry.gauge(
                "slo_burn_rate",
                "error-budget burn rate per objective and window",
                labels=("slo", "window"),
                domain="host",
            )
            self._verdict_gauge = registry.gauge(
                "slo_verdict",
                "1 when the objective currently meets its target, else 0",
                labels=("slo",),
                domain="host",
            )
            self._alerts_counter = registry.counter(
                "slo_alerts_total",
                "burn-rate alerts fired",
                labels=("slo", "policy"),
                domain="host",
            )

    # ------------------------------------------------------------------
    # Event feeds
    # ------------------------------------------------------------------

    def _now(self, now: Optional[float]) -> float:
        return self._clock() if now is None else float(now)

    def record_request(
        self,
        route: str,
        status: int,
        latency_seconds: float,
        now: Optional[float] = None,
    ) -> None:
        """Classify one HTTP request against the request objectives."""
        t = self._now(now)
        with self._lock:
            for objective in self.objectives:
                if objective.kind == "freshness":
                    continue
                if objective.route is not None and objective.route != route:
                    continue
                if objective.kind == "availability":
                    good = status < 500
                else:  # latency: failed requests spend budget too
                    good = (
                        status < 500
                        and latency_seconds <= objective.threshold_seconds
                    )
                self._trackers[objective.name].record(good, t)

    def record_freshness(
        self,
        lag_seconds: float,
        now: Optional[float] = None,
        name: Optional[str] = None,
    ) -> None:
        """Classify one ingest poll against the freshness objectives.

        ``name`` scopes the event to one objective (a tenant's own
        freshness stream); ``None`` feeds every freshness objective.
        """
        t = self._now(now)
        with self._lock:
            for objective in self.objectives:
                if objective.kind != "freshness":
                    continue
                if name is not None and objective.name != name:
                    continue
                good = lag_seconds <= objective.threshold_seconds
                self._trackers[objective.name].record(good, t)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def _burn_rates(
        self, objective: ServiceObjective, tracker: _Tracker, now: float
    ) -> Dict[str, float]:
        rates: Dict[str, float] = {}
        for label, seconds in BURN_WINDOWS:
            good, bad = tracker.window_counts(seconds, now)
            total = good + bad
            if total == 0:
                rates[label] = 0.0
            else:
                rates[label] = (bad / total) / objective.error_budget
        return rates

    def evaluate(self, now: Optional[float] = None) -> List[SLOAlert]:
        """Evict stale bins, fire newly breaching policies, re-arm.

        Returns the alerts that fired *this* call (latch semantics:
        a policy that stays breaching stays silent until it clears).
        """
        t = self._now(now)
        fired: List[SLOAlert] = []
        with self._lock:
            for objective in self.objectives:
                tracker = self._trackers[objective.name]
                tracker.evict(t)
                rates = self._burn_rates(objective, tracker, t)
                for policy, severity, threshold, (short, long_) in BURN_POLICIES:
                    key = (objective.name, policy)
                    breaching = (
                        rates[short] >= threshold and rates[long_] >= threshold
                    )
                    if breaching:
                        if not self._latched.get(key):
                            self._latched[key] = True
                            alert = SLOAlert(
                                objective=objective.name,
                                policy=policy,
                                severity=severity,
                                time=t,
                                burn_rates=dict(rates),
                                message=(
                                    f"{severity.upper()}: {objective.name} "
                                    f"burning error budget at "
                                    f"{rates[short]:.1f}x ({short}) / "
                                    f"{rates[long_]:.1f}x ({long_}) — "
                                    f"{objective.description}"
                                ),
                            )
                            fired.append(alert)
                            if self._alerts_counter is not None:
                                self._alerts_counter.labels(
                                    slo=objective.name, policy=policy
                                ).inc()
                    else:
                        self._latched[key] = False
                self._publish(objective, tracker, rates)
            self.history.extend(fired)
        return fired

    def _publish(self, objective, tracker, rates) -> None:
        """Mirror one objective's state into the metric families."""
        if self._compliance_gauge is None:
            return
        total = tracker.good + tracker.bad
        compliance = tracker.good / total if total else 1.0
        self._compliance_gauge.labels(slo=objective.name).set(compliance)
        self._verdict_gauge.labels(slo=objective.name).set(
            1.0 if (total == 0 or compliance >= objective.target) else 0.0
        )
        for label, rate in rates.items():
            self._burn_gauge.labels(slo=objective.name, window=label).set(rate)

    def active_count(self) -> int:
        """Policies currently latched (condition still true)."""
        with self._lock:
            return sum(1 for latched in self._latched.values() if latched)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def verdicts(self) -> Dict[str, str]:
        """``objective name -> "pass" | "fail" | "no_data"``.

        The verdict is cumulative: observed compliance since start
        against the target.  ``no_data`` distinguishes "never measured"
        from "measured and healthy".
        """
        out: Dict[str, str] = {}
        with self._lock:
            for objective in self.objectives:
                tracker = self._trackers[objective.name]
                total = tracker.good + tracker.bad
                if total == 0:
                    out[objective.name] = "no_data"
                elif tracker.good / total >= objective.target:
                    out[objective.name] = "pass"
                else:
                    out[objective.name] = "fail"
        return out

    def snapshot(
        self, now: Optional[float] = None, prefix: Optional[str] = None
    ) -> Dict[str, object]:
        """The ``/v1/slo`` document: objectives, burn rates, alerts.

        ``prefix`` filters to objectives (and fired alerts) whose name
        starts with it — the per-tenant ``/v1/<tenant>/slo`` view.
        """
        t = self._now(now)
        objectives: List[Dict[str, object]] = []
        with self._lock:
            for objective in self.objectives:
                if prefix is not None and not objective.name.startswith(prefix):
                    continue
                tracker = self._trackers[objective.name]
                total = tracker.good + tracker.bad
                compliance = tracker.good / total if total else None
                rates = self._burn_rates(objective, tracker, t)
                if total == 0:
                    verdict = "no_data"
                elif compliance >= objective.target:
                    verdict = "pass"
                else:
                    verdict = "fail"
                budget_spent = (
                    None
                    if compliance is None
                    else (1.0 - compliance) / objective.error_budget
                )
                objectives.append(
                    {
                        "name": objective.name,
                        "description": objective.description,
                        "kind": objective.kind,
                        "route": objective.route,
                        "target": objective.target,
                        "threshold_seconds": objective.threshold_seconds,
                        "events": total,
                        "good": tracker.good,
                        "bad": tracker.bad,
                        "compliance": compliance,
                        "error_budget_spent": budget_spent,
                        "burn_rates": rates,
                        "verdict": verdict,
                        "alerting": any(
                            self._latched.get((objective.name, policy))
                            for policy, _, _, _ in BURN_POLICIES
                        ),
                    }
                )
            history = [
                alert.to_json()
                for alert in self.history
                if prefix is None or alert.objective.startswith(prefix)
            ]
        return {
            "schema": "repro-slo-v1",
            "windows": {label: seconds for label, seconds in BURN_WINDOWS},
            "policies": [
                {
                    "name": name,
                    "severity": severity,
                    "burn_threshold": threshold,
                    "windows": list(windows),
                }
                for name, severity, threshold, windows in BURN_POLICIES
            ],
            "objectives": objectives,
            "alerts": history,
        }
