"""The fleet-health service: shared-nothing tenant cores, one front end.

One :class:`MultiTenantService` hosts one or more isolated fleets —
think one ingest per cluster, or per customer of a monitoring service;
``repro stream --follow DIR`` is the one-tenant case, a tenant named
``default``.  Each tenant owns a **core**: its own
:class:`~repro.stream.ingest.StreamIngest` (follower + parser +
coalescer), :class:`~repro.stream.estimators.FleetEstimators`,
:class:`~repro.stream.alerts.AlertEngine`, state lock, and fleet-report
cache.  Nothing ingest-side is shared between tenants, so one tenant's
corrupt checkpoint, wedged poll, or log flood cannot corrupt another's
figures.  What *is* shared is the front end: one
:class:`~repro.stream.serve.FleetHealthServer` routing
``/v1/<tenant>/fleet|alerts|slo``, one metrics registry (tenant-labeled
families), and one :class:`~repro.obs.slo.SLOEngine` holding every
tenant's objectives under ``<tenant>:``-prefixed names.  A service
with exactly one tenant also serves that tenant at ``/v1/fleet`` and
``/v1/alerts`` and binds its request objectives to those two routes.

Resilience is layered on top rather than woven in:

* ingest loops run under an :class:`~repro.stream.guard
  .IngestSupervisor` — heartbeat watchdog, checkpoint-based restart
  with seeded backoff, per-tenant circuit breaker;
* a failed tenant **degrades instead of erroring**: its routes keep
  serving the last good snapshot with an
  ``X-Fleet-Staleness-Seconds`` header and ``degraded: true`` in
  ``/healthz``, never a 500;
* the **core swap** is the zombie-safety mechanism: Python cannot kill
  a thread, so a stalled worker keeps its orphaned core while the
  supervisor rebuilds a fresh core from the last checkpoint and
  rebinds it — readers follow the attribute, the zombie mutates
  garbage nobody reads.

Snapshot identity survives all of this because a rebuilt core replays
exactly the batch-compatible checkpoint resume path: after a heal and
a drain, ``/v1/<tenant>/fleet`` is still byte-identical to the batch
pipeline over the same corpus.

Shutdown contract: SIGTERM/SIGINT set a stop event; the workers finish
their in-flight polls, every tenant persists a final checkpoint and
flushes its outputs, and :meth:`MultiTenantService.run` returns ``0``.
"""

from __future__ import annotations

import json
import re
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.inventory import Inventory
from ..core.atomicio import atomic_write_json
from ..core.exceptions import ConfigurationError
from ..core.periods import StudyWindow
from ..obs import MetricsRegistry, Telemetry
from ..obs.metrics import LATENCY_BUCKETS
from ..obs.slo import SLOEngine, tenant_slos
from ..pipeline.coalesce import DEFAULT_WINDOW_SECONDS, WindowMode
from ..pipeline.metrics import PipelineMetricSet
from .alerts import AlertEngine, AlertRule, append_alert_log
from .estimators import (
    DEFAULT_NODE_COUNT,
    FleetEstimators,
    fleet_report,
    infer_stream_window,
)
from .guard import GuardConfig, IngestSupervisor
from .ingest import CHECKPOINT_FILE, StreamIngest
from .serve import FleetHealthServer, RequestObservability, json_route

_NEG_INF = float("-inf")

#: Tenant names become path segments, metric labels, and directories.
_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

#: How long a snapshot handler waits for the core lock before serving
#: the cached last-good body instead (seconds).  Long enough for any
#: healthy poll, short enough that a wedged ingest cannot stall the
#: HTTP front end.
SNAPSHOT_LOCK_TIMEOUT = 0.5

__all__ = [
    "SNAPSHOT_LOCK_TIMEOUT",
    "TenantSpec",
    "TenantRuntime",
    "MultiTenantService",
    "parse_tenant_arg",
    "resolve_syslog_dir",
]


def resolve_syslog_dir(follow_dir: Path) -> Path:
    """Accept either an artifact directory or its ``syslog/`` child."""
    follow_dir = Path(follow_dir)
    if (follow_dir / "syslog").is_dir():
        return follow_dir / "syslog"
    if follow_dir.is_dir():
        return follow_dir
    raise ConfigurationError(f"{follow_dir}: not a directory")


def _find_inventory(syslog_dir: Path) -> Optional[Inventory]:
    """Load ``inventory.json`` next to or above the syslog directory."""
    for candidate in (
        syslog_dir / "inventory.json",
        syslog_dir.parent / "inventory.json",
    ):
        if candidate.exists():
            return Inventory.load(candidate)
    return None


def parse_tenant_arg(value: str) -> Tuple[str, Path]:
    """Parse one ``--tenant NAME=DIR`` CLI argument."""
    name, sep, raw_dir = value.partition("=")
    if not sep or not name or not raw_dir:
        raise ConfigurationError(
            f"--tenant expects NAME=DIR, got {value!r}"
        )
    if not _TENANT_NAME.match(name):
        raise ConfigurationError(
            f"tenant name {name!r} must match {_TENANT_NAME.pattern}"
        )
    return name, Path(raw_dir)


@dataclass(frozen=True)
class TenantSpec:
    """Static configuration for one tenant.

    Attributes:
        name: route segment / metric label / checkpoint subdirectory.
        follow_dir: artifact directory (or its ``syslog/`` child).
        window_seconds: coalescing Δt for this tenant.
        mode: coalescing window semantics.
        node_count: fleet size for per-node MTBE scaling.
        fleet_out: optional path for the final fleet snapshot JSON.
        alerts_out: optional JSON-lines alert log.
        checkpoint_dir: directory for this tenant's durable resume
            state, ``<dir>/stream_checkpoint.json`` (``None`` disables
            checkpointing).
    """

    name: str
    follow_dir: Path
    window_seconds: float = DEFAULT_WINDOW_SECONDS
    mode: WindowMode = WindowMode.TUMBLING
    node_count: int = DEFAULT_NODE_COUNT
    fleet_out: Optional[Path] = None
    alerts_out: Optional[Path] = None
    checkpoint_dir: Optional[Path] = None

    def __post_init__(self) -> None:
        if not _TENANT_NAME.match(self.name):
            raise ConfigurationError(
                f"tenant name {self.name!r} must match "
                f"{_TENANT_NAME.pattern}"
            )


class _TenantCore:
    """One generation of a tenant's ingest state.

    Everything a poll mutates lives here behind one lock, so replacing
    a wedged generation is a single attribute rebind on the runtime —
    the supervisor never needs the old core's lock (the zombie may
    hold it forever).
    """

    __slots__ = (
        "ingest",
        "estimators",
        "alerts",
        "lock",
        "fleet_cache",
        "armed_fault",
        "generation",
        "figures",
    )

    def __init__(
        self,
        ingest: StreamIngest,
        estimators: FleetEstimators,
        alerts: AlertEngine,
        generation: int,
    ) -> None:
        self.ingest = ingest
        self.estimators = estimators
        self.alerts = alerts
        self.lock = threading.Lock()
        self.fleet_cache: Optional[tuple] = None
        #: chaos hook — an exception armed here is raised by the next
        #: poll, on the worker thread, through the real failure path.
        self.armed_fault: Optional[BaseException] = None
        self.generation = generation
        self.publish_figures()

    def publish_figures(self) -> None:
        """Snapshot the ingest figures ``/healthz`` reports.

        Called when the core is built and at the end of every poll,
        under the lock, so ``/healthz`` shows the state between polls
        (a line count only once its poll has folded it into the
        estimators and alerts) without its handler waiting for the
        lock.
        """
        ingest = self.ingest
        watermark = ingest.watermark
        self.figures: Dict[str, object] = {
            "watermark": None if watermark == _NEG_INF else watermark,
            "lines_read": ingest.lines_read,
            "raw_hits": ingest.raw_hits,
            "errors_total": self.estimators.total_errors,
            "open_groups": ingest.coalescer.open_groups,
            "open_outages": ingest.open_outages,
            "days_followed": len(ingest.follower.day_stems()),
            "drained": ingest.drained,
            "alerts_active": self.alerts.active_count(),
        }


class TenantRuntime:
    """One tenant's live state plus its HTTP handlers.

    The runtime is the stable object the server routes point at; the
    mutable ingest state lives in a swappable :class:`_TenantCore`.
    Route handlers acquire the *current* core's lock with a timeout —
    on timeout (core wedged) or while the tenant is marked down, they
    serve the cached last-good body with an
    ``X-Fleet-Staleness-Seconds`` header instead of blocking or
    erroring.
    """

    def __init__(
        self,
        spec: TenantSpec,
        registry: MetricsRegistry,
        slo: Optional[SLOEngine] = None,
        resume: bool = False,
        poll_interval: float = 1.0,
        rules: Optional[Sequence[AlertRule]] = None,
        window: Optional[StudyWindow] = None,
        logger=None,
    ) -> None:
        self.spec = spec
        self.name = spec.name
        self._syslog_dir = resolve_syslog_dir(spec.follow_dir)
        self._inventory = _find_inventory(self._syslog_dir)
        self._checkpoint_dir = (
            Path(spec.checkpoint_dir)
            if spec.checkpoint_dir is not None
            else None
        )
        self._poll_interval = poll_interval
        self._rules = rules
        self._window = window
        self._slo = slo
        self._logger = logger if logger is not None and logger.enabled else None
        self._freshness_name = f"{spec.name}:ingest-freshness"

        self.metric_set = PipelineMetricSet(registry)
        label = {"tenant": spec.name}
        self._polls = registry.counter(
            "tenant_polls_total", "ingest polls completed, by tenant",
            labels=("tenant",),
        ).labels(**label)
        self._watermark_gauge = registry.gauge(
            "tenant_watermark_seconds",
            "largest log timestamp ingested, by tenant",
            labels=("tenant",),
        ).labels(**label)
        self._degraded_gauge = registry.gauge(
            "tenant_degraded",
            "1 while the tenant serves stale snapshots",
            labels=("tenant",),
        ).labels(**label)
        self._staleness_gauge = registry.gauge(
            "tenant_staleness_seconds",
            "age of the last good snapshot, by tenant",
            labels=("tenant",),
            domain="host",
        ).labels(**label)
        self._quarantine_counter = registry.counter(
            "tenant_checkpoint_quarantined_total",
            "damaged checkpoints moved aside, by tenant",
            labels=("tenant",),
        ).labels(**label)
        self._poll_duration = registry.histogram(
            "tenant_poll_duration_seconds",
            "wall time spent per ingest poll, by tenant",
            labels=("tenant",),
            domain="host",
            buckets=LATENCY_BUCKETS,
        ).labels(**label)
        self._stale_serves = registry.counter(
            "tenant_stale_snapshots_served_total",
            "requests answered from the last-good cache, by tenant",
            labels=("tenant",),
            domain="host",
        ).labels(**label)
        self._open_groups_gauge = registry.gauge(
            "tenant_open_coalesce_groups",
            "coalescing groups awaiting closure, by tenant",
            labels=("tenant",),
        ).labels(**label)
        self._open_outages_gauge = registry.gauge(
            "tenant_open_outages",
            "nodes currently out of service, by tenant",
            labels=("tenant",),
        ).labels(**label)
        self._alerts_fired = registry.counter(
            "tenant_alerts_fired_total",
            "alerts fired by the rule engine, by tenant and severity",
            labels=("tenant", "severity"),
        )
        self._visibility_lag_gauge = registry.gauge(
            "tenant_visibility_lag_seconds",
            "append-to-visible upper bound: last poll duration + interval",
            labels=("tenant",),
            domain="host",
        ).labels(**label)

        self.degraded = False
        self.down_reason: Optional[str] = None
        self.breaker_state = "closed"
        self.last_failure: Optional[str] = None
        self.quarantined_checkpoints: List[str] = []
        #: route -> (body json, monotonic time) — the degraded fallback.
        self._last_good: Dict[str, Tuple[str, float]] = {}
        self._last_poll_end = time.monotonic()
        self._seen_first_poll = False

        self.core = self._build_core(resume=resume, generation=0)

    # ------------------------------------------------------------------
    # Core lifecycle
    # ------------------------------------------------------------------

    def _build_core(self, resume: bool, generation: int) -> _TenantCore:
        """Build a fresh generation from the checkpoint (or scratch)."""
        ingest: Optional[StreamIngest] = None
        if resume and self._checkpoint_dir is not None:
            ingest, quarantined = StreamIngest.resume_or_quarantine(
                self._syslog_dir,
                self._checkpoint_dir,
                inventory=self._inventory,
            )
            if quarantined is not None:
                self._quarantine_counter.inc()
                self.quarantined_checkpoints.append(str(quarantined))
                # The replacement genuinely re-reads everything, so the
                # delta baseline restarts from zero with it.
                self.metric_set.reset_baseline()
                if self._logger is not None:
                    self._logger.event(
                        "checkpoint_quarantined",
                        level="warning",
                        tenant=self.name,
                        quarantined=str(quarantined),
                        action="restarting ingest from scratch",
                    )
        if ingest is None:
            ingest = StreamIngest(
                self._syslog_dir,
                window_seconds=self.spec.window_seconds,
                mode=self.spec.mode,
                inventory=self._inventory,
            )
        estimators = FleetEstimators(node_count=self.spec.node_count)
        alerts = AlertEngine(self._rules)
        # Estimator/alert state is derivable, so it is not
        # checkpointed: fold the resumed coalescer's completed errors
        # in again, as one table.  Replayed alerts re-enter the history
        # but are not re-appended to the alert log.
        completed = ingest.coalescer.emitted()
        estimators.observe_errors(completed)
        alerts.observe_errors(completed)
        if ingest.watermark != _NEG_INF:
            estimators.advance(ingest.watermark)
            alerts.evaluate(ingest.watermark)
        return _TenantCore(ingest, estimators, alerts, generation)

    def rebuild(self) -> None:
        """Swap in a fresh core from the last checkpoint.

        Called by the supervisor after a crash or stall.  The old core
        is simply dropped — if a zombie thread still holds its lock or
        mutates its ingest, it does so on an object nothing else
        reads.  The swap itself takes no lock: readers grab
        ``self.core`` once per request and finish on whichever
        generation they started with.
        """
        old = self.core
        resume = (
            self._checkpoint_dir is not None
            and (self._checkpoint_dir / CHECKPOINT_FILE).exists()
        )
        self.core = self._build_core(
            resume=resume, generation=old.generation + 1
        )

    # ------------------------------------------------------------------
    # Worker-facing surface (called on the ingest thread / supervisor)
    # ------------------------------------------------------------------

    def poll_once(self, final: bool = False) -> int:
        """One locked poll on the current core; returns lines ingested.

        An armed chaos fault fires here, on the worker thread, so the
        injected failure exercises the genuine worker-death →
        supervisor-restart path rather than a simulation of it.

        Every poll but the first (which replays the backlog already on
        disk — catch-up, not staleness) records ``duration + poll
        interval``, the worst-case append-to-visible lag, as a
        freshness sample.
        """
        core = self.core
        if core.armed_fault is not None:
            fault, core.armed_fault = core.armed_fault, None
            raise fault
        start = time.perf_counter()
        with core.lock:
            outcome = core.ingest.drain() if final else core.ingest.poll()
            core.estimators.observe_errors(outcome.completed)
            core.alerts.observe_errors(outcome.completed)
            fired = []
            if core.ingest.watermark != _NEG_INF:
                core.estimators.advance(core.ingest.watermark)
                fired = core.alerts.evaluate(core.ingest.watermark)
            self.metric_set.publish_totals(core.ingest.totals())
            self._polls.inc()
            if core.ingest.watermark != _NEG_INF:
                self._watermark_gauge.set(core.ingest.watermark)
            self._open_groups_gauge.set(core.ingest.coalescer.open_groups)
            self._open_outages_gauge.set(core.ingest.open_outages)
            core.publish_figures()
        for alert in fired:
            self._alerts_fired.labels(
                tenant=self.name, severity=alert.severity
            ).inc()
        duration = time.perf_counter() - start
        self._poll_duration.observe(duration)
        self._last_poll_end = time.monotonic()
        self._staleness_gauge.set(0.0)
        if self._seen_first_poll:
            lag = duration + self._poll_interval
            self._visibility_lag_gauge.set(lag)
            if self._slo is not None:
                self._slo.record_freshness(lag, name=self._freshness_name)
        self._seen_first_poll = True
        if self.spec.alerts_out is not None and fired:
            append_alert_log(self.spec.alerts_out, fired)
        return outcome.lines

    def checkpoint(self) -> Optional[Path]:
        """Persist the current core's resume state (between polls)."""
        if self._checkpoint_dir is None:
            return None
        core = self.core
        with core.lock:
            if core is not self.core:
                # Superseded mid-wait by a supervisor rebuild: refuse
                # to overwrite the successor's checkpoint with stale
                # state.
                return None
            self._checkpoint_dir.mkdir(parents=True, exist_ok=True)
            return core.ingest.checkpoint(self._checkpoint_dir)

    @property
    def checkpoint_path(self) -> Optional[Path]:
        """Where this tenant's checkpoint lives (chaos targets this)."""
        if self._checkpoint_dir is None:
            return None
        return self._checkpoint_dir / CHECKPOINT_FILE

    def note_worker_failure(self, exc: BaseException) -> None:
        """Record the exception that killed the worker (for /healthz)."""
        self.last_failure = f"{type(exc).__name__}: {exc}"

    def mark_down(self, reason: str, breaker_state: str) -> None:
        """Supervisor: the tenant is degraded until a heal completes."""
        self.degraded = True
        self.down_reason = reason
        self.breaker_state = breaker_state
        self._degraded_gauge.set(1.0)

    def mark_up(self) -> None:
        """Supervisor: a replacement worker completed a poll."""
        self.degraded = False
        self.down_reason = None
        self.breaker_state = "closed"
        self._degraded_gauge.set(0.0)

    def staleness_seconds(self) -> float:
        """Seconds since the last completed poll."""
        return max(0.0, time.monotonic() - self._last_poll_end)

    def record_downtime_freshness(self) -> None:
        """Supervisor tick while down: the staleness *is* the lag.

        Recording the growing staleness as freshness samples is what
        makes the SLO engine's burn-rate math see the outage — the
        freshness objective burns error budget for every tick the
        tenant is down, and the multi-window alert fires if the heal
        takes too long.
        """
        staleness = self.staleness_seconds()
        self._staleness_gauge.set(staleness)
        if self._slo is not None:
            self._slo.record_freshness(staleness, name=self._freshness_name)

    def record_freshness_heartbeat(self) -> None:
        """Supervisor tick while healthy: refresh the staleness gauge."""
        self._staleness_gauge.set(self.staleness_seconds())

    # ------------------------------------------------------------------
    # HTTP handlers
    # ------------------------------------------------------------------

    def _serve_cached(self, route: str):
        """The degraded path: last good body + staleness header."""
        self._stale_serves.inc()
        cached = self._last_good.get(route)
        if cached is None:
            body = (
                json.dumps(
                    {
                        "degraded": True,
                        "tenant": self.name,
                        "reason": self.down_reason or "snapshot unavailable",
                        "note": "no snapshot computed yet",
                    },
                    sort_keys=True,
                )
                + "\n"
            )
            staleness = self.staleness_seconds()
        else:
            body, computed_at = cached
            staleness = max(0.0, time.monotonic() - computed_at)
        headers = {"X-Fleet-Staleness-Seconds": f"{staleness:.3f}"}
        return ("application/json", body, headers)

    def _snapshot_route(self, route: str, compute):
        """Compute fresh under the core lock, or fall back to cache."""
        core = self.core
        if not core.lock.acquire(timeout=SNAPSHOT_LOCK_TIMEOUT):
            return self._serve_cached(route)
        try:
            payload = compute(core)
        finally:
            core.lock.release()
        body = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        self._last_good[route] = (body, time.monotonic())
        if self.degraded:
            # The state is readable but not advancing (worker down,
            # core intact): serve it, but flag the staleness.
            headers = {
                "X-Fleet-Staleness-Seconds": (
                    f"{self.staleness_seconds():.3f}"
                )
            }
            return ("application/json", body, headers)
        return ("application/json", body)

    def _compute_fleet(self, core: _TenantCore) -> Dict[str, object]:
        cache_key = (
            core.ingest.lines_read,
            core.ingest.watermark,
            core.ingest.drained,
        )
        if core.fleet_cache is not None and core.fleet_cache[0] == cache_key:
            return core.fleet_cache[1]
        watermark = core.ingest.watermark
        window = self._window
        if window is None:
            window = infer_stream_window(
                watermark if watermark != _NEG_INF else 0.0
            )
        report = fleet_report(
            core.ingest.coalescer.errors(),
            core.ingest.downtime_records(),
            window,
            node_count=self.spec.node_count,
        )
        health = core.ingest.health()
        snapshot = {
            "report": report,
            "estimators": core.estimators.snapshot(),
            "stream": {
                "watermark": None if watermark == _NEG_INF else watermark,
                "drained": core.ingest.drained,
                "lines_read": core.ingest.lines_read,
                "raw_hits": core.ingest.raw_hits,
                "open_groups": core.ingest.coalescer.open_groups,
                "completeness": health.completeness,
            },
        }
        core.fleet_cache = (cache_key, snapshot)
        return snapshot

    def fleet_route(self):
        """``/v1/<tenant>/fleet``."""
        return self._snapshot_route("fleet", self._compute_fleet)

    def alerts_route(self):
        """``/v1/<tenant>/alerts``."""
        return self._snapshot_route(
            "alerts", lambda core: core.alerts.snapshot()
        )

    def health_entry(self, guard: Optional[Dict[str, object]]) -> Dict[str, object]:
        """This tenant's block of the shared ``/healthz`` document.

        The ingest figures are the current core's as of its last
        completed poll (:meth:`_TenantCore.publish_figures`).
        """
        core = self.core
        entry: Dict[str, object] = {
            "degraded": self.degraded,
            "down_reason": self.down_reason,
            "breaker": self.breaker_state,
            "last_failure": self.last_failure,
            "staleness_seconds": round(self.staleness_seconds(), 3),
            "generation": core.generation,
            **core.figures,
            "checkpoints_quarantined": list(self.quarantined_checkpoints),
        }
        if guard is not None:
            entry["guard"] = guard
        return entry

    def flush_outputs(self) -> None:
        """Final checkpoint + fleet snapshot (shutdown/drain path)."""
        self.checkpoint()
        if self.spec.fleet_out is not None:
            core = self.core
            with core.lock:
                snapshot = self._compute_fleet(core)
            atomic_write_json(
                self.spec.fleet_out, snapshot, indent=2, sort_keys=True
            )


class MultiTenantService:
    """N isolated tenants behind one supervised HTTP front end.

    Args:
        tenants: the tenant specs (names must be unique).  Each
            checkpoints into its own ``spec.checkpoint_dir`` in the
            plain single-stream layout, so ``repro stream --follow
            <dir> --checkpoint <that dir> --resume --once`` replays any
            one tenant standalone.  With exactly one tenant, its fleet
            and alerts routes are also served at ``/v1/fleet`` and
            ``/v1/alerts``, which its availability and latency
            objectives then watch.
        port: HTTP bind port (``0`` = ephemeral; ``None`` = no server).
        resume: restore each tenant from its checkpoint when present.
        once: drain mode — serially drain every tenant (no supervisor,
            no chaos), flush outputs, return.
        poll_interval / checkpoint_interval: worker cadence.
        guard: supervision policy (default :class:`GuardConfig`).
        idle_exit: follow mode — drain every tenant and stop after this
            many consecutive seconds in which *no* tenant ingested a
            line.
        window: fixed study window for the fleet reports; by default
            each snapshot infers one from its tenant's watermark
            (:func:`~repro.stream.estimators.infer_stream_window`).
        chaos: optional chaos controller (duck-typed ``attach(service)``
            / ``start()`` / ``stop()`` / ``snapshot()``), kept abstract
            here so the tenancy layer has no dependency on the harness.
        telemetry: optional shared telemetry bundle; when absent or
            disabled the service still runs a private live metrics
            registry so ``/metrics`` always works.
        request_obs: master switch for the per-request telemetry and
            the SLO engine; when False the HTTP layer runs on the
            shared NOOP instruments.
        max_inflight: shed requests beyond this concurrency with 429 +
            ``Retry-After`` (``None`` = unbounded).
        request_timeout: total per-request deadline in seconds — the
            slow-loris defense (``None`` = no deadline).
        drain_deadline: seconds :meth:`run` waits for in-flight
            responses to finish writing at shutdown.
    """

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        port: Optional[int] = 0,
        resume: bool = False,
        once: bool = False,
        poll_interval: float = 1.0,
        checkpoint_interval: float = 10.0,
        guard: Optional[GuardConfig] = None,
        idle_exit: Optional[float] = None,
        window: Optional[StudyWindow] = None,
        chaos=None,
        rules: Optional[Sequence[AlertRule]] = None,
        telemetry: Optional[Telemetry] = None,
        request_obs: bool = True,
        max_inflight: Optional[int] = None,
        request_timeout: Optional[float] = None,
        drain_deadline: float = 5.0,
    ) -> None:
        if not tenants:
            raise ConfigurationError("at least one tenant is required")
        names = [spec.name for spec in tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate tenant names in {names}")
        if poll_interval <= 0:
            raise ConfigurationError(
                f"poll interval must be positive, got {poll_interval}"
            )
        self._once = once
        self._poll_interval = poll_interval
        self._checkpoint_interval = checkpoint_interval
        self._idle_exit = idle_exit
        self._drain_deadline = drain_deadline
        self.guard_config = guard if guard is not None else GuardConfig()
        self.telemetry = telemetry

        registry = telemetry.metrics if telemetry is not None else None
        if registry is None or not registry.enabled:
            registry = MetricsRegistry(enabled=True)
        self.metrics = registry
        logger = telemetry.logger if telemetry is not None else None

        self._request_obs_enabled = request_obs
        obs_registry = registry if request_obs else None
        # One tenant is the whole fleet: it also answers the bare routes.
        sole = len(tenants) == 1
        objectives = []
        for spec in tenants:
            prefix = "/v1" if sole else f"/v1/{spec.name}"
            objectives.extend(
                tenant_slos(
                    spec.name, routes=(f"{prefix}/fleet", f"{prefix}/alerts")
                )
            )
        self.slo = SLOEngine(
            objectives=objectives, registry=obs_registry, clock=time.monotonic
        )
        self.request_obs = RequestObservability(
            registry=obs_registry,
            tracer=telemetry.tracer if telemetry is not None else None,
            logger=logger,
            slo=self.slo if request_obs else None,
        )

        self.runtimes: List[TenantRuntime] = [
            TenantRuntime(
                spec,
                registry=registry,
                slo=self.slo if request_obs else None,
                resume=resume,
                poll_interval=poll_interval,
                rules=rules,
                window=window,
                logger=logger,
            )
            for spec in tenants
        ]

        self.supervisor = IngestSupervisor(
            self.runtimes,
            self.guard_config,
            poll_interval=poll_interval,
            checkpoint_interval=checkpoint_interval,
            registry=registry,
            logger=logger,
        )
        self.chaos = chaos
        if chaos is not None:
            chaos.attach(self)

        self._stop = threading.Event()
        routes = {
            "/healthz": json_route(self.health_snapshot),
            "/metrics": self._metrics_route,
            "/v1/slo": json_route(self.slo_snapshot),
        }
        for rt in self.runtimes:
            routes[f"/v1/{rt.name}/fleet"] = rt.fleet_route
            routes[f"/v1/{rt.name}/alerts"] = rt.alerts_route
            routes[f"/v1/{rt.name}/slo"] = json_route(
                self._tenant_slo_snapshot(rt.name)
            )
        if sole:
            routes["/v1/fleet"] = self.runtimes[0].fleet_route
            routes["/v1/alerts"] = self.runtimes[0].alerts_route
        self.server: Optional[FleetHealthServer] = None
        if port is not None:
            self.server = FleetHealthServer(
                routes,
                port=port,
                observability=self.request_obs,
                max_inflight=max_inflight,
                request_timeout=request_timeout,
            )

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def _metrics_route(self):
        """``/metrics``: one exposition covering every tenant."""
        return (
            "text/plain; version=0.0.4",
            self.metrics.render_prometheus(include_host=True),
        )

    def _tenant_slo_snapshot(self, name: str):
        def snapshot() -> Dict[str, object]:
            return self.slo.snapshot(prefix=f"{name}:")

        return snapshot

    def slo_snapshot(self) -> Dict[str, object]:
        """``/v1/slo``: every tenant's objectives in one document."""
        snapshot = self.slo.snapshot()
        snapshot["request_latency"] = self.request_obs.quantile_snapshot()
        return snapshot

    def health_snapshot(self) -> Dict[str, object]:
        """``/healthz``: global liveness plus one block per tenant.

        ``degraded`` at the top is the any-tenant rollup: the CI smoke
        gate polls it to decide the service has healed.
        """
        guard_state = self.supervisor.snapshot()
        tenant_blocks = {
            rt.name: rt.health_entry(guard_state.get(rt.name))
            for rt in self.runtimes
        }
        degraded = any(rt.degraded for rt in self.runtimes)
        doc: Dict[str, object] = {
            "status": "degraded" if degraded else "ok",
            "degraded": degraded,
            "tenants": tenant_blocks,
            "slo_alerting": self.slo.active_count(),
            "request_latency": self.request_obs.quantile_snapshot(),
        }
        if self.chaos is not None:
            doc["chaos"] = self.chaos.snapshot()
        return doc

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Request a graceful shutdown (signal-handler safe)."""
        self._stop.set()

    def _install_signals(self) -> Dict[int, object]:
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(
                signum, lambda *_args: self.stop()
            )
        return previous

    def _drain_all(self) -> None:
        """Once mode: serially drain every tenant, no supervision."""
        for rt in self.runtimes:
            while True:
                if rt.poll_once() == 0:
                    break
            rt.poll_once(final=True)
            if self._request_obs_enabled:
                self.slo.evaluate()
            rt.flush_outputs()

    def _follow(self) -> None:
        """Follow mode: supervised workers until stopped or idle.

        An idle exit drains every tenant before flushing, exactly as
        ``--once`` does; a stop request only checkpoints and flushes.
        """
        self.supervisor.start()
        if self.chaos is not None:
            self.chaos.start()
        try:
            last_lines = {
                rt.name: rt.core.ingest.lines_read for rt in self.runtimes
            }
            last_progress = time.monotonic()
            while not self._stop.is_set():
                self._stop.wait(self._poll_interval)
                if self._request_obs_enabled:
                    self.slo.evaluate()
                progressed = False
                for rt in self.runtimes:
                    lines = rt.core.ingest.lines_read
                    if lines != last_lines[rt.name]:
                        last_lines[rt.name] = lines
                        progressed = True
                now = time.monotonic()
                if progressed:
                    last_progress = now
                if (
                    self._idle_exit is not None
                    and now - last_progress >= self._idle_exit
                ):
                    break
        finally:
            if self.chaos is not None:
                self.chaos.stop()
            self.supervisor.stop()
        for rt in self.runtimes:
            if not self._stop.is_set():
                rt.poll_once(final=True)
            rt.flush_outputs()

    def run(self, install_signals: bool = True) -> int:
        """Serve until stopped (or drained in ``--once`` mode).

        Returns ``0`` — graceful SIGTERM/SIGINT shutdown is the
        expected daemon exit, and in-flight responses get
        ``drain_deadline`` seconds to finish before the socket closes.
        """
        previous = self._install_signals() if install_signals else {}
        if self.server is not None:
            self.server.start()
        try:
            if self._once:
                self._drain_all()
            else:
                self._follow()
        finally:
            if self.server is not None:
                self.server.stop(drain_deadline=self._drain_deadline)
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        return 0
