"""Ingest supervision: heartbeats, restarts, and circuit breakers.

The paper's operational lesson — failures are inevitable; what matters
is detection, containment, and recovery time — applied to the
fleet-health service itself.  Each tenant's ingest loop runs on its
own worker thread (:class:`TenantWorker`); an :class:`IngestSupervisor`
watchdog thread watches every worker's **heartbeat watermark** and
reacts to two failure shapes:

* **crash** — the worker thread died on an exception (an injected
  ingest kill, a transient follower I/O error, a bug);
* **stall** — the thread is alive but its heartbeat has not moved for
  ``stall_timeout`` seconds (a wedged poll).  A poll that is still
  ingesting is not wedged: the tenant's line count moving counts as a
  heartbeat, so a long backlog replay is never mistaken for a stall.

Either way the supervisor *abandons* the old ingest generation —
Python cannot kill a thread, so a stalled worker is left to mutate an
orphaned core that nothing reads anymore — and rebuilds a fresh one
from the tenant's last checkpoint after a bounded, seeded-jitter
exponential backoff.  Repeated failures trip a per-tenant
:class:`CircuitBreaker`: while open, no restarts are attempted and the
tenant serves degraded (last good snapshot + staleness header) until
the cooldown admits a half-open probe.

Every transition is counted (``tenant_ingest_restarts_total``,
``tenant_breaker_state``) and every heal is timed
(``tenant_ingest_recovery_seconds`` — detect→first-successful-poll),
so the service measures its own detect→restore timeline the same way
``repro.recovery`` measures gang jobs.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.exceptions import ConfigurationError
from ..obs.metrics import MetricsRegistry

__all__ = [
    "GuardConfig",
    "RestartBackoff",
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "TenantWorker",
    "IngestSupervisor",
]

#: Circuit-breaker states (gauge encoding: closed 0, half-open 1, open 2).
BREAKER_CLOSED = "closed"
BREAKER_HALF_OPEN = "half-open"
BREAKER_OPEN = "open"

_BREAKER_GAUGE = {BREAKER_CLOSED: 0.0, BREAKER_HALF_OPEN: 1.0, BREAKER_OPEN: 2.0}


@dataclass(frozen=True)
class GuardConfig:
    """Supervision policy for every tenant of one service.

    Attributes:
        stall_timeout: seconds without a heartbeat before a live
            worker is declared stalled and replaced.
        watchdog_interval: supervisor scan cadence, seconds.
        backoff_base: first restart delay, seconds.
        backoff_max: restart delay ceiling, seconds.
        backoff_jitter: ± fraction of jitter applied to each delay
            (seeded — deterministic per tenant).
        breaker_threshold: consecutive failures that trip the breaker
            open.
        breaker_cooldown: seconds an open breaker waits before
            admitting one half-open probe restart.
        seed: entropy for the backoff jitter.
    """

    stall_timeout: float = 15.0
    watchdog_interval: float = 0.25
    backoff_base: float = 0.5
    backoff_max: float = 8.0
    backoff_jitter: float = 0.2
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.stall_timeout <= 0:
            raise ConfigurationError(
                f"stall_timeout must be positive, got {self.stall_timeout}"
            )
        if self.watchdog_interval <= 0:
            raise ConfigurationError(
                f"watchdog_interval must be positive, "
                f"got {self.watchdog_interval}"
            )
        if self.backoff_base <= 0 or self.backoff_max < self.backoff_base:
            raise ConfigurationError(
                f"backoff must satisfy 0 < base <= max, got "
                f"base={self.backoff_base} max={self.backoff_max}"
            )
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ConfigurationError(
                f"backoff_jitter must be in [0, 1), got {self.backoff_jitter}"
            )
        if self.breaker_threshold < 1:
            raise ConfigurationError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown < 0:
            raise ConfigurationError(
                f"breaker_cooldown must be >= 0, got {self.breaker_cooldown}"
            )


class RestartBackoff:
    """Bounded exponential backoff with seeded jitter.

    Deterministic in ``(config.seed, salt)`` — two services with the
    same plan produce the same delay sequence, so chaos tests can
    assert recovery-time bounds instead of racing randomness.
    """

    def __init__(self, config: GuardConfig, salt: int = 0) -> None:
        self._config = config
        self._rng = random.Random((config.seed << 16) ^ salt)
        self._attempt = 0

    @property
    def attempt(self) -> int:
        """Restart attempts since the last :meth:`reset`."""
        return self._attempt

    def next_delay(self) -> float:
        """The delay before the next restart attempt, seconds."""
        config = self._config
        base = min(
            config.backoff_base * (2.0 ** self._attempt), config.backoff_max
        )
        self._attempt += 1
        if config.backoff_jitter == 0.0:
            return base
        spread = config.backoff_jitter * (2.0 * self._rng.random() - 1.0)
        return base * (1.0 + spread)

    def reset(self) -> None:
        """A successful recovery re-arms the sequence from the base."""
        self._attempt = 0


class CircuitBreaker:
    """Closed → open → half-open per-tenant restart gate.

    Closed: every failure is retried (after backoff).  After
    ``breaker_threshold`` *consecutive* failures the breaker opens:
    restarts stop and the tenant serves degraded.  After
    ``breaker_cooldown`` seconds one half-open probe restart is
    admitted; its success closes the breaker (and resets the count),
    its failure re-opens the cooldown clock.
    """

    def __init__(self, config: GuardConfig) -> None:
        self._config = config
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self._opened_at: Optional[float] = None

    def record_failure(self, now: float) -> str:
        """Fold in one ingest failure; returns the new state."""
        self.consecutive_failures += 1
        if self.state == BREAKER_HALF_OPEN:
            # The probe itself failed: straight back to open.
            self.state = BREAKER_OPEN
            self._opened_at = now
        elif (
            self.state == BREAKER_CLOSED
            and self.consecutive_failures >= self._config.breaker_threshold
        ):
            self.state = BREAKER_OPEN
            self._opened_at = now
        return self.state

    def allow_restart(self, now: float) -> bool:
        """May a restart be attempted now?  (May move open → half-open.)"""
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_HALF_OPEN:
            # One probe at a time; it is already running.
            return False
        assert self._opened_at is not None
        if now - self._opened_at >= self._config.breaker_cooldown:
            self.state = BREAKER_HALF_OPEN
            return True
        return False

    def record_success(self, now: float) -> None:
        """A recovered ingest closes the breaker and clears the count."""
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self._opened_at = None


class TenantWorker:
    """One tenant's ingest loop on a daemon thread.

    The worker polls ``runtime.poll_once()`` on ``poll_interval``,
    checkpoints on ``checkpoint_interval``, and bumps its heartbeat
    after every completed cycle.  Any exception out of the poll (an
    injected kill, a :class:`~repro.stream.follow.FollowerReadError`,
    a genuine bug) records the failure and ends the thread — detection
    and replacement are the supervisor's job, not the worker's.
    """

    def __init__(
        self,
        runtime,
        poll_interval: float,
        checkpoint_interval: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.runtime = runtime
        self._poll_interval = poll_interval
        self._checkpoint_interval = checkpoint_interval
        self._clock = clock
        self.stop_event = threading.Event()
        self.heartbeat = clock()
        self.started_at = self.heartbeat
        self.failure: Optional[BaseException] = None
        self.polls_completed = 0
        self.thread = threading.Thread(
            target=self._loop,
            name=f"tenant-ingest-{runtime.name}",
            daemon=True,
        )

    def start(self) -> None:
        """Launch the ingest thread."""
        self.thread.start()

    def stop(self) -> None:
        """Ask the loop to exit; a wedged poll is simply abandoned."""
        self.stop_event.set()

    @property
    def alive(self) -> bool:
        return self.thread.is_alive()

    def _loop(self) -> None:
        last_checkpoint = self._clock()
        while not self.stop_event.is_set():
            try:
                self.runtime.poll_once()
            except BaseException as exc:  # noqa: BLE001 - supervisor's feed
                self.failure = exc
                self.runtime.note_worker_failure(exc)
                return
            self.polls_completed += 1
            self.heartbeat = self._clock()
            now = self.heartbeat
            if now - last_checkpoint >= self._checkpoint_interval:
                # A stall replacement sets stop_event before starting
                # the successor, so a checkpoint from a superseded
                # generation is refused here rather than overwriting
                # the successor's newer state.
                if self.stop_event.is_set():
                    return
                try:
                    self.runtime.checkpoint()
                except BaseException as exc:  # noqa: BLE001
                    self.failure = exc
                    self.runtime.note_worker_failure(exc)
                    return
                last_checkpoint = self._clock()
            self.stop_event.wait(self._poll_interval)


class IngestSupervisor:
    """The watchdog: scans tenant workers, replaces the dead/stalled.

    Args:
        runtimes: the tenant runtimes to supervise (each must provide
            ``name``, ``poll_once``, ``checkpoint``, ``rebuild``,
            ``mark_down``/``mark_up``, ``record_downtime_freshness``,
            and the current core's ``core.ingest.lines_read``).
        config: the shared :class:`GuardConfig`.
        poll_interval / checkpoint_interval: worker cadence.
        registry: metric sink for the guard families.
        logger: optional structured logger for restart events.
    """

    def __init__(
        self,
        runtimes: List,
        config: GuardConfig,
        poll_interval: float,
        checkpoint_interval: float,
        registry: Optional[MetricsRegistry] = None,
        logger=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._config = config
        self._poll_interval = poll_interval
        self._checkpoint_interval = checkpoint_interval
        self._clock = clock
        self._logger = logger if logger is not None and logger.enabled else None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

        reg = registry if registry is not None else MetricsRegistry(enabled=False)
        self._restarts = reg.counter(
            "tenant_ingest_restarts_total",
            "supervised ingest restarts, by tenant and failure kind",
            labels=("tenant", "reason"),
        )
        self._breaker_gauge = reg.gauge(
            "tenant_breaker_state",
            "per-tenant circuit breaker (0 closed, 1 half-open, 2 open)",
            labels=("tenant",),
        )
        self._recovery_hist = reg.histogram(
            "tenant_ingest_recovery_seconds",
            "detect-to-first-successful-poll recovery time",
            labels=("tenant",),
            domain="host",
        )

        self._workers: Dict[str, TenantWorker] = {}
        self._backoffs: Dict[str, RestartBackoff] = {}
        self.breakers: Dict[str, CircuitBreaker] = {}
        #: tenant -> (reason, detect time) while a heal is in progress.
        self._pending: Dict[str, tuple] = {}
        #: tenant -> monotonic time before which no restart may start.
        self._restart_after: Dict[str, float] = {}
        #: tenant -> (lines read, when that count was first seen).
        self._progress: Dict[str, tuple] = {}
        #: tenant -> completed recoveries [{reason, seconds, attempts}].
        self.recoveries: Dict[str, List[Dict[str, object]]] = {}
        self.restart_counts: Dict[str, Dict[str, int]] = {}
        self._runtimes = {runtime.name: runtime for runtime in runtimes}
        for index, name in enumerate(sorted(self._runtimes)):
            self._backoffs[name] = RestartBackoff(config, salt=index + 1)
            self.breakers[name] = CircuitBreaker(config)
            self.recoveries[name] = []
            self.restart_counts[name] = {}
            self._breaker_gauge.labels(tenant=name).set(0.0)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn one worker per tenant plus the watchdog thread."""
        for name, runtime in self._runtimes.items():
            self._spawn_worker(name, runtime)
        self._thread = threading.Thread(
            target=self._watch, name="ingest-watchdog", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the watchdog and every worker; join what will join."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        for worker in self._workers.values():
            worker.stop()
        for worker in self._workers.values():
            worker.thread.join(timeout=2.0)

    def _spawn_worker(self, name: str, runtime) -> None:
        worker = TenantWorker(
            runtime,
            self._poll_interval,
            self._checkpoint_interval,
            clock=self._clock,
        )
        self._workers[name] = worker
        worker.start()

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------

    def _note_failure(self, name: str, runtime, reason: str) -> None:
        now = self._clock()
        breaker = self.breakers[name]
        state = breaker.record_failure(now)
        self._breaker_gauge.labels(tenant=name).set(_BREAKER_GAUGE[state])
        counts = self.restart_counts[name]
        counts[reason] = counts.get(reason, 0) + 1
        if name not in self._pending:
            self._pending[name] = (reason, now)
        runtime.mark_down(reason, breaker.state)
        delay = self._backoffs[name].next_delay()
        self._restart_after[name] = now + delay
        if self._logger is not None:
            self._logger.event(
                "tenant_ingest_failure",
                level="warning",
                tenant=name,
                reason=reason,
                breaker=breaker.state,
                restart_delay_seconds=round(delay, 3),
            )

    def _last_beat(
        self, name: str, runtime, worker: TenantWorker, now: float
    ) -> float:
        """The later of the last completed poll and the last line read.

        Lines are read off the tenant's *current* core, so an abandoned
        zombie still ingesting into its orphaned core beats for nobody.
        """
        lines = runtime.core.ingest.lines_read
        seen = self._progress.get(name)
        if seen is None or seen[0] != lines:
            seen = self._progress[name] = (lines, now)
        return max(worker.heartbeat, seen[1])

    def _scan_once(self) -> None:
        now = self._clock()
        for name, runtime in self._runtimes.items():
            worker = self._workers.get(name)
            if worker is None:
                continue
            healing = name in self._pending
            if not healing:
                if not worker.alive:
                    self._restarts.labels(tenant=name, reason="crash").inc()
                    self._note_failure(name, runtime, "crash")
                elif (
                    now - self._last_beat(name, runtime, worker, now)
                    >= self._config.stall_timeout
                ):
                    # Alive but silent: abandon the generation.  The
                    # zombie thread keeps whatever it is wedged on; the
                    # rebuild gives readers a fresh core.
                    worker.stop()
                    self._restarts.labels(tenant=name, reason="stall").inc()
                    self._note_failure(name, runtime, "stall")
                else:
                    runtime.record_freshness_heartbeat()
                continue
            # A heal is pending: wait out backoff + breaker, then probe.
            reason, detected_at = self._pending[name]
            if not worker.alive or worker.stop_event.is_set():
                if now < self._restart_after.get(name, 0.0):
                    runtime.record_downtime_freshness()
                    continue
                breaker = self.breakers[name]
                if not breaker.allow_restart(now):
                    self._breaker_gauge.labels(tenant=name).set(
                        _BREAKER_GAUGE[breaker.state]
                    )
                    runtime.record_downtime_freshness()
                    continue
                self._breaker_gauge.labels(tenant=name).set(
                    _BREAKER_GAUGE[breaker.state]
                )
                runtime.rebuild()
                self._spawn_worker(name, runtime)
                worker = self._workers[name]
            # Replacement running: has it proven itself?
            if worker.alive and worker.polls_completed > 0:
                recovery = now - detected_at
                breaker = self.breakers[name]
                breaker.record_success(now)
                self._breaker_gauge.labels(tenant=name).set(0.0)
                attempts = self._backoffs[name].attempt
                self._backoffs[name].reset()
                del self._pending[name]
                self._restart_after.pop(name, None)
                self.recoveries[name].append(
                    {
                        "reason": reason,
                        "seconds": recovery,
                        "attempts": attempts,
                    }
                )
                self._recovery_hist.labels(tenant=name).observe(recovery)
                runtime.mark_up()
                if self._logger is not None:
                    self._logger.event(
                        "tenant_ingest_recovered",
                        level="info",
                        tenant=name,
                        reason=reason,
                        recovery_seconds=round(recovery, 3),
                        attempts=attempts,
                    )
            elif not worker.alive and worker.failure is not None:
                # The probe died: another failure cycle.
                self._restarts.labels(tenant=name, reason="crash").inc()
                self._note_failure(name, runtime, "crash")

    def _watch(self) -> None:
        while not self._stop.is_set():
            try:
                self._scan_once()
            except Exception:  # noqa: BLE001 - the watchdog must not die
                pass
            self._stop.wait(self._config.watchdog_interval)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Per-tenant guard state for ``/healthz``."""
        out: Dict[str, object] = {}
        for name in sorted(self._runtimes):
            worker = self._workers.get(name)
            breaker = self.breakers[name]
            recoveries = self.recoveries[name]
            out[name] = {
                "healing": name in self._pending,
                "worker_alive": bool(worker is not None and worker.alive),
                "breaker": breaker.state,
                "consecutive_failures": breaker.consecutive_failures,
                "restarts": dict(self.restart_counts[name]),
                "recoveries": [dict(r) for r in recoveries],
                "last_recovery_seconds": (
                    recoveries[-1]["seconds"] if recoveries else None
                ),
            }
        return out
