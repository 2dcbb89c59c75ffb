"""Supervision-layer unit tests: backoff, breaker, watchdog heals.

These run against duck-typed fake runtimes, so they exercise the
supervisor's detection/restart/recovery state machine in milliseconds
without building any ingest state.  The end-to-end variants — real
tenants, real checkpoints, real faults — live in
``tests/test_stream_chaos.py``.
"""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.exceptions import ConfigurationError
from repro.stream import (
    CircuitBreaker,
    GuardConfig,
    IngestSupervisor,
    RestartBackoff,
)
from repro.stream.guard import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    TenantWorker,
)


def wait_until(predicate, timeout=5.0, interval=0.01):
    """Poll ``predicate`` until true or ``timeout`` elapses."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class FakeRuntime:
    """Duck-typed stand-in for TenantRuntime: scriptable failures."""

    def __init__(self, name, fail_polls=0):
        self.name = name
        self.fail_polls = fail_polls
        self.block_event = None
        #: seconds the next poll spends ingesting, reading a line every
        #: 20 ms (a backlog replay).
        self.ingest_seconds = 0.0
        self.polls = 0
        # The watchdog reads the current core's line count as progress.
        self.core = SimpleNamespace(ingest=SimpleNamespace(lines_read=0))
        self.rebuilds = 0
        self.mark_downs = []
        self.mark_ups = 0
        self.downtime_ticks = 0
        self.heartbeat_ticks = 0
        self.checkpoints = 0
        self.failures = []

    def poll_once(self, final=False):
        self.polls += 1
        if self.block_event is not None:
            event, self.block_event = self.block_event, None
            event.wait()
        if self.ingest_seconds:
            deadline = time.monotonic() + self.ingest_seconds
            self.ingest_seconds = 0.0
            while time.monotonic() < deadline:
                self.core.ingest.lines_read += 1
                time.sleep(0.02)
        if self.fail_polls > 0:
            self.fail_polls -= 1
            raise RuntimeError("scripted poll failure")
        return 0

    def checkpoint(self):
        self.checkpoints += 1

    def rebuild(self):
        self.rebuilds += 1

    def note_worker_failure(self, exc):
        self.failures.append(exc)

    def mark_down(self, reason, breaker_state):
        self.mark_downs.append((reason, breaker_state))

    def mark_up(self):
        self.mark_ups += 1

    def record_downtime_freshness(self):
        self.downtime_ticks += 1

    def record_freshness_heartbeat(self):
        self.heartbeat_ticks += 1


FAST = GuardConfig(
    stall_timeout=0.4,
    watchdog_interval=0.02,
    backoff_base=0.02,
    backoff_max=0.08,
    backoff_jitter=0.0,
    breaker_threshold=3,
    breaker_cooldown=0.2,
    seed=7,
)


class TestGuardConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stall_timeout": 0.0},
            {"stall_timeout": -1.0},
            {"watchdog_interval": 0.0},
            {"backoff_base": 0.0},
            {"backoff_base": 2.0, "backoff_max": 1.0},
            {"backoff_jitter": 1.0},
            {"backoff_jitter": -0.1},
            {"breaker_threshold": 0},
            {"breaker_cooldown": -1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            GuardConfig(**kwargs)

    def test_defaults_valid(self):
        config = GuardConfig()
        assert config.stall_timeout > 0
        assert config.backoff_base <= config.backoff_max


class TestRestartBackoff:
    def test_deterministic_in_seed_and_salt(self):
        config = GuardConfig(seed=11, backoff_jitter=0.2)
        a = [RestartBackoff(config, salt=3).next_delay() for _ in range(1)]
        first = RestartBackoff(config, salt=3)
        second = RestartBackoff(config, salt=3)
        assert [first.next_delay() for _ in range(6)] == [
            second.next_delay() for _ in range(6)
        ]
        # A different salt (another tenant) gets a different sequence.
        other = RestartBackoff(config, salt=4)
        assert [other.next_delay() for _ in range(6)] != a + [
            first.next_delay() for _ in range(5)
        ]

    def test_exponential_growth_and_ceiling(self):
        config = GuardConfig(
            backoff_base=0.5, backoff_max=4.0, backoff_jitter=0.0
        )
        backoff = RestartBackoff(config)
        assert [backoff.next_delay() for _ in range(6)] == [
            0.5,
            1.0,
            2.0,
            4.0,
            4.0,
            4.0,
        ]

    def test_jitter_is_bounded(self):
        config = GuardConfig(
            backoff_base=1.0, backoff_max=1.0, backoff_jitter=0.25, seed=5
        )
        backoff = RestartBackoff(config)
        for _ in range(50):
            delay = backoff.next_delay()
            assert 0.75 <= delay <= 1.25

    def test_reset_rearms_from_base(self):
        config = GuardConfig(
            backoff_base=0.5, backoff_max=8.0, backoff_jitter=0.0
        )
        backoff = RestartBackoff(config)
        backoff.next_delay()
        backoff.next_delay()
        assert backoff.attempt == 2
        backoff.reset()
        assert backoff.attempt == 0
        assert backoff.next_delay() == 0.5


class TestCircuitBreaker:
    def test_stays_closed_under_threshold(self):
        breaker = CircuitBreaker(GuardConfig(breaker_threshold=3))
        assert breaker.record_failure(0.0) == BREAKER_CLOSED
        assert breaker.record_failure(1.0) == BREAKER_CLOSED
        assert breaker.allow_restart(1.0) is True

    def test_opens_at_threshold_and_blocks_restarts(self):
        breaker = CircuitBreaker(
            GuardConfig(breaker_threshold=2, breaker_cooldown=100.0)
        )
        breaker.record_failure(0.0)
        assert breaker.record_failure(1.0) == BREAKER_OPEN
        assert breaker.allow_restart(2.0) is False
        assert breaker.allow_restart(50.0) is False

    def test_cooldown_admits_one_half_open_probe(self):
        breaker = CircuitBreaker(
            GuardConfig(breaker_threshold=1, breaker_cooldown=10.0)
        )
        breaker.record_failure(0.0)
        assert breaker.state == BREAKER_OPEN
        assert breaker.allow_restart(10.0) is True
        assert breaker.state == BREAKER_HALF_OPEN
        # Only one probe at a time.
        assert breaker.allow_restart(11.0) is False

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker(
            GuardConfig(breaker_threshold=1, breaker_cooldown=10.0)
        )
        breaker.record_failure(0.0)
        breaker.allow_restart(10.0)
        assert breaker.record_failure(11.0) == BREAKER_OPEN
        # The cooldown clock restarted at the probe failure.
        assert breaker.allow_restart(20.0) is False
        assert breaker.allow_restart(21.0) is True

    def test_probe_success_closes_and_clears(self):
        breaker = CircuitBreaker(
            GuardConfig(breaker_threshold=1, breaker_cooldown=10.0)
        )
        breaker.record_failure(0.0)
        breaker.allow_restart(10.0)
        breaker.record_success(11.0)
        assert breaker.state == BREAKER_CLOSED
        assert breaker.consecutive_failures == 0


class TestTenantWorker:
    def test_refuses_checkpoint_after_stop(self):
        """A superseded generation must not overwrite its successor."""
        runtime = FakeRuntime("a")
        worker = TenantWorker(
            runtime, poll_interval=0.01, checkpoint_interval=0.0
        )
        worker.stop()
        worker.start()
        worker.thread.join(timeout=2.0)
        assert runtime.checkpoints == 0

    def test_failure_recorded_and_thread_exits(self):
        runtime = FakeRuntime("a", fail_polls=1)
        worker = TenantWorker(
            runtime, poll_interval=0.01, checkpoint_interval=100.0
        )
        worker.start()
        assert wait_until(lambda: not worker.alive)
        assert isinstance(worker.failure, RuntimeError)
        assert runtime.failures


class TestSupervisorHeals:
    def _run_supervisor(self, runtimes, config=FAST, poll=0.01):
        supervisor = IngestSupervisor(
            runtimes, config, poll_interval=poll, checkpoint_interval=100.0
        )
        supervisor.start()
        return supervisor

    def test_crash_detected_rebuilt_and_recovered(self):
        runtime = FakeRuntime("alpha", fail_polls=1)
        supervisor = self._run_supervisor([runtime])
        try:
            assert wait_until(lambda: supervisor.recoveries["alpha"])
        finally:
            supervisor.stop()
        assert runtime.rebuilds == 1
        assert runtime.mark_downs and runtime.mark_downs[0][0] == "crash"
        assert runtime.mark_ups == 1
        recovery = supervisor.recoveries["alpha"][0]
        assert recovery["reason"] == "crash"
        assert recovery["seconds"] >= 0.0
        assert supervisor.restart_counts["alpha"]["crash"] == 1
        assert supervisor.breakers["alpha"].state == BREAKER_CLOSED
        snap = supervisor.snapshot()["alpha"]
        assert snap["healing"] is False
        assert snap["last_recovery_seconds"] is not None

    def test_stall_detected_and_replaced(self):
        """Alive-but-silent worker: abandoned, replaced, recovered."""
        release = threading.Event()
        runtime = FakeRuntime("alpha")
        runtime.block_event = release
        supervisor = self._run_supervisor([runtime])
        try:
            assert wait_until(
                lambda: supervisor.recoveries["alpha"], timeout=10.0
            )
        finally:
            supervisor.stop()
            release.set()
        assert runtime.mark_downs[0][0] == "stall"
        assert supervisor.restart_counts["alpha"]["stall"] == 1
        assert runtime.rebuilds == 1

    def test_long_poll_still_reading_is_not_a_stall(self):
        """A backlog poll outlives stall_timeout but keeps reading lines."""
        runtime = FakeRuntime("alpha")
        runtime.ingest_seconds = 3 * FAST.stall_timeout
        supervisor = self._run_supervisor([runtime])
        try:
            # A second poll starts only once the long one completed.
            assert wait_until(lambda: runtime.polls >= 2, timeout=10.0)
        finally:
            supervisor.stop()
        assert supervisor.restart_counts["alpha"] == {}
        assert runtime.mark_downs == []
        assert runtime.rebuilds == 0

    def test_persistent_failure_trips_breaker_open(self):
        config = GuardConfig(
            stall_timeout=5.0,
            watchdog_interval=0.02,
            backoff_base=0.01,
            backoff_max=0.02,
            backoff_jitter=0.0,
            breaker_threshold=2,
            breaker_cooldown=600.0,
        )
        runtime = FakeRuntime("alpha", fail_polls=10_000)
        supervisor = self._run_supervisor([runtime], config=config)
        try:
            assert wait_until(
                lambda: supervisor.breakers["alpha"].state == BREAKER_OPEN
            )
            # While open with a long cooldown, restarts stop: downtime
            # ticks keep accruing but no recovery ever lands.
            ticks = runtime.downtime_ticks
            assert wait_until(
                lambda: runtime.downtime_ticks > ticks, timeout=2.0
            )
            assert not supervisor.recoveries["alpha"]
        finally:
            supervisor.stop()
        snap = supervisor.snapshot()["alpha"]
        assert snap["breaker"] == BREAKER_OPEN
        assert snap["healing"] is True

    def test_healthy_co_tenant_untouched_by_sick_one(self):
        sick = FakeRuntime("sick", fail_polls=1)
        healthy = FakeRuntime("healthy")
        supervisor = self._run_supervisor([sick, healthy])
        try:
            assert wait_until(lambda: supervisor.recoveries["sick"])
        finally:
            supervisor.stop()
        assert healthy.rebuilds == 0
        assert healthy.mark_downs == []
        assert supervisor.restart_counts["healthy"] == {}
        assert healthy.heartbeat_ticks > 0
