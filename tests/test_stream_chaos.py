"""Service-chaos harness tests: every fault class injected and healed.

These are the end-to-end companions to ``tests/test_stream_guard.py``:
a real two-tenant service over a tiny corpus, real worker threads, and
the :class:`~repro.stream.chaos.ChaosController` driving faults through
the genuine failure paths — then assertions that the supervisor
detected, counted, and healed each one, and that the healthy co-tenant
never noticed.
"""

import threading
import time

import pytest

from repro.core.exceptions import ConfigurationError
from repro.stream import (
    CHAOS_KINDS,
    ChaosController,
    ChaosEvent,
    GuardConfig,
    MultiTenantService,
    StreamIngest,
    TenantSpec,
    build_chaos_plan,
)
from repro.stream.chaos import CORRUPT_CHECKPOINT, IO_ERROR, KILL_INGEST
from repro.stream.ingest import CHECKPOINT_FILE

LINE = "2022-01-{day:02d}T00:00:{sec:02d}.000000 gpua001 kernel: ok\n"


def make_corpus(root, days=1, lines_per_day=3):
    """A minimal artifact dir: a few parseable syslog lines, no errors."""
    syslog = root / "syslog"
    syslog.mkdir(parents=True)
    for day in range(1, days + 1):
        path = syslog / f"syslog-2022-01-{day:02d}.log"
        path.write_text(
            "".join(
                LINE.format(day=day, sec=sec) for sec in range(lines_per_day)
            )
        )
    return root


def wait_until(predicate, timeout=20.0, interval=0.02):
    """Poll ``predicate`` until true or ``timeout`` elapses."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


FAST_GUARD = GuardConfig(
    stall_timeout=30.0,
    watchdog_interval=0.02,
    backoff_base=0.02,
    backoff_max=0.1,
    backoff_jitter=0.0,
    breaker_threshold=5,
    breaker_cooldown=1.0,
    seed=1,
)


class TestChaosPlan:
    def test_deterministic_in_seed(self):
        a = build_chaos_plan(["x", "y"], seed=9, horizon_seconds=5.0)
        b = build_chaos_plan(["x", "y"], seed=9, horizon_seconds=5.0)
        assert a == b
        c = build_chaos_plan(["x", "y"], seed=10, horizon_seconds=5.0)
        assert a != c

    def test_round_robin_victims_and_sorted(self):
        plan = build_chaos_plan(
            ["x", "y"], seed=0, kills=2, corruptions=2, io_errors=2
        )
        assert len(plan) == 6
        # Victims alternate in kind order, so both tenants get faults.
        assert {event.tenant for event in plan} == {"x", "y"}
        times = [event.at_seconds for event in plan]
        assert times == sorted(times)
        assert all(event.kind in CHAOS_KINDS for event in plan)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            build_chaos_plan([], seed=0)
        with pytest.raises(ConfigurationError):
            build_chaos_plan(["x"], seed=0, horizon_seconds=0.0)
        with pytest.raises(ConfigurationError):
            ChaosEvent(at_seconds=1.0, kind="meteor", tenant="x")
        with pytest.raises(ConfigurationError):
            ChaosEvent(at_seconds=-1.0, kind=KILL_INGEST, tenant="x")


class TestControllerWiring:
    def test_start_before_attach_raises(self):
        controller = ChaosController([])
        with pytest.raises(ConfigurationError):
            controller.start()

    def test_attach_rejects_unknown_tenant(self, tmp_path):
        corpus = make_corpus(tmp_path / "corpus")
        plan = [ChaosEvent(0.0, KILL_INGEST, "nobody")]
        with pytest.raises(ConfigurationError):
            MultiTenantService(
                [TenantSpec(name="alpha", follow_dir=corpus)],
                port=None,
                chaos=ChaosController(plan),
            )

    def test_snapshot_shape(self):
        controller = ChaosController(
            [ChaosEvent(1.0, KILL_INGEST, "alpha")]
        )
        snap = controller.snapshot()
        assert snap["planned"][0]["kind"] == KILL_INGEST
        assert snap["applied"] == []
        assert snap["exhausted"] is False
        assert controller.exhausted is False


class ServiceUnderChaos:
    """A live two-tenant service with a chaos plan, on a thread."""

    def __init__(self, tmp_path, plan):
        corpus = make_corpus(tmp_path / "corpus", days=2)
        self.service = MultiTenantService(
            [
                TenantSpec(
                    name=name,
                    follow_dir=corpus,
                    checkpoint_dir=tmp_path / "ckpt" / name,
                )
                for name in ("alpha", "beta")
            ],
            port=None,
            poll_interval=0.05,
            checkpoint_interval=0.15,
            guard=FAST_GUARD,
            chaos=ChaosController(plan),
        )
        self.corpus = corpus
        self.thread = threading.Thread(
            target=self.service.run, kwargs={"install_signals": False}
        )

    def __enter__(self):
        self.thread.start()
        return self.service

    def __exit__(self, *exc):
        self.service.stop()
        self.thread.join(timeout=10.0)
        return False

    def runtime(self, name):
        for rt in self.service.runtimes:
            if rt.name == name:
                return rt
        raise KeyError(name)


@pytest.mark.parametrize("kind", [KILL_INGEST, IO_ERROR])
def test_fault_detected_and_healed(tmp_path, kind):
    plan = [ChaosEvent(0.3, kind, "alpha")]
    harness = ServiceUnderChaos(tmp_path, plan)
    with harness as service:
        assert wait_until(lambda: service.chaos.exhausted)
        assert wait_until(
            lambda: service.supervisor.recoveries["alpha"]
        ), service.supervisor.snapshot()
        recovery = service.supervisor.recoveries["alpha"][0]
        assert recovery["reason"] == "crash"
        assert recovery["seconds"] < 15.0
        assert service.supervisor.restart_counts["alpha"]["crash"] >= 1
        # The co-tenant never flinched.
        assert service.supervisor.restart_counts["beta"] == {}
        assert harness.runtime("beta").degraded is False
        # The healed tenant is back to serving fresh.
        assert wait_until(
            lambda: not harness.runtime("alpha").degraded
        )
        doc = service.health_snapshot()
        assert doc["chaos"]["exhausted"] is True
        assert doc["chaos"]["applied"][0]["kind"] == kind
        assert doc["tenants"]["alpha"]["last_failure"] is not None


def test_torn_checkpoint_quarantined_and_healed(tmp_path):
    plan = [ChaosEvent(0.5, CORRUPT_CHECKPOINT, "alpha")]
    harness = ServiceUnderChaos(tmp_path, plan)
    with harness as service:
        alpha = harness.runtime("alpha")
        # Let a real checkpoint land first, so the chaos event tears an
        # actual file rather than inventing one.
        assert wait_until(lambda: alpha.checkpoint_path.exists())
        assert wait_until(lambda: service.chaos.exhausted)
        assert wait_until(lambda: service.supervisor.recoveries["alpha"])
        assert wait_until(lambda: alpha.quarantined_checkpoints)
        quarantine_dir = alpha.checkpoint_path.parent
        corrupt = sorted(
            quarantine_dir.glob(f"{CHECKPOINT_FILE}.corrupt-*")
        )
        assert corrupt, list(quarantine_dir.iterdir())
        assert wait_until(lambda: not alpha.degraded)
    # Post-heal identity: the scratch-rebuilt tenant, drained, matches
    # a fresh single pass over the same corpus.
    alpha.poll_once(final=True)
    reference = StreamIngest(harness.corpus / "syslog")
    reference.drain()
    expected = reference.result()
    result = alpha.core.ingest.result()
    assert result.errors == expected.errors
    assert result.health.lines_read == expected.health.lines_read


def test_applied_log_and_downtime_slo_feed(tmp_path):
    """Every applied event is logged; the outage feeds the SLO engine."""
    plan = [ChaosEvent(0.3, KILL_INGEST, "alpha")]
    harness = ServiceUnderChaos(tmp_path, plan)
    with harness as service:
        assert wait_until(lambda: service.supervisor.recoveries["alpha"])
        snap = service.chaos.snapshot()
        assert len(snap["applied"]) == 1
        entry = snap["applied"][0]
        assert entry["tenant"] == "alpha"
        assert entry["kind"] == KILL_INGEST
        assert "detail" in entry
        # The freshness objective for the victim saw samples (either
        # healthy-cadence ones or downtime staleness), proving the
        # outage path is wired into the SLO engine.
        slo = service.slo.snapshot(prefix="alpha:")
        freshness = [
            obj
            for obj in slo["objectives"]
            if obj["name"] == "alpha:ingest-freshness"
        ]
        assert freshness
