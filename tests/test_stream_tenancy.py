"""Multi-tenant service tests: isolation, routing, degraded serving.

Uses tiny hand-written syslog directories for the fast structural
tests and the shared ``small_run`` corpus for the once-mode
stream-vs-batch identity check.  Chaos-driven heal tests live in
``tests/test_stream_chaos.py``.
"""

import json
import threading
import time
from pathlib import Path

import pytest

from repro.core.exceptions import ConfigurationError
from repro.stream import (
    MultiTenantService,
    TenantRuntime,
    TenantSpec,
    parse_tenant_arg,
)
from repro.stream.ingest import CHECKPOINT_FILE
from repro.obs import MetricsRegistry

LINE = "2022-01-{day:02d}T00:00:{sec:02d}.000000 gpua001 kernel: ok\n"


def make_corpus(root: Path, days: int = 1, lines_per_day: int = 3) -> Path:
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


@pytest.fixture
def corpus(tmp_path):
    return make_corpus(tmp_path / "corpus")


def make_service(corpus, tmp_path, names=("alpha", "beta"), **kwargs):
    specs = [
        TenantSpec(
            name=name, follow_dir=corpus, checkpoint_dir=tmp_path / "ckpt" / name
        )
        for name in names
    ]
    kwargs.setdefault("port", None)
    return MultiTenantService(specs, **kwargs)


class TestParseTenantArg:
    def test_valid(self):
        name, path = parse_tenant_arg("alpha=/data/alpha")
        assert name == "alpha"
        assert path == Path("/data/alpha")

    @pytest.mark.parametrize(
        "value",
        ["alpha", "=dir", "alpha=", "bad name=dir", "-lead=dir", "a/b=dir"],
    )
    def test_invalid(self, value):
        with pytest.raises(ConfigurationError):
            parse_tenant_arg(value)


class TestTenantSpec:
    def test_bad_name_rejected(self):
        with pytest.raises(ConfigurationError):
            TenantSpec(name="no spaces", follow_dir=Path("/tmp"))

    def test_names_allow_dots_dashes(self):
        TenantSpec(name="cluster-a.prod_1", follow_dir=Path("/tmp"))


class TestServiceValidation:
    def test_requires_tenants(self):
        with pytest.raises(ConfigurationError):
            MultiTenantService([], port=None)

    def test_rejects_duplicate_names(self, corpus):
        specs = [
            TenantSpec(name="a", follow_dir=corpus),
            TenantSpec(name="a", follow_dir=corpus),
        ]
        with pytest.raises(ConfigurationError):
            MultiTenantService(specs, port=None)

    def test_rejects_bad_poll_interval(self, corpus):
        with pytest.raises(ConfigurationError):
            MultiTenantService(
                [TenantSpec(name="a", follow_dir=corpus)],
                port=None,
                poll_interval=0.0,
            )


class TestRoutingAndIsolation:
    def test_tenant_routes_registered(self, corpus, tmp_path):
        service = make_service(corpus, tmp_path, port=0)
        try:
            for name in ("alpha", "beta"):
                for stem in ("fleet", "alerts", "slo"):
                    status, _, _, _, _ = service.server.dispatch(
                        f"/v1/{name}/{stem}"
                    )
                    assert status == 200, (name, stem)
            status, _, _, _, _ = service.server.dispatch("/v1/gamma/fleet")
            assert status == 404
        finally:
            service.server.stop()

    def test_cores_are_shared_nothing(self, corpus, tmp_path):
        service = make_service(corpus, tmp_path)
        alpha, beta = service.runtimes
        assert alpha.core is not beta.core
        assert alpha.core.ingest is not beta.core.ingest
        assert alpha.core.lock is not beta.core.lock
        alpha.poll_once()
        assert alpha.core.ingest.lines_read > 0
        assert beta.core.ingest.lines_read == 0

    def test_per_tenant_slo_prefix(self, corpus, tmp_path):
        service = make_service(corpus, tmp_path)
        snapshot = service._tenant_slo_snapshot("alpha")()
        names = [obj["name"] for obj in snapshot["objectives"]]
        assert names
        assert all(name.startswith("alpha:") for name in names)
        full = service.slo_snapshot()
        all_names = {obj["name"] for obj in full["objectives"]}
        assert any(name.startswith("beta:") for name in all_names)

    def test_per_tenant_checkpoint_layout(self, corpus, tmp_path):
        service = make_service(corpus, tmp_path)
        for rt in service.runtimes:
            rt.poll_once()
            rt.checkpoint()
        for name in ("alpha", "beta"):
            assert (tmp_path / "ckpt" / name / CHECKPOINT_FILE).exists()


class TestDegradedServing:
    def test_fresh_route_has_no_staleness_header(self, corpus, tmp_path):
        service = make_service(corpus, tmp_path)
        rt = service.runtimes[0]
        rt.poll_once()
        response = rt.fleet_route()
        assert len(response) == 2  # (content_type, body): healthy
        payload = json.loads(response[1])
        assert payload["stream"]["lines_read"] == 3

    def test_marked_down_serves_with_staleness_header(self, corpus, tmp_path):
        service = make_service(corpus, tmp_path)
        rt = service.runtimes[0]
        rt.poll_once()
        rt.mark_down("crash", "closed")
        content_type, body, headers = rt.fleet_route()
        assert "X-Fleet-Staleness-Seconds" in headers
        assert float(headers["X-Fleet-Staleness-Seconds"]) >= 0.0
        assert json.loads(body)["stream"]["lines_read"] == 3

    def test_wedged_core_serves_cached_body(self, corpus, tmp_path):
        """Lock held elsewhere: the handler falls back to last-good."""
        service = make_service(corpus, tmp_path)
        rt = service.runtimes[0]
        rt.poll_once()
        fresh = rt.fleet_route()
        assert len(fresh) == 2
        rt.core.lock.acquire()
        try:
            content_type, body, headers = rt.fleet_route()
        finally:
            rt.core.lock.release()
        assert body == fresh[1]
        assert "X-Fleet-Staleness-Seconds" in headers

    def test_wedged_core_with_no_cache_still_answers(self, corpus, tmp_path):
        service = make_service(corpus, tmp_path)
        rt = service.runtimes[0]
        rt.core.lock.acquire()
        try:
            _, body, headers = rt.fleet_route()
        finally:
            rt.core.lock.release()
        payload = json.loads(body)
        assert payload["degraded"] is True
        assert "X-Fleet-Staleness-Seconds" in headers

    def test_health_snapshot_rolls_up_degraded(self, corpus, tmp_path):
        service = make_service(corpus, tmp_path)
        doc = service.health_snapshot()
        assert doc["status"] == "ok"
        assert doc["degraded"] is False
        assert set(doc["tenants"]) == {"alpha", "beta"}
        service.runtimes[0].mark_down("stall", "open")
        doc = service.health_snapshot()
        assert doc["status"] == "degraded"
        assert doc["tenants"]["alpha"]["degraded"] is True
        assert doc["tenants"]["alpha"]["breaker"] == "open"
        assert doc["tenants"]["beta"]["degraded"] is False

    def test_health_reports_the_last_completed_poll(self, corpus, tmp_path):
        service = make_service(corpus, tmp_path, names=("alpha",))
        rt = service.runtimes[0]
        # Lines read by a poll that has not finished are not reported.
        rt.core.ingest.poll()
        assert rt.core.ingest.lines_read == 3
        entry = service.health_snapshot()["tenants"]["alpha"]
        assert entry["lines_read"] == 0
        assert entry["days_followed"] == 0
        rt.poll_once()
        entry = service.health_snapshot()["tenants"]["alpha"]
        assert entry["lines_read"] == 3
        assert entry["days_followed"] == 1


class TestCoreSwap:
    def test_rebuild_swaps_generation(self, corpus, tmp_path):
        service = make_service(corpus, tmp_path)
        rt = service.runtimes[0]
        rt.poll_once()
        rt.checkpoint()
        old = rt.core
        rt.rebuild()
        assert rt.core is not old
        assert rt.core.generation == old.generation + 1
        # The rebuilt core resumed from the checkpoint: same progress.
        assert rt.core.ingest.lines_read == old.ingest.lines_read

    def test_stale_generation_checkpoint_refused(self, corpus, tmp_path):
        """A checkpoint racing a rebuild must not clobber the successor.

        The checkpointer captures the old core, blocks on its lock
        while the supervisor swaps in a new generation, and on waking
        must notice it was superseded and refuse to write.
        """
        service = make_service(corpus, tmp_path)
        rt = service.runtimes[0]
        rt.poll_once()
        old_core = rt.core
        entered = threading.Event()
        results = []

        def checkpoint_on_old_gen():
            entered.set()
            results.append(rt.checkpoint())

        old_core.lock.acquire()
        try:
            worker = threading.Thread(target=checkpoint_on_old_gen)
            worker.start()
            assert entered.wait(timeout=5.0)
            # Give the checkpointer a beat to capture self.core and
            # block on the (held) old-core lock, then swap under it.
            time.sleep(0.2)
            rt.rebuild()
        finally:
            old_core.lock.release()
        worker.join(timeout=5.0)
        assert results == [None]
        assert not rt.checkpoint_path.exists()

    def test_quarantine_on_damaged_resume(self, corpus, tmp_path):
        ckpt = tmp_path / "ckpt" / "alpha"
        ckpt.mkdir(parents=True)
        (ckpt / CHECKPOINT_FILE).write_bytes(b'{"version": 1, "foll')
        registry = MetricsRegistry(enabled=True)
        rt = TenantRuntime(
            TenantSpec(name="alpha", follow_dir=corpus, checkpoint_dir=ckpt),
            registry=registry,
            resume=True,
        )
        assert len(rt.quarantined_checkpoints) == 1
        quarantined = Path(rt.quarantined_checkpoints[0])
        assert quarantined.name == f"{CHECKPOINT_FILE}.corrupt-1"
        assert quarantined.exists()
        assert not (ckpt / CHECKPOINT_FILE).exists()
        # The fresh core starts from scratch and can ingest.
        rt.poll_once()
        assert rt.core.ingest.lines_read == 3


class TestOnceModeIdentity:
    def test_drain_matches_single_stream_pass(self, small_run, tmp_path):
        """Two tenants over the same corpus both match a direct drain."""
        from repro.stream import StreamIngest
        from repro.cluster.inventory import Inventory

        artifacts, batch = small_run
        artifact_dir = artifacts.output_dir
        service = make_service(
            artifact_dir, tmp_path, names=("a", "b"), once=True
        )
        assert service.run(install_signals=False) == 0
        inventory = Inventory.load(artifact_dir / "inventory.json")
        reference = StreamIngest(
            artifact_dir / "syslog", inventory=inventory
        )
        reference.drain()
        expected = reference.result()
        for rt in service.runtimes:
            result = rt.core.ingest.result()
            assert rt.core.ingest.drained
            assert result.errors == expected.errors
            assert result.downtime == expected.downtime
            assert (
                result.health.lines_read == expected.health.lines_read
            )
        # And the batch pipeline agrees on the error stream.
        assert expected.errors == batch.errors
