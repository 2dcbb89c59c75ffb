"""Unit tests for the live fleet-health service (repro.stream)."""

import gzip
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.periods import StudyWindow
from repro.core.records import ExtractedError
from repro.core.xid import EventClass
from repro.pipeline.coalesce import (
    StreamingCoalescer,
    WindowMode,
    coalesce,
)
from repro.pipeline.extract import ErrorHit
from repro.pipeline.shard import HitColumns
from repro.stream import (
    AlertEngine,
    AlertRule,
    DirectoryFollower,
    FleetEstimators,
    FleetHealthServer,
    MultiTenantService,
    StreamIngest,
    TenantSpec,
    json_route,
)
from repro.stream.follow import _CHUNK_BYTES, _line_cut
from repro.stream.ingest import CHECKPOINT_FILE
from repro.syslog.quarantine import (
    FILE_DUPLICATE_DAY,
    FILE_LATE_DAY,
    Quarantine,
)


def _split_lines(data: bytes):
    """Split handed-over bytes into lines by the universal-newline rule."""
    text = data.decode("utf-8", "replace")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _collect(seen):
    """A follower consumer appending every line it is handed to ``seen``."""

    def consume(data):
        if isinstance(data, Path):
            data = gzip.decompress(data.read_bytes())
        lines = _split_lines(data)
        seen.extend(lines)
        return len(lines)

    return consume


class TestSplitCompleteLines:
    """The follower's cut between complete lines and the carried tail."""

    def test_newline_terminated(self):
        buf = b"a\nbb\nccc"
        cut = _line_cut(buf)
        assert cut == 5
        assert _split_lines(buf[:cut]) == ["a", "bb"]
        assert buf[cut:] == b"ccc"

    def test_crlf_and_lone_cr(self):
        buf = b"a\r\nb\rc\n"
        cut = _line_cut(buf)
        assert cut == 7
        assert _split_lines(buf[:cut]) == ["a", "b", "c"]

    def test_trailing_cr_held_until_final(self):
        assert _line_cut(b"a\r") == 0
        assert _line_cut(b"a\r", final=True) == 2

    def test_consumed_bytes_cover_buffer(self):
        buf = b"one\r\ntwo\nthree\rfour"
        cut = _line_cut(buf)
        assert _split_lines(buf[:cut]) == ["one", "two", "three"]
        assert buf[cut:] == b"four"


def _write_day(path: Path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestDirectoryFollower:
    def test_incremental_appends_deliver_each_line_once(self, tmp_path):
        follower = DirectoryFollower(tmp_path)
        day = tmp_path / "syslog-2022-01-01.log"
        seen = []
        with open(day, "w") as fh:
            fh.write("alpha\nbet")
            fh.flush()
            follower.poll(_collect(seen))
            assert seen == ["alpha"]
            fh.write("a\ngamma\n")
            fh.flush()
            follower.poll(_collect(seen))
        assert seen == ["alpha", "beta", "gamma"]

    def test_rotation_finalizes_previous_day(self, tmp_path):
        follower = DirectoryFollower(tmp_path)
        (tmp_path / "syslog-2022-01-01.log").write_text("a\nunterminated")
        seen = []
        follower.poll(_collect(seen))
        assert seen == ["a"]  # tail waits for more bytes
        _write_day(tmp_path / "syslog-2022-01-02.log", ["b"])
        follower.poll(_collect(seen))
        assert seen == ["a", "unterminated", "b"]
        assert follower.stats.files_finalized == 1

    def test_final_drain_flushes_tail(self, tmp_path):
        follower = DirectoryFollower(tmp_path)
        (tmp_path / "syslog-2022-01-01.log").write_text("x\ny")
        seen = []
        follower.poll(_collect(seen), final=True)
        assert seen == ["x", "y"]

    def test_duplicate_day_single_incident(self, tmp_path):
        import gzip

        quarantine = Quarantine()
        follower = DirectoryFollower(tmp_path, quarantine)
        _write_day(tmp_path / "syslog-2022-01-01.log", ["plain"])
        with gzip.open(tmp_path / "syslog-2022-01-01.log.gz", "wt") as fh:
            fh.write("gzipped\n")
        seen = []
        follower.poll(_collect(seen), final=True)
        follower.poll(_collect(seen), final=True)
        assert seen == ["plain"]  # plain form wins
        assert quarantine.file_incidents[FILE_DUPLICATE_DAY] == 1

    def test_gz_first_then_plain_switches_to_plain(self, tmp_path):
        import gzip

        quarantine = Quarantine()
        follower = DirectoryFollower(tmp_path, quarantine)
        with gzip.open(tmp_path / "syslog-2022-01-01.log.gz", "wt") as fh:
            fh.write("gz form\n")
        seen = []
        follower.poll(_collect(seen))  # gz held: no successor day yet
        assert seen == []
        _write_day(tmp_path / "syslog-2022-01-01.log", ["plain form"])
        _write_day(tmp_path / "syslog-2022-01-02.log", ["next"])
        follower.poll(_collect(seen), final=True)
        assert seen == ["plain form", "next"]
        assert quarantine.file_incidents[FILE_DUPLICATE_DAY] == 1

    def test_late_day_skipped_with_incident(self, tmp_path):
        quarantine = Quarantine()
        follower = DirectoryFollower(tmp_path, quarantine)
        _write_day(tmp_path / "syslog-2022-01-05.log", ["now"])
        seen = []
        follower.poll(_collect(seen))
        _write_day(tmp_path / "syslog-2022-01-03.log", ["too late"])
        follower.poll(_collect(seen), final=True)
        assert "too late" not in seen
        assert quarantine.file_incidents[FILE_LATE_DAY] == 1
        assert follower.day_stems() == ["syslog-2022-01-05"]

    def test_state_restore_resumes_at_line_boundary(self, tmp_path):
        day = tmp_path / "syslog-2022-01-01.log"
        follower = DirectoryFollower(tmp_path)
        seen = []
        with open(day, "w") as fh:
            fh.write("one\ntwo\nthr")
            fh.flush()
            follower.poll(_collect(seen))
            resumed = DirectoryFollower.restore(tmp_path, follower.state())
            fh.write("ee\n")
            fh.flush()
        resumed.poll(_collect(seen), final=True)
        assert seen == ["one", "two", "three"]


class TestStreamIngest:
    def test_lines_read_moves_within_a_long_poll(self, tmp_path):
        line = "2022-01-01T00:00:00.000000 gpua001 kernel: filler\n"
        count = 2 * _CHUNK_BYTES // len(line) + 1
        (tmp_path / "syslog-2022-01-01.log").write_text(line * count)
        ingest = StreamIngest(tmp_path)
        progress = []
        # Called before every read: samples the count mid-poll.
        ingest.follower.read_fault = lambda name: progress.append(
            ingest.lines_read
        )
        assert ingest.poll().lines == count
        assert ingest.lines_read == count
        assert any(0 < n < count for n in progress)


def _hit(time, node="gpua001", gpu=0, cls=EventClass.MMU_ERROR, xid=31):
    return ErrorHit(
        time=time,
        node=node,
        gpu_index=gpu,
        pci_address="0000:07:00",
        event_class=cls,
        xid=xid,
    )


class TestStreamingCoalescer:
    def test_matches_batch_on_simple_sequence(self):
        hits = [_hit(0.0), _hit(10.0), _hit(45.0), _hit(100.0, node="gpua002")]
        streaming = StreamingCoalescer(30.0)
        for hit in hits:
            streaming.push(hit)
        streaming.drain()
        assert streaming.errors() == coalesce(hits, 30.0)

    def test_eviction_preserves_batch_order(self):
        # Two keys completing at the same first-occurrence time: batch
        # order depends on push/flush ranks, which eviction must keep.
        hits = [
            _hit(0.0, node="gpua001"),
            _hit(0.0, node="gpua002"),
            _hit(500.0, node="gpua001"),
            _hit(500.0, node="gpua002"),
        ]
        streaming = StreamingCoalescer(30.0)
        for hit in hits:
            streaming.push(hit)
            streaming.evict(hit.time)
        streaming.drain()
        assert streaming.errors() == coalesce(hits, 30.0)

    @pytest.mark.parametrize("mode", [WindowMode.TUMBLING, WindowMode.SLIDING])
    @pytest.mark.parametrize("seed", range(10))
    def test_property_streaming_equals_batch(self, seed, mode):
        rng = random.Random(seed)
        window = 30.0
        nodes = ["gpua001", "gpua002", "gpua003"]
        classes = [
            EventClass.MMU_ERROR,
            EventClass.DBE,
            EventClass.NVLINK_ERROR,
        ]
        time = 0.0
        hits = []
        for _ in range(200):
            # Quantized steps force equal-time ties and same-boundary
            # collisions — the adversarial cases for eviction ranks.
            time += rng.choice([0.0, window / 3, window / 3, window * 1.5])
            hits.append(
                _hit(
                    time,
                    node=rng.choice(nodes),
                    gpu=rng.choice([0, 1, None]),
                    cls=rng.choice(classes),
                )
            )
        streaming = StreamingCoalescer(window, mode)
        for i, hit in enumerate(hits):
            streaming.push(hit)
            streaming.evict(hit.time)
            if i % 37 == 0:  # checkpoint round-trips mid-stream
                streaming = StreamingCoalescer.from_state(streaming.to_state())
        streaming.drain()
        assert streaming.errors() == coalesce(hits, window, mode)

    def test_rejects_out_of_order_push(self):
        streaming = StreamingCoalescer(30.0)
        streaming.push(_hit(100.0))
        with pytest.raises(ValueError):
            streaming.push(_hit(50.0))

    def test_drain_is_idempotent(self):
        streaming = StreamingCoalescer(30.0)
        streaming.push(_hit(0.0))
        first = streaming.drain()
        assert len(first) == 1
        assert streaming.drain() == []

    @pytest.mark.parametrize("mode", [WindowMode.TUMBLING, WindowMode.SLIDING])
    @pytest.mark.parametrize("seed", range(6))
    def test_column_slices_with_eviction_equal_batch(self, seed, mode):
        # Each slice interns its own ids, as one ingest chunk does, so a
        # short-circuit carried from one call into the next would land
        # hits in the wrong (or an evicted) group.
        rng = random.Random(seed)
        window = 30.0
        time = 0.0
        hits = []
        for _ in range(300):
            time += rng.choice([0.0, 0.0, window / 4, window * 1.5])
            hits.append(
                _hit(
                    time,
                    node=rng.choice(["gpua001", "gpua002"]),
                    gpu=rng.choice([0, 1, None]),
                    cls=rng.choice([EventClass.MMU_ERROR, EventClass.DBE]),
                    xid=rng.choice([31, 48]),
                )
            )
        streaming = StreamingCoalescer(window, mode)
        pos = 0
        while pos < len(hits):
            end = min(len(hits), pos + rng.randint(1, 25))
            cols = HitColumns()
            for hit in hits[pos:end]:
                cols.append_hit(hit)
            streaming.push_columns(cols)
            streaming.evict(hits[end - 1].time)
            state = streaming.to_state()
            assert StreamingCoalescer.from_state(state).to_state() == state
            pos = end
        streaming.drain()
        assert streaming.errors() == coalesce(hits, window, mode)


def _error(time, node="gpua001", gpu=0, cls=EventClass.MMU_ERROR, xid=31):
    return ExtractedError(
        time=time,
        node=node,
        gpu_index=gpu,
        event_class=cls,
        xid=xid,
        raw_line_count=1,
    )


class TestFleetEstimators:
    def test_rolling_window_evicts_by_log_time(self):
        est = FleetEstimators(horizons=(3600.0,))
        est.observe_error(_error(0.0))
        est.observe_error(_error(1800.0))
        est.advance(1800.0)
        assert est.rolling[0].summary()["count"] == 2
        est.advance(3700.0)
        rolling = est.rolling[0].summary()
        assert rolling["count"] == 1
        assert rolling["system_mtbe_hours"] == 1.0

    def test_top_nodes_and_units(self):
        est = FleetEstimators()
        for _ in range(3):
            est.observe_error(_error(0.0, node="gpua002", gpu=1))
        est.observe_error(_error(0.0, node="gpua001"))
        assert est.top_nodes(1) == [("gpua002", 3)]
        assert est.top_units(1) == [("gpua002", 1, 3)]

    def test_snapshot_shape(self):
        est = FleetEstimators()
        est.observe_error(_error(10.0))
        est.advance(3600.0)
        snap = est.snapshot()
        assert snap["errors_total"] == 1
        assert snap["per_class"] == {"mmu_error": 1}
        assert snap["first_error_time"] == 10.0
        assert len(snap["rolling"]) == 3


class TestAlertEngine:
    def test_xid79_fires_once_and_rearms(self):
        engine = AlertEngine()
        engine.observe_error(_error(0.0, cls=EventClass.FALLEN_OFF_BUS, xid=79))
        fired = engine.evaluate(0.0)
        assert [a.rule for a in fired] == ["xid79_fallen_off_bus"]
        assert fired[0].severity == "critical"
        assert fired[0].node == "gpua001"
        # Latched: no refire while the condition still holds.
        assert engine.evaluate(3600.0) == []
        # Past the 24h horizon the window drains and the rule re-arms.
        assert engine.evaluate(90000.0) == []
        engine.observe_error(
            _error(100000.0, cls=EventClass.FALLEN_OFF_BUS, xid=79)
        )
        assert [a.rule for a in engine.evaluate(100000.0)] == [
            "xid79_fallen_off_bus"
        ]

    def test_node_burst_threshold(self):
        engine = AlertEngine()
        for i in range(4):
            engine.observe_error(_error(float(i)))
        assert engine.evaluate(4.0) == []
        engine.observe_error(_error(5.0))
        fired = engine.evaluate(5.0)
        assert [a.rule for a in fired] == ["node_error_burst"]
        assert fired[0].count == 5

    def test_custom_rule_scoping(self):
        rule = AlertRule(
            name="any_two_fleet",
            description="two errors fleet-wide",
            severity="warning",
            scope="fleet",
            threshold=2,
            horizon_seconds=3600.0,
        )
        engine = AlertEngine([rule])
        engine.observe_error(_error(0.0, node="gpua001"))
        engine.observe_error(_error(1.0, node="gpua009"))
        fired = engine.evaluate(1.0)
        assert [a.rule for a in fired] == ["any_two_fleet"]
        assert fired[0].node is None

    def test_history_and_snapshot(self):
        engine = AlertEngine()
        engine.observe_error(_error(0.0, cls=EventClass.FALLEN_OFF_BUS, xid=79))
        engine.evaluate(0.0)
        snap = engine.snapshot()
        assert snap["active"] == 1
        assert len(snap["history"]) == 1
        assert {r["name"] for r in snap["rules"]} >= {"xid79_fallen_off_bus"}


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.read().decode("utf-8")


class TestFleetHealthServer:
    def test_routes_and_404(self):
        server = FleetHealthServer(
            {"/ping": json_route(lambda: {"pong": True})}, port=0
        )
        server.start()
        try:
            status, body = _get(f"http://127.0.0.1:{server.port}/ping")
            assert status == 200
            assert json.loads(body) == {"pong": True}
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"http://127.0.0.1:{server.port}/nope")
            assert err.value.code == 404
        finally:
            server.stop()

    def test_request_id_header_and_head(self):
        server = FleetHealthServer(
            {"/ping": json_route(lambda: {"pong": True})}, port=0
        )
        server.start()
        try:
            url = f"http://127.0.0.1:{server.port}/ping"
            with urllib.request.urlopen(url, timeout=10) as resp:
                rid = resp.headers["X-Request-Id"]
                assert rid.startswith("req-")
            head = urllib.request.Request(url, method="HEAD")
            with urllib.request.urlopen(head, timeout=10) as resp:
                assert resp.status == 200
                body = resp.read()
                assert body == b""
                assert int(resp.headers["Content-Length"]) > 0
                assert resp.headers["X-Request-Id"] != rid
        finally:
            server.stop()


def _instrumented_server(routes, log_stream=None):
    """A socket-bound server wired to a live telemetry bundle."""
    from repro.obs import Telemetry
    from repro.stream.serve import RequestObservability

    telemetry = Telemetry.create(seed=1, log_stream=log_stream)
    obs = RequestObservability(
        registry=telemetry.metrics,
        tracer=telemetry.tracer,
        logger=telemetry.logger,
    )
    server = FleetHealthServer(routes, port=0, observability=obs)
    return server, telemetry


class TestRequestDispatch:
    """Socket-free tests through FleetHealthServer.dispatch."""

    def test_counts_latency_and_quantiles(self):
        server, telemetry = _instrumented_server(
            {"/ping": json_route(lambda: {"pong": True})}
        )
        try:
            for _ in range(3):
                status, content_type, body, rid, _hdrs = server.dispatch("/ping")
            assert status == 200
            assert rid == "req-00000003"
            reg = telemetry.metrics
            assert (
                reg.value(
                    "http_requests_total",
                    route="/ping", method="GET", status="200",
                )
                == 3
            )
            assert reg.value("http_request_duration_seconds", route="/ping") == 3
            digest = server.observability.quantile_snapshot()["/ping"]
            assert digest["count"] == 3
            assert digest["max"] > 0
        finally:
            server.stop()

    def test_unmatched_routes_share_one_label(self):
        from repro.stream.serve import UNMATCHED_ROUTE

        server, telemetry = _instrumented_server({})
        try:
            for path in ("/a", "/b?q=1", "/c"):
                status, _, body, rid, _hdrs = server.dispatch(path)
                assert status == 404
                assert json.loads(body)["request_id"] == rid
            assert (
                telemetry.metrics.value(
                    "http_requests_total",
                    route=UNMATCHED_ROUTE, method="GET", status="404",
                )
                == 3
            )
        finally:
            server.stop()

    def test_handler_exception_gives_generic_500(self):
        import io

        log = io.StringIO()

        def explode():
            raise ValueError("secret table name")

        server, telemetry = _instrumented_server(
            {"/boom": json_route(explode)}, log_stream=log
        )
        try:
            status, content_type, body, rid, _hdrs = server.dispatch("/boom")
            assert status == 500
            doc = json.loads(body)
            assert doc == {
                "error": "internal server error", "request_id": rid
            }
            assert "secret" not in body
            assert (
                telemetry.metrics.value(
                    "http_requests_errors_total", route="/boom"
                )
                == 1
            )
            # The real exception went to the structured log...
            record = json.loads(log.getvalue().splitlines()[0])
            assert record["event"] == "http_error"
            assert "secret table name" in record["exception"]
            assert record["request_id"] == rid
            # ...and the error request got a span (errors always sampled).
            spans = [
                s for s in telemetry.tracer.finished
                if s.name == "http-request"
            ]
            assert len(spans) == 1
            assert spans[0].attrs["status"] == 500
        finally:
            server.stop()

    def test_noop_path_still_serves(self):
        server = FleetHealthServer(
            {"/ping": json_route(lambda: {"pong": True})}, port=0
        )
        try:
            assert server.observability.active is False
            status, _, body, rid, _hdrs = server.dispatch("/ping")
            assert status == 200
            assert rid.startswith("req-")
            assert server.observability.quantile_snapshot() == {}
        finally:
            server.stop()


class _ExplodingWriter:
    """A wfile stand-in whose write raises like a gone client."""

    def __init__(self, exc_type):
        self.exc_type = exc_type

    def write(self, data):
        raise self.exc_type("client went away")

    def flush(self):
        """Match the file protocol; nothing to flush."""


class TestClientDisconnects:
    @pytest.mark.parametrize(
        "exc_type", [BrokenPipeError, ConnectionResetError]
    )
    def test_reply_swallows_disconnect(self, exc_type):
        server, telemetry = _instrumented_server(
            {"/ping": json_route(lambda: {"pong": True})}
        )
        try:
            handler = object.__new__(server.handler_class)
            handler.request_version = "HTTP/1.1"
            handler.requestline = "GET /ping HTTP/1.1"
            handler.close_connection = False
            handler.wfile = _ExplodingWriter(exc_type)
            handler._reply(200, "application/json", '{"pong": true}', "req-x")
            assert handler.close_connection is True
            assert (
                telemetry.metrics.value("http_client_disconnects_total") == 1
            )
            assert (
                telemetry.metrics.value("http_requests_errors_total") == 0
            )
        finally:
            server.stop()


@pytest.fixture(scope="module")
def stream_artifacts(tmp_path_factory):
    """A small finished artifact directory for service-level tests."""
    from repro import DeltaStudy, StudyConfig

    out = tmp_path_factory.mktemp("stream_cli") / "run"
    DeltaStudy(
        StudyConfig.small(
            seed=5, include_episode=True, job_scale=0.005, op_days=10
        )
    ).run(out)
    return out


@pytest.fixture(scope="module")
def stream_batch(stream_artifacts):
    """The batch Stage-II answer the drained service must reproduce."""
    from repro.pipeline import run_pipeline

    return run_pipeline(stream_artifacts, load_jobs=False)


def one_tenant(follow_dir, checkpoint_dir=None, **kwargs):
    """The ``repro stream --follow`` service: one tenant, ``default``."""
    spec = TenantSpec("default", follow_dir, checkpoint_dir=checkpoint_dir)
    return MultiTenantService([spec], **kwargs)


class TestStreamService:
    """The ``repro stream --follow`` service, driven in-process."""

    def test_endpoints_while_running(self, stream_artifacts, tmp_path):
        service = one_tenant(
            stream_artifacts,
            port=0,
            checkpoint_dir=tmp_path / "ckpt",
            poll_interval=0.05,
        )
        service.server.start()
        try:
            service.runtimes[0].poll_once()
            base = f"http://127.0.0.1:{service.server.port}"
            status, body = _get(base + "/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["tenants"]["default"]["lines_read"] > 0
            status, metrics = _get(base + "/metrics")
            assert "pipeline_lines_read_total" in metrics
            assert "tenant_watermark_seconds" in metrics
            status, fleet = _get(base + "/v1/fleet")
            fleet = json.loads(fleet)
            assert fleet["report"]["schema"] == "repro-fleet-v1"
            assert fleet["stream"]["drained"] is False
            status, alerts = _get(base + "/v1/alerts")
            assert "rules" in json.loads(alerts)
        finally:
            service.server.stop()

    def test_slo_endpoint_and_request_instrumentation(
        self, stream_artifacts, tmp_path
    ):
        service = one_tenant(
            stream_artifacts,
            port=0,
            checkpoint_dir=tmp_path / "ckpt",
            poll_interval=0.05,
        )
        try:
            service.runtimes[0].poll_once()
            service.runtimes[0].poll_once()  # second poll records freshness
            service.slo.evaluate()  # the follow loop's per-interval tick
            for _ in range(2):
                status, _, _, _, _hdrs = service.server.dispatch("/v1/fleet")
                assert status == 200
            status, _, body, _, _hdrs = service.server.dispatch("/v1/slo")
            assert status == 200
            doc = json.loads(body)
            assert doc["schema"] == "repro-slo-v1"
            by_name = {o["name"]: o for o in doc["objectives"]}
            assert by_name["default:fleet-availability"]["verdict"] == "pass"
            assert by_name["default:fleet-availability"]["good"] == 2
            assert by_name["default:ingest-freshness"]["events"] >= 1
            assert "/v1/fleet" in doc["request_latency"]
            # The new families reach /metrics (host domain included).
            status, _, metrics_body, _, _hdrs = service.server.dispatch("/metrics")
            assert "http_requests_total" in metrics_body
            assert "slo_compliance" in metrics_body
            assert "tenant_poll_duration_seconds" in metrics_body
            # ...and health reports the live latency digests.
            health = service.health_snapshot()
            assert health["slo_alerting"] == 0
            assert "/v1/fleet" in health["request_latency"]
        finally:
            service.server.stop()

    def test_fleet_snapshot_memoized_until_lines_move(self, stream_artifacts):
        service = one_tenant(stream_artifacts, port=None, once=True)
        runtime = service.runtimes[0]
        runtime.poll_once()
        runtime.fleet_route()
        first = runtime.core.fleet_cache
        runtime.fleet_route()
        assert runtime.core.fleet_cache is first
        runtime.poll_once(final=True)
        runtime.fleet_route()
        assert runtime.core.fleet_cache is not first

    def test_request_obs_disabled_is_noop(self, stream_artifacts):
        service = one_tenant(
            stream_artifacts, port=0, once=True, request_obs=False
        )
        try:
            service.runtimes[0].poll_once()
            status, _, _, _, _hdrs = service.server.dispatch("/v1/fleet")
            assert status == 200
            assert service.server.observability.active is False
            _, _, metrics_body, _, _hdrs = service.server.dispatch("/metrics")
            assert "http_requests_total" not in metrics_body
            assert "slo_compliance" not in metrics_body
        finally:
            service.server.stop()

    def test_sigterm_style_stop_returns_zero(self, stream_artifacts):
        import threading

        service = one_tenant(stream_artifacts, port=None, poll_interval=0.05)
        threading.Timer(0.3, service.stop).start()
        assert service.run(install_signals=False) == 0

    def test_repeated_publish_does_not_double_count(self, stream_artifacts):
        service = one_tenant(stream_artifacts, port=None, once=True)
        assert service.run(install_signals=False) == 0
        family = service.metrics.counter("pipeline_lines_read_total")
        assert family.labels().value == service.runtimes[0].core.ingest.lines_read


def _stream_target(mode, artifacts, out):
    """CLI args serving ``artifacts``, and where ``--fleet-out out`` lands."""
    if mode == "follow":
        return ["--follow", str(artifacts)], out
    return ["--tenant", f"a={artifacts}"], out / "a.json"


class TestStreamCli:
    def test_once_exits_zero_and_writes_fleet(
        self, stream_artifacts, tmp_path, capsys
    ):
        fleet_out = tmp_path / "fleet.json"
        code = main(
            [
                "stream",
                "--follow",
                str(stream_artifacts),
                "--once",
                "--port",
                "-1",
                "--checkpoint",
                str(tmp_path / "ckpt"),
                "--fleet-out",
                str(fleet_out),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pipeline health:" in out
        fleet = json.loads(fleet_out.read_text())
        assert fleet["stream"]["drained"] is True
        assert fleet["report"]["errors_total"] > 0

    @pytest.mark.parametrize("mode", ["follow", "tenant"])
    def test_idle_exit_drains_before_exiting(
        self, mode, stream_artifacts, stream_batch, tmp_path, capsys
    ):
        out = tmp_path / "fleet"
        target, fleet_path = _stream_target(mode, stream_artifacts, out)
        code = main(
            ["stream", *target, "--port", "-1", "--poll-interval", "0.1",
             "--idle-exit", "1", "--fleet-out", str(out)]
        )
        assert code == 0
        fleet = json.loads(fleet_path.read_text())
        assert fleet["stream"]["drained"] is True
        assert fleet["report"]["errors_total"] == len(stream_batch.errors)

    @pytest.mark.parametrize("mode", ["follow", "tenant"])
    def test_delta_window_applies_to_every_tenant(
        self, mode, stream_artifacts, tmp_path, capsys
    ):
        out = tmp_path / "fleet"
        target, fleet_path = _stream_target(mode, stream_artifacts, out)
        code = main(
            ["stream", *target, "--once", "--port", "-1", "--delta-window",
             "--fleet-out", str(out)]
        )
        assert code == 0
        window = json.loads(fleet_path.read_text())["report"]["window"]
        delta = StudyWindow.delta_default()
        assert window["operational"]["duration_hours"] == (
            delta.operational.duration_hours
        )

    def test_checkpoint_dir_holds_the_stream_checkpoint(
        self, stream_artifacts, tmp_path, capsys
    ):
        ckpt = tmp_path / "ckpt"
        args = ["stream", "--once", "--port", "-1", "--checkpoint", str(ckpt)]
        assert main([*args, "--follow", str(stream_artifacts)]) == 0
        assert (ckpt / CHECKPOINT_FILE).is_file()
        assert not (ckpt / "default").exists()
        # --resume reads that file: it was taken against another
        # directory, so resuming it here is refused.
        other = tmp_path / "other"
        (other / "syslog").mkdir(parents=True)
        assert main([*args, "--follow", str(other), "--resume"]) == 2
        fleet_out = tmp_path / "fleet.json"
        code = main(
            [*args, "--follow", str(stream_artifacts), "--resume",
             "--fleet-out", str(fleet_out)]
        )
        assert code == 0
        assert json.loads(fleet_out.read_text())["stream"]["drained"] is True

    def test_follow_serves_bare_and_tenant_routes(
        self, stream_artifacts, stream_batch
    ):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "stream",
             "--follow", str(stream_artifacts), "--port", "0",
             "--poll-interval", "0.1"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://([0-9.]+):(\d+)", banner)
            assert match, banner
            base = f"http://{match[1]}:{match[2]}"
            # Until the backlog replay ends, the fleet routes answer
            # with the degraded placeholder instead of blocking; wait
            # for /healthz to show the whole corpus read.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                health = json.loads(_get(base + "/healthz")[1])
                lines = health["tenants"]["default"]["lines_read"]
                if lines == stream_batch.health.lines_read:
                    break
                time.sleep(0.1)
            bodies = {}
            for route in ("/v1/fleet", "/v1/alerts", "/v1/default/fleet"):
                status, body = _get(base + route)
                assert status == 200, route
                bodies[route] = json.loads(body)
            assert set(bodies["/v1/fleet"]) == {"report", "estimators", "stream"}
            assert set(bodies["/v1/default/fleet"]) == set(bodies["/v1/fleet"])
            assert "rules" in bodies["/v1/alerts"]
        finally:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert "pipeline health:" in out

    @pytest.mark.parametrize("mode", ["follow", "tenant"])
    def test_alerts_out_creates_its_directory(self, mode, tmp_path, capsys):
        logs = tmp_path / "logs"
        logs.mkdir()
        (logs / "syslog-2022-01-01.log").write_text(
            "2022-01-01T00:01:00.000000 gpua001 kernel: NVRM: Xid "
            "(PCI:0000:07:00): 79, pid=1, GPU has fallen off the bus.\n"
        )
        new = tmp_path / "new"
        if mode == "follow":
            target, log = ["--follow", str(logs)], new / "x.jsonl"
            flag = log
        else:
            target, log = ["--tenant", f"a={logs}"], new / "a.jsonl"
            flag = new
        code = main(
            ["stream", *target, "--once", "--port", "-1",
             "--alerts-out", str(flag)]
        )
        assert code == 0
        alerts = [json.loads(row) for row in log.read_text().splitlines()]
        assert [a["rule"] for a in alerts] == ["xid79_fallen_off_bus"]

    def test_missing_directory_is_config_error(self, tmp_path, capsys):
        code = main(
            ["stream", "--follow", str(tmp_path / "nope"), "--once"]
        )
        assert code == 2

    def test_resume_requires_checkpoint(self, tmp_path, capsys):
        code = main(
            ["stream", "--follow", str(tmp_path), "--once", "--resume"]
        )
        assert code == 2

    def test_help_documents_exit_codes_and_shutdown(self, capsys):
        with pytest.raises(SystemExit):
            main(["stream", "--help"])
        out = capsys.readouterr().out
        assert "exit codes:" in out
        assert "SIGTERM" in out
