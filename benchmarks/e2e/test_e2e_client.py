"""Open-loop client: latency from the due time, so a stall shows."""

import math
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from client import OpenLoopClient, chunked_appends, phase_summary, poisson_reads

STALL_S = 0.2
STALL_AT_S = 0.3


class _StubServer:
    """Serves 200s; one request stalls every other one behind a lock.

    The stall is global (a lock all handlers take), the way a snapshot
    rebuild under the service lock holds up every connection.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.armed_at = None
        self.stall = None
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):
                with outer.lock:
                    now = time.perf_counter()
                    if (
                        outer.stall is None
                        and outer.armed_at is not None
                        and now >= outer.armed_at
                    ):
                        outer.stall = (now, now + STALL_S)
                        time.sleep(STALL_S)
                status = 500 if self.path == "/broken" else 200
                body = b"{}"
                self.send_response(status)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.httpd.daemon_threads = True
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


def test_requests_due_during_a_stall_show_the_stall():
    schedule = poisson_reads(random.Random(3), "p", 0.0, 1.0, 200.0, ["/ok"])
    with _StubServer() as server:
        client = OpenLoopClient("127.0.0.1", server.httpd.server_address[1])
        server.armed_at = time.perf_counter() + STALL_AT_S
        outcomes = client.run(schedule)
    assert server.stall is not None
    # Due times count from the client's origin; put the stall on that clock.
    lo, hi = (t - client.origin for t in server.stall)
    stalled = [o for o in outcomes if lo + 0.01 <= o.event.due < hi - 0.01]
    assert len(stalled) >= 20
    for o in stalled:
        # Timed from the due time: the wait until the stall ended counts.
        assert o.latency >= (hi - o.event.due) - 0.005
    # Send-time timing would hide most of it: the threads were blocked,
    # so these requests went out late, and the lateness is recorded.
    assert max(o.lateness for o in stalled) >= 0.1
    assert all(o.ok for o in outcomes)
    summary = phase_summary(outcomes, "p")
    assert summary["attempted"] == len(schedule) == 200
    assert summary["failed"] == 0


def test_failures_count_against_attempts_and_miss_every_limit():
    schedule = poisson_reads(
        random.Random(1), "p", 0.0, 0.3, 100.0, ["/ok", "/broken"]
    )
    with _StubServer() as server:
        outcomes = OpenLoopClient("127.0.0.1", server.httpd.server_address[1]).run(
            schedule
        )
    summary = phase_summary(outcomes, "p")
    assert summary["attempted"] == 30
    assert summary["failed"] == 15
    assert sorted(summary["by_route"]["/broken"]) == [math.inf] * 15
    assert all(o.status == 500 for o in outcomes if o.event.route == "/broken")


def test_transport_failure_is_a_failed_request():
    schedule = poisson_reads(random.Random(2), "p", 0.0, 0.1, 50.0, ["/ok"])
    outcomes = OpenLoopClient("127.0.0.1", 9, timeout=0.5).run(schedule)
    assert all(not o.ok and o.status == 0 for o in outcomes)
    assert all(o.latency == math.inf for o in outcomes)


def test_appends_recreate_files_in_order(tmp_path):
    content = b"".join(b"line %d\n" % i for i in range(95))
    target = tmp_path / "day.log"
    events = chunked_appends("m", 0.0, [(target, content)], 400.0, 0.01)
    assert [len(e.data.splitlines()) for e in events] == [4] * 23 + [3]
    reads = poisson_reads(random.Random(5), "m", 0.0, 0.24, 100.0, ["/ok"])
    with _StubServer() as server:
        outcomes = OpenLoopClient("127.0.0.1", server.httpd.server_address[1]).run(
            events + reads
        )
    assert target.read_bytes() == content
    assert phase_summary(outcomes, "m")["append_failures"] == 0


def test_poisson_schedule_is_seeded_and_fixed_in_size():
    a = poisson_reads(random.Random(9), "p", 0.0, 2.0, 500.0, ["/a", "/b"])
    b = poisson_reads(random.Random(9), "p", 0.0, 2.0, 500.0, ["/a", "/b"])
    assert a == b and len(a) == 1000
    assert sum(e.route == "/a" for e in a) == 500
    assert all(x.due <= y.due for x, y in zip(a, a[1:]))
    assert all(0.0 <= e.due < 2.0 for e in a)
