"""Open-loop load client: one seeded schedule, two keep-alive connections.

The schedule mixes HTTP GETs with chunked file appends (the live log
writer).  Both come from one seeded generator, so the same seed always
offers the same load.  Two threads serve the schedule in due-time
order, each over its own keep-alive connection:

* every request is timed from the moment it was **due**, not from when
  a thread got round to sending it — a stalled server makes the
  requests queued behind the stall late, and their latency shows it;
* how late the generator ran (send time minus due time) is recorded
  per event, so a saturated client is visible rather than silent;
* a failed request (transport error or any non-2xx status) is counted against
  the attempts and given infinite latency, so it misses every
  latency limit.

``repro.loadgen`` is deliberately not reused: it starts the clock at
the actual send and runs one thread per poller.
"""

from __future__ import annotations

import http.client
import math
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Number of worker threads, each with one keep-alive connection.
THREADS = 2


@dataclass(frozen=True)
class Event:
    """One scheduled action, ``due`` seconds after the schedule starts."""

    due: float
    phase: str
    route: str = ""
    path: Optional[Path] = None
    data: bytes = b""

    @property
    def is_append(self) -> bool:
        return self.path is not None


@dataclass
class Outcome:
    """What happened to one event (times relative to the schedule start)."""

    event: Event
    sent: float
    done: float
    status: int = 0
    ok: bool = False

    @property
    def latency(self) -> float:
        """Due-to-done seconds; ``inf`` for a failure."""
        return self.done - self.event.due if self.ok else math.inf

    @property
    def lateness(self) -> float:
        return self.sent - self.event.due


def poisson_reads(
    rng: random.Random,
    phase: str,
    start: float,
    seconds: float,
    rate: float,
    routes: Sequence[str],
) -> List[Event]:
    """Poisson arrivals at ``rate``/s over ``[start, start + seconds)``.

    The process is conditioned on its count: exactly ``rate * seconds``
    arrivals at independent uniform times, which is a Poisson process
    given that count.  A fixed count keeps every percentile's sample
    size the same on every run; routes alternate in arrival order.
    """
    count = round(rate * seconds)
    times = sorted(start + rng.random() * seconds for _ in range(count))
    return [
        Event(due=t, phase=phase, route=routes[i % len(routes)])
        for i, t in enumerate(times)
    ]


def chunked_appends(
    phase: str,
    start: float,
    files: Sequence[Tuple[Path, bytes]],
    lines_per_second: float,
    chunk_seconds: float,
) -> List[Event]:
    """Re-create ``files`` in order, ``lines_per_second`` at a time.

    Each chunk holds ``lines_per_second * chunk_seconds`` whole lines
    and is due ``chunk_seconds`` after the previous one.
    """
    per_chunk = max(1, round(lines_per_second * chunk_seconds))
    events = []
    t = start
    for path, content in files:
        lines = content.splitlines(keepends=True)
        for lo in range(0, len(lines), per_chunk):
            events.append(
                Event(
                    due=t,
                    phase=phase,
                    path=path,
                    data=b"".join(lines[lo : lo + per_chunk]),
                )
            )
            t += chunk_seconds
    return events


@dataclass
class OpenLoopClient:
    """Serve one schedule against ``host:port`` with :data:`THREADS` threads.

    ``origin`` is the ``time.perf_counter`` instant due times count
    from (set by :meth:`run`).
    """

    host: str
    port: int
    timeout: float = 10.0
    origin: float = 0.0

    def run(self, schedule: Sequence[Event]) -> List[Outcome]:
        """Serve the schedule; every event's outcome, in due order."""
        events = sorted(schedule, key=lambda e: e.due)
        appends = [e for e in events if e.is_append]
        state = {"next": 0, "appended": 0}
        lock = threading.Lock()
        append_done = threading.Condition(lock)
        origin = self.origin = time.perf_counter() + 0.05
        results: List[List[Outcome]] = [[] for _ in range(THREADS)]
        append_index = {id(e): i for i, e in enumerate(appends)}

        def worker(slot: int) -> None:
            conn = self._connect()
            try:
                while True:
                    with lock:
                        if state["next"] >= len(events):
                            return
                        event = events[state["next"]]
                        state["next"] += 1
                    delay = origin + event.due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    if event.is_append:
                        # Appends keep file order even when the two
                        # threads pick up consecutive chunks.
                        with append_done:
                            append_done.wait_for(
                                lambda: state["appended"]
                                == append_index[id(event)]
                            )
                            sent = time.perf_counter() - origin
                            ok = _append(event)
                            state["appended"] += 1
                            append_done.notify_all()
                        done = time.perf_counter() - origin
                        results[slot].append(
                            Outcome(event, sent, done, 0, ok)
                        )
                        continue
                    sent = time.perf_counter() - origin
                    status, conn = self._get(conn, event.route)
                    done = time.perf_counter() - origin
                    results[slot].append(
                        Outcome(event, sent, done, status, 200 <= status < 300)
                    )
            finally:
                conn.close()

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return sorted(
            (o for chunk in results for o in chunk), key=lambda o: o.event.due
        )

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def _get(
        self, conn: http.client.HTTPConnection, route: str
    ) -> Tuple[int, http.client.HTTPConnection]:
        """One keep-alive GET; status 0 and a fresh connection on failure."""
        try:
            conn.request("GET", route)
            response = conn.getresponse()
            response.read()
            return response.status, conn
        except (OSError, http.client.HTTPException):
            conn.close()
            return 0, self._connect()


def _append(event: Event) -> bool:
    try:
        with open(event.path, "ab") as handle:
            handle.write(event.data)
        return True
    except OSError:
        return False


def phase_summary(outcomes: Sequence[Outcome], phase: str) -> Dict[str, object]:
    """Latency and lateness samples of one phase's reads, split by route."""
    reads = [o for o in outcomes if o.event.phase == phase and not o.event.is_append]
    appends = [o for o in outcomes if o.event.phase == phase and o.event.is_append]
    by_route: Dict[str, List[float]] = {}
    for o in reads:
        by_route.setdefault(o.event.route, []).append(o.latency)
    return {
        "latency": [o.latency for o in reads],
        "lateness": [o.lateness for o in outcomes if o.event.phase == phase],
        "by_route": by_route,
        "attempted": len(reads),
        "failed": sum(1 for o in reads if not o.ok),
        "appends": len(appends),
        "append_failures": sum(1 for o in appends if not o.ok),
    }
