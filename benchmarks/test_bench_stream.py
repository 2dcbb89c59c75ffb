"""E14 — streaming ingest throughput and append-to-visible latency.

The live fleet-health service must keep up with the corpus: sustained
streaming ingest (follow + incremental coalesce + estimators) runs the
batch scanner and merge on every poll chunk, so it has to stay within
2x of the batch serial pass over the same artifact set — the gap is
only the chunking and the watermark-evicting coalescer.  The second half measures freshness end to end: append a
batch of lines to the followed day file and time until the error is
visible in the published ``pipeline_raw_hits_total`` metric.

Records ``BENCH_stream.json`` at the repo root (lines/sec for batch
vs stream, p50/p95 append-to-metric-visible latency) and a rendered
summary under ``benchmarks/results/``.
"""

import gc
import json
import statistics
import time
from pathlib import Path

from repro import DeltaStudy, StudyConfig
from repro.cluster.inventory import Inventory
from repro.core.timebase import format_syslog_timestamp
from repro.pipeline import run_pipeline
from repro.stream import MultiTenantService, StreamIngest, TenantSpec

from conftest import write_result

#: Repo-root trajectory file (ROADMAP: BENCH_* series).
BENCH_PATH = Path(__file__).parent.parent / "BENCH_stream.json"

#: The stream must stay within this factor of batch serial throughput.
MAX_SLOWDOWN = 2.0

#: Freshness bound on p95 append-to-metric-visible latency (seconds of
#: wall time; the service polls every 50 ms here).
MAX_P95_LATENCY = 2.0

_ROUNDS = 2
_LATENCY_SAMPLES = 20


def _timed_best(fn, rounds=_ROUNDS):
    best = float("inf")
    result = None
    for _ in range(rounds):
        gc.collect()
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _stream_drain(artifact_dir):
    inventory = Inventory.load(artifact_dir / "inventory.json")
    ingest = StreamIngest(artifact_dir / "syslog", inventory=inventory)
    ingest.drain()
    return ingest


def _measure_latency(artifact_dir):
    """Append error lines to the live day file; time metric visibility."""
    syslog_dir = artifact_dir / "syslog"
    days = sorted(p for p in syslog_dir.glob("syslog-*.log"))
    day = days[-1]
    service = MultiTenantService(
        [TenantSpec("default", artifact_dir)], port=None, poll_interval=0.05
    )
    runtime = service.runtimes[0]
    runtime.poll_once()
    hits_family = service.metrics.counter("pipeline_raw_hits_total")

    import threading

    runner = threading.Thread(
        target=service.run, kwargs={"install_signals": False}, daemon=True
    )
    runner.start()
    latencies = []
    try:
        base_time = runtime.core.ingest.watermark + 1.0
        with open(day, "a", encoding="utf-8") as fh:
            for i in range(_LATENCY_SAMPLES):
                before = hits_family.labels().value
                stamp = format_syslog_timestamp(base_time + i * 2.0)
                for j in range(30):
                    fh.write(
                        f"{stamp} gpua001 kernel: benchmark filler "
                        f"line {i}-{j}\n"
                    )
                fh.write(
                    f"{stamp} gpua001 kernel: NVRM: Xid "
                    f"(PCI:0000:07:00): 31, pid=1, Ch 00000008\n"
                )
                fh.flush()
                t0 = time.perf_counter()
                while hits_family.labels().value <= before:
                    time.sleep(0.005)
                    if time.perf_counter() - t0 > 30.0:
                        raise AssertionError(
                            "appended error never became visible"
                        )
                latencies.append(time.perf_counter() - t0)
    finally:
        service.stop()
        runner.join(timeout=10)
    return latencies


def test_bench_stream_ingest(tmp_path_factory, results_dir):
    out = tmp_path_factory.mktemp("stream_bench")
    config = StudyConfig.small(seed=7, job_scale=0.01, include_episode=True)
    DeltaStudy(config).run(out)

    t_batch, batch = _timed_best(lambda: run_pipeline(out, workers=1))
    t_stream, ingest = _timed_best(lambda: _stream_drain(out))

    # Identity first — a fast wrong answer is worthless.
    stream_result = ingest.result()
    assert stream_result.errors == batch.errors
    assert stream_result.raw_hits == batch.raw_hits

    lines = batch.health.lines_read
    batch_lps = lines / t_batch
    stream_lps = lines / t_stream

    latencies = sorted(_measure_latency(out))
    p50 = statistics.median(latencies)
    p95 = latencies[max(0, int(len(latencies) * 0.95) - 1)]

    text = "\n".join(
        [
            "E14 — streaming ingest vs batch serial",
            f"lines per pass: {lines}",
            f"batch serial:  {t_batch:.3f} s ({batch_lps:,.0f} lines/s)",
            f"stream drain:  {t_stream:.3f} s ({stream_lps:,.0f} lines/s)",
            f"stream/batch throughput ratio: {stream_lps / batch_lps:.2f}x",
            f"append-to-metric-visible latency "
            f"(n={len(latencies)}, poll=50ms): "
            f"p50={p50 * 1000:.0f} ms  p95={p95 * 1000:.0f} ms",
        ]
    )
    write_result(results_dir, "stream.txt", text)
    print()
    print(text)

    record = {
        "schema": "repro-bench-v1",
        "benchmark": "stream",
        "workload": {
            "preset": "small",
            "seed": 7,
            "job_scale": 0.01,
            "pipeline_lines": int(lines),
        },
        "batch_lines_per_second": round(batch_lps, 1),
        "stream_lines_per_second": round(stream_lps, 1),
        "stream_vs_batch_ratio": round(stream_lps / batch_lps, 3),
        "latency_poll_interval_seconds": 0.05,
        "latency_samples": len(latencies),
        "latency_p50_seconds": round(p50, 4),
        "latency_p95_seconds": round(p95, 4),
    }
    BENCH_PATH.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    # Sustained ingest must stay within MAX_SLOWDOWN of the batch
    # serial pass, and appended errors must surface promptly.
    assert stream_lps * MAX_SLOWDOWN >= batch_lps
    assert p95 < MAX_P95_LATENCY
