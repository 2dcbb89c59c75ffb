"""E13 — sharded parallel pipeline throughput vs the serial pass.

The sharded Stage-II pipeline promises two things: ``workers=N`` is
byte-identical to ``workers=1``, and on a multi-core host it is
substantially faster.  This benchmark prices both on the same mid-size
artifact set the E11 baseline used (small preset, seed 7, ~270k
lines), so ``BENCH_obs.json``'s ``pipeline_lines_per_second`` is a
directly comparable trajectory point for the serial pass.

Two bytes-first numbers ride along so the scan rewrite's win is
visible even on hosts where ``parallel_speedup`` is just pool tax:

* ``decode_ratio`` — the fraction of scanned lines the bytes-first
  scanner had to materialize as ``str`` (its fallback traffic), which
  is 0 on this clean corpus;
* cold-vs-warm scan-cache walls — a second pass over the unchanged
  corpus replays persisted scans, and the scan *phase* must be at
  least 10x cheaper warm than cold (the acceptance bar; end-to-end
  wall improves less because merge/coalesce/jobs still run).

Speedup assertions are gated on the cores actually present: a
single-core host can only measure the process-pool tax, so it records
the numbers without judging them.  The serial pass itself must not
regress: when a prior ``BENCH_obs.json`` baseline exists, serial
throughput must stay within 5% of it (hot-path work should only ever
move this number up).
"""

import gc
import json
import time
from pathlib import Path

from repro import DeltaStudy, StudyConfig
from repro.pipeline import host_cores, run_pipeline

from conftest import write_result

#: Repo-root trajectory file (ROADMAP: BENCH_* series).
BENCH_PATH = Path(__file__).parent.parent / "BENCH_pipeline_parallel.json"

#: The serial baseline this benchmark must not regress.
OBS_BENCH_PATH = Path(__file__).parent.parent / "BENCH_obs.json"

#: Tolerated serial slowdown vs the recorded baseline.
MAX_SERIAL_REGRESSION = 0.05

_ROUNDS = 2


def _timed_best(fn, rounds=_ROUNDS):
    best = float("inf")
    result = None
    for _ in range(rounds):
        gc.collect()
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_bench_pipeline_parallel_speedup(tmp_path_factory, results_dir):
    out = tmp_path_factory.mktemp("pipeline_parallel_bench")
    config = StudyConfig.small(seed=7, job_scale=0.01, include_episode=True)
    DeltaStudy(config).run(out)

    cores = host_cores()
    workers = min(cores, 8)

    t_serial, serial = _timed_best(lambda: run_pipeline(out, workers=1))
    t_parallel, parallel = _timed_best(
        lambda: run_pipeline(out, workers=workers)
    )

    # Identity first — a fast wrong answer is worthless.
    assert parallel.errors == serial.errors
    assert parallel.downtime == serial.downtime
    assert parallel.raw_hits == serial.raw_hits
    assert parallel.extraction_stats == serial.extraction_stats
    assert parallel.health.quarantine_samples == (
        serial.health.quarantine_samples
    )

    # Bytes-first visibility: the serial pass scans everything fresh,
    # so its decode ratio is the scanner's true fallback traffic.  A
    # clean corpus is all canonical lines, marker lines included, so
    # the bytes-first scan decodes none of them.
    decode_ratio = serial.scan.decode_ratio
    assert serial.scan.lines_scanned == serial.health.lines_read
    assert decode_ratio == 0.0

    # Cold/warm persistent scan cache on the same corpus.  The cold
    # pass scans and stores; the warm pass must replay every day and
    # stay byte-identical.  Walls are best-of-one for cold (a second
    # cold pass would be warm) and best-of-2 for warm.
    gc.collect()
    t0 = time.perf_counter()
    cold = run_pipeline(out, workers=1, scan_cache=True)
    t_cold = time.perf_counter() - t0
    t_warm, warm = _timed_best(
        lambda: run_pipeline(out, workers=1, scan_cache=True)
    )
    assert cold == serial
    assert warm == serial
    assert warm.scan.cache_hits == cold.scan.cache_stores > 0
    assert warm.scan.lines_from_cache == serial.health.lines_read
    scan_speedup = cold.scan.scan_wall_seconds / max(
        warm.scan.cache_load_wall_seconds, 1e-9
    )
    assert scan_speedup >= 10.0

    lines = serial.health.lines_read
    serial_lps = lines / t_serial
    parallel_lps = lines / t_parallel
    speedup = t_serial / t_parallel

    baseline_lps = None
    baseline_ratio = None
    if OBS_BENCH_PATH.exists():
        recorded = json.loads(OBS_BENCH_PATH.read_text("utf-8"))
        baseline_lps = recorded.get("pipeline_lines_per_second")
        if baseline_lps:
            baseline_ratio = serial_lps / baseline_lps

    text = "\n".join(
        [
            "E13 — sharded parallel pipeline vs serial",
            f"lines per pass: {lines}",
            f"serial (workers=1):       {t_serial:.3f} s "
            f"({serial_lps:,.0f} lines/s)",
            f"parallel (workers={workers}): {t_parallel:.3f} s "
            f"({parallel_lps:,.0f} lines/s)",
            f"speedup: {speedup:.2f}x on {cores} core(s)",
            f"decode ratio: {decode_ratio:.4f} "
            f"({serial.scan.lines_decoded:,} of "
            f"{serial.scan.lines_scanned:,} lines decoded)",
            f"scan cache: cold {t_cold:.3f} s -> warm {t_warm:.3f} s "
            f"(scan phase {cold.scan.scan_wall_seconds:.3f} s -> "
            f"{warm.scan.cache_load_wall_seconds:.3f} s, "
            f"{scan_speedup:.1f}x)",
            (
                f"serial vs BENCH_obs baseline: {baseline_ratio:.2f}x "
                f"({baseline_lps:,.0f} lines/s recorded)"
                if baseline_ratio is not None
                else "serial vs BENCH_obs baseline: no baseline recorded"
            ),
        ]
    )
    write_result(results_dir, "pipeline_parallel.txt", text)
    print()
    print(text)

    record = {
        "schema": "repro-bench-v1",
        "benchmark": "pipeline_parallel",
        "workload": {
            "preset": "small",
            "seed": 7,
            "job_scale": 0.01,
            "pipeline_lines": int(lines),
        },
        "host_cores": cores,
        "workers": workers,
        "serial_lines_per_second": round(serial_lps, 1),
        "parallel_lines_per_second": round(parallel_lps, 1),
        "parallel_speedup": round(speedup, 2),
        "decode_ratio": round(decode_ratio, 4),
        "cold_cache_wall_seconds": round(t_cold, 3),
        "warm_cache_wall_seconds": round(t_warm, 3),
        "warm_pipeline_speedup": round(t_cold / t_warm, 2),
        "warm_scan_phase_speedup": round(scan_speedup, 1),
        "serial_baseline_lines_per_second": baseline_lps,
        "serial_vs_baseline_ratio": (
            round(baseline_ratio, 3) if baseline_ratio is not None else None
        ),
    }
    if cores < 2:
        record["parallel_note"] = (
            "single-core host: speedup measures only the process-pool "
            f"tax (host_cores={cores})"
        )
    BENCH_PATH.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    # Serial must not regress against the recorded trajectory.
    if baseline_ratio is not None:
        assert baseline_ratio >= 1.0 - MAX_SERIAL_REGRESSION
    # Parallelism must pay where the cores exist to pay it.
    if cores >= 4:
        assert speedup > 1.8
    elif cores >= 2:
        assert speedup > 1.2
