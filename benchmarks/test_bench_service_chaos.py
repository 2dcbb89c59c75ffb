"""E17 — co-tenant isolation and heal time under service chaos.

The acceptance claim for the self-healing multi-tenant service: while
one tenant is being actively broken (ingest kills, a torn checkpoint,
an injected disk error), the *other* tenant's clients barely notice —
its p99 stays within ``MAX_P99_RATIO`` of a no-chaos baseline, it
serves zero 5xx — and every injected fault is detected and healed,
with the median detect-to-recovery time recorded.

Records ``BENCH_service_chaos.json`` at the repo root and a rendered
summary under ``benchmarks/results/service_chaos.txt``.
"""

import json
import statistics
import threading
import time
from pathlib import Path

from repro import DeltaStudy, StudyConfig
from repro.loadgen import LoadConfig, build_report, run_load
from repro.stream import (
    ChaosController,
    ChaosEvent,
    GuardConfig,
    MultiTenantService,
    TenantSpec,
)
from repro.stream.chaos import CORRUPT_CHECKPOINT, IO_ERROR, KILL_INGEST

from conftest import write_result

#: Repo-root trajectory file (ROADMAP: BENCH_* series).
BENCH_PATH = Path(__file__).parent.parent / "BENCH_service_chaos.json"

#: The healthy tenant's p99 under co-tenant chaos must stay within
#: this factor of its no-chaos baseline (plus an absolute guard for
#: timer noise on fast routes).
MAX_P99_RATIO = 2.0
_P99_GUARD_MS = 20.0

_LOAD_SECONDS = 6.0
_POLLERS = 16

_GUARD = GuardConfig(
    stall_timeout=30.0,
    watchdog_interval=0.05,
    backoff_base=0.1,
    backoff_max=0.5,
    backoff_jitter=0.0,
    breaker_threshold=5,
    breaker_cooldown=1.0,
    seed=17,
)


def _wait_until(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _run_service(artifact_dir, ckpt_root, chaos=None):
    """Start a two-tenant service on a thread; return (service, thread)."""
    service = MultiTenantService(
        [
            TenantSpec(
                name=name,
                follow_dir=artifact_dir,
                checkpoint_dir=ckpt_root / name,
            )
            for name in ("victim", "healthy")
        ],
        port=0,
        poll_interval=0.1,
        checkpoint_interval=0.3,
        guard=_GUARD,
        chaos=chaos,
    )
    thread = threading.Thread(
        target=service.run, kwargs={"install_signals": False}
    )
    thread.start()
    return service, thread


def _healthy_load(service):
    """Drive the healthy tenant's routes; return the loadgen report."""
    url = f"http://{service.server.address}"
    result = run_load(
        LoadConfig(
            url=url,
            mode="closed",
            pollers=_POLLERS,
            duration_seconds=_LOAD_SECONDS,
            seed=23,
            routes=("/v1/healthy/fleet", "/v1/healthy/alerts"),
        ),
        fetch_slo=True,
    )
    return build_report(result)


def _stop(service, thread):
    service.stop()
    thread.join(timeout=15.0)


def test_bench_service_chaos(tmp_path_factory, results_dir):
    out = tmp_path_factory.mktemp("service_chaos_bench")
    config = StudyConfig.small(seed=7, job_scale=0.01, include_episode=True)
    DeltaStudy(config).run(out)

    # ---- baseline: same topology, no chaos -------------------------
    service, thread = _run_service(out, tmp_path_factory.mktemp("ckpt_base"))
    try:
        _wait_until(
            lambda: all(
                rt.core.ingest.lines_read > 0 for rt in service.runtimes
            )
        )
        baseline = _healthy_load(service)
    finally:
        _stop(service, thread)
    base_fleet = baseline["routes"]["/v1/healthy/fleet"]["latency_ms"]

    # ---- chaos: one tenant under attack, same load on the other ----
    plan = [
        ChaosEvent(1.0, KILL_INGEST, "victim"),
        ChaosEvent(2.5, CORRUPT_CHECKPOINT, "victim"),
        ChaosEvent(4.0, IO_ERROR, "victim"),
    ]
    service, thread = _run_service(
        out,
        tmp_path_factory.mktemp("ckpt_chaos"),
        chaos=ChaosController(plan),
    )
    try:
        _wait_until(
            lambda: all(
                rt.core.ingest.lines_read > 0 for rt in service.runtimes
            )
        )
        chaos_report = _healthy_load(service)
        healed = _wait_until(
            lambda: (
                service.chaos.exhausted
                and service.supervisor.recoveries["victim"]
                and not any(rt.degraded for rt in service.runtimes)
            )
        )
        recoveries = [
            dict(r) for r in service.supervisor.recoveries["victim"]
        ]
        restarts = dict(service.supervisor.restart_counts["victim"])
        victim = next(rt for rt in service.runtimes if rt.name == "victim")
        quarantined = len(victim.quarantined_checkpoints)
    finally:
        _stop(service, thread)
    chaos_fleet = chaos_report["routes"]["/v1/healthy/fleet"]["latency_ms"]

    recovery_seconds = [r["seconds"] for r in recoveries]
    median_recovery = (
        statistics.median(recovery_seconds) if recovery_seconds else None
    )
    p99_ratio = (
        chaos_fleet["p99"] / base_fleet["p99"] if base_fleet["p99"] else 1.0
    )

    text = "\n".join(
        [
            "E17 — co-tenant isolation and heal time under service chaos",
            f"chaos plan: {len(plan)} faults against tenant 'victim' "
            f"({', '.join(event.kind for event in plan)})",
            f"healthy-tenant /fleet p99: baseline {base_fleet['p99']:.2f} ms"
            f" -> under chaos {chaos_fleet['p99']:.2f} ms "
            f"({p99_ratio:.2f}x)",
            f"healthy-tenant requests: "
            f"{chaos_report['totals']['requests']:,} "
            f"({chaos_report['totals']['errors']} errors)",
            f"shed rate under chaos: "
            f"{chaos_report['shed']['shed_rate'] * 100:.3f}%",
            f"victim restarts: {restarts}",
            f"victim recoveries: {len(recoveries)} "
            f"(median {median_recovery:.3f} s)"
            if median_recovery is not None
            else "victim recoveries: 0",
            f"checkpoints quarantined: {quarantined}",
        ]
    )
    write_result(results_dir, "service_chaos.txt", text)
    print()
    print(text)

    record = {
        "schema": "repro-bench-v1",
        "benchmark": "service_chaos",
        "workload": {
            "preset": "small",
            "seed": 7,
            "job_scale": 0.01,
            "tenants": 2,
            "pollers": _POLLERS,
            "load_seconds": _LOAD_SECONDS,
        },
        "chaos_plan": [
            {"at_seconds": e.at_seconds, "kind": e.kind, "tenant": e.tenant}
            for e in plan
        ],
        "healthy_p99_baseline_ms": round(base_fleet["p99"], 3),
        "healthy_p99_chaos_ms": round(chaos_fleet["p99"], 3),
        "healthy_p99_ratio": round(p99_ratio, 3),
        "healthy_requests": chaos_report["totals"]["requests"],
        "healthy_errors": chaos_report["totals"]["errors"],
        "shed_rate": round(chaos_report["shed"]["shed_rate"], 5),
        "victim_restarts": restarts,
        "victim_recoveries": len(recoveries),
        "median_recovery_seconds": (
            round(median_recovery, 4) if median_recovery is not None else None
        ),
        "checkpoints_quarantined": quarantined,
    }
    BENCH_PATH.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    # Every fault was injected, detected, and healed.
    assert healed, (recoveries, restarts)
    assert recoveries, "no recovery ever recorded"
    assert restarts.get("crash", 0) >= 1
    assert quarantined >= 1, "torn checkpoint was never quarantined"
    # The healthy co-tenant stayed fast and clean.
    assert chaos_report["totals"]["errors"] == 0
    assert chaos_fleet["p99"] <= (
        base_fleet["p99"] * MAX_P99_RATIO + _P99_GUARD_MS
    ), (
        f"healthy-tenant p99 degraded {p99_ratio:.2f}x under co-tenant "
        f"chaos ({base_fleet['p99']:.2f} -> {chaos_fleet['p99']:.2f} ms)"
    )
