"""E9 + A1 — error coalescing and the 17-day episode case study.

E9 reproduces Section IV(vi)'s numbers: one faulty GPU generates over
a million raw log lines that coalesce to ~38,900 errors, dominating
the pre-operational period (92% of all errors), and the SRE outlier
rule isolates that unit.

A1 sweeps the coalescing window Δt to show how sensitive the error
counts — and therefore every MTBE in Table I — are to this Stage-II
design choice.

The benchmarked operation is coalescing the full run's raw hit stream.
"""

from repro.analysis import MtbeAnalysis
from repro.cluster.inventory import Inventory
from repro.core.periods import PeriodName
from repro.core.xid import EventClass
from repro.pipeline import HitColumns, WindowMode, coalesce, scan_day_file
from repro.syslog.reader import list_day_files

from conftest import write_result


def _raw_hits(artifacts):
    """The run's error hits before coalescing, folded as Stage II does:
    each day's scan clamped to the watermark of the days before it."""
    inventory = Inventory.load(artifacts.inventory_path)
    hits = HitColumns()
    watermark = float("-inf")
    for path in list_day_files(artifacts.syslog_dir, dedupe=True):
        scan = scan_day_file(path, inventory)
        hits.extend_clamped(scan.hits, watermark)
        if scan.local_max is not None:
            watermark = max(watermark, scan.local_max)
    return hits.to_hits()


def test_bench_coalescing_episode(benchmark, delta_run, results_dir):
    artifacts, result = delta_run
    hits = _raw_hits(artifacts)

    errors = benchmark.pedantic(
        lambda: coalesce(hits, window_seconds=30.0), rounds=2, iterations=1
    )

    pre = artifacts.window.pre_operational
    episode_raw = sum(
        1
        for h in hits
        if h.event_class is EventClass.UNCONTAINED_MEMORY_ERROR
        and pre.contains(h.time)
    )
    episode_coalesced = [
        e
        for e in errors
        if e.event_class is EventClass.UNCONTAINED_MEMORY_ERROR
        and pre.contains(e.time)
    ]
    pre_total = sum(1 for e in errors if pre.contains(e.time))
    share = len(episode_coalesced) / pre_total

    analysis = MtbeAnalysis(errors, artifacts.window, artifacts.node_count)
    outliers = analysis.outliers

    text = "\n".join(
        [
            "E9 — the 17-day uncontained-memory episode (Section IV(vi))",
            f"raw XID-95 lines (pre-op): {episode_raw} (paper: >1,000,000)",
            f"coalesced errors: {len(episode_coalesced)} (paper: 38,900)",
            f"share of pre-op errors: {share * 100:.1f}% (paper: 92%)",
            f"outlier units flagged: "
            f"{[(o.node, o.gpu_key, o.count) for o in outliers[:3]]}",
        ]
    )
    write_result(results_dir, "episode.txt", text)
    print()
    print(text)

    assert episode_raw > 1_000_000
    assert 0.88 * 38_900 <= len(episode_coalesced) <= 1.12 * 38_900
    assert share > 0.85
    assert outliers and outliers[0].share > 0.9


def test_bench_coalescing_window_sweep_a1(benchmark, delta_run, results_dir):
    artifacts, _ = delta_run
    hits = _raw_hits(artifacts)

    def sweep():
        return {
            window: len(coalesce(hits, window_seconds=window))
            for window in (0.0, 10.0, 30.0, 120.0, 600.0)
        }

    counts = benchmark.pedantic(sweep, rounds=1, iterations=1)

    sliding = len(coalesce(hits, window_seconds=30.0, mode=WindowMode.SLIDING))
    lines = ["A1 — coalescing window sweep (errors recovered)"]
    lines += [f"  tumbling dt={w:>5.0f}s: {n}" for w, n in counts.items()]
    lines.append(f"  sliding  dt=   30s: {sliding}")
    text = "\n".join(lines)
    write_result(results_dir, "ablation_a1.txt", text)
    print()
    print(text)

    ordered = [counts[w] for w in (0.0, 10.0, 30.0, 120.0, 600.0)]
    assert ordered == sorted(ordered, reverse=True)
    # Without coalescing the study over-counts by several x.
    assert counts[0.0] > 3 * counts[30.0]
    # Sliding-window semantics would erase the episode entirely.
    assert sliding < 0.7 * counts[30.0]
