"""R1/R2 — pipeline robustness under log corruption (chaos layer).

The paper's pipeline digested three years of *production* syslog —
including the §IV(vi) episode that dumped >1M duplicate lines — so the
reproduction's Stage II must survive realistically dirty input.  These
benchmarks corrupt a full-scale artifact set with the calibrated chaos
mix and assert three things:

* the pipeline completes and the health report accounts for every
  injected corruption type (R1);
* Table I headline statistics stay within ±5% of the clean run (R1);
* an interrupted run, rerun over its scan cache, resumes to results
  identical to an uninterrupted pass (R2).
"""

import shutil

import pytest

from repro.analysis import MtbeAnalysis
from repro.core.exceptions import PipelineInterrupted
from repro.core.periods import PeriodName
from repro.core.xid import EventClass
from repro.pipeline import run_pipeline
from repro.syslog.chaos import ChaosConfig, corrupt_artifacts
from repro.syslog.quarantine import (
    FILE_CORRUPT,
    FILE_DUPLICATE_DAY,
    FILE_TRUNCATED_GZIP,
    REASON_BAD_TIMESTAMP,
    REASON_CLOCK_STEP,
    REASON_ENCODING,
    REASON_MALFORMED,
    REASON_MISSING_HOST,
    REASON_TORN_WRITE,
)

from conftest import write_result

#: Tolerance on Table I counts under calibrated corruption.
TOLERANCE = 0.05


@pytest.fixture(scope="module")
def corrupted_delta(delta_run, tmp_path_factory):
    """A corrupted copy of the full Delta artifact set."""
    artifacts, clean_result = delta_run
    dirty = tmp_path_factory.mktemp("corrupted_delta") / "run"
    shutil.copytree(artifacts.output_dir, dirty)
    report = corrupt_artifacts(dirty, ChaosConfig.calibrated(seed=5))
    return artifacts, clean_result, dirty, report


def test_bench_robustness_table1_r1(benchmark, corrupted_delta, results_dir):
    artifacts, clean_result, dirty, report = corrupted_delta

    result = benchmark.pedantic(
        lambda: run_pipeline(dirty), rounds=1, iterations=1
    )
    health = result.health
    assert health is not None and not health.is_clean

    # Every injected corruption type leaves a typed signal in the
    # health report.
    prefix_rejects = (
        health.quarantined.get(REASON_MALFORMED, 0)
        + health.quarantined.get(REASON_BAD_TIMESTAMP, 0)
        + health.quarantined.get(REASON_MISSING_HOST, 0)
    )
    assert report.truncated_lines == 0 or prefix_rejects > 0
    assert report.torn_writes == 0 or (
        health.quarantined.get(REASON_TORN_WRITE, 0) > 0
    )
    assert report.garbage_lines == 0 or (
        health.repaired.get(REASON_ENCODING, 0) + prefix_rejects > 0
    )
    assert report.clock_stepped_lines == 0 or (
        health.repaired.get(REASON_CLOCK_STEP, 0) > 0
    )
    assert report.gzip_truncated_files <= (
        health.file_incidents.get(FILE_TRUNCATED_GZIP, 0)
        + health.file_incidents.get(FILE_CORRUPT, 0)
    )
    assert report.duplicated_day_files <= health.file_incidents.get(
        FILE_DUPLICATE_DAY, 0
    )
    assert health.days_missing >= report.dropped_day_files

    # Table I survives: per-class counts and the headline MTBEs stay
    # within tolerance of the clean pass.
    clean_mtbe = MtbeAnalysis(
        clean_result.errors, artifacts.window, artifacts.node_count
    )
    dirty_mtbe = MtbeAnalysis(
        result.errors, artifacts.window, artifacts.node_count
    )
    drifts = []
    for period in (PeriodName.PRE_OPERATIONAL, PeriodName.OPERATIONAL):
        for event_class in EventClass:
            clean_count = clean_mtbe.count(period, event_class)
            dirty_count = dirty_mtbe.count(period, event_class)
            drifts.append(
                (period.value, event_class.value, clean_count, dirty_count)
            )
            assert abs(dirty_count - clean_count) <= max(
                2, TOLERANCE * clean_count
            ), f"{period.value}/{event_class.value}: {clean_count} -> {dirty_count}"
    for period in (PeriodName.PRE_OPERATIONAL, PeriodName.OPERATIONAL):
        clean_overall = clean_mtbe.overall(period)
        dirty_overall = dirty_mtbe.overall(period)
        assert dirty_overall.per_node_mtbe_hours == pytest.approx(
            clean_overall.per_node_mtbe_hours, rel=TOLERANCE
        )

    lines = [
        "R1 — Stage-II robustness under calibrated corruption",
        report.summary(),
        "",
        health.render(),
        "",
        f"clean errors: {len(clean_result.errors)}  "
        f"dirty errors: {len(result.errors)}",
        "per-class count drift (period, class, clean, dirty):",
    ]
    lines += [
        f"  {p:<16} {c:<26} {a:>6} {b:>6}" for p, c, a, b in drifts if a or b
    ]
    text = "\n".join(lines)
    write_result(results_dir, "robustness_r1.txt", text)
    print()
    print(text)


def test_bench_robustness_resume_r2(benchmark, corrupted_delta, results_dir):
    artifacts, _clean, dirty, _report = corrupted_delta

    baseline = run_pipeline(dirty)
    total_files = baseline.health.days_present
    halfway = max(1, total_files // 2)

    def interrupted_then_resumed():
        shutil.rmtree(dirty / ".pipeline_scan_cache", ignore_errors=True)
        try:
            run_pipeline(dirty, scan_cache=True, interrupt_after_files=halfway)
        except PipelineInterrupted:
            pass
        return run_pipeline(dirty, scan_cache=True)

    resumed = benchmark.pedantic(
        interrupted_then_resumed, rounds=1, iterations=1
    )

    assert resumed.health.resumed_files == halfway
    assert resumed.errors == baseline.errors
    assert resumed.downtime == baseline.downtime
    assert resumed.raw_hits == baseline.raw_hits
    assert resumed.extraction_stats == baseline.extraction_stats
    assert resumed.health.quarantined == baseline.health.quarantined
    assert resumed.health.repaired == baseline.health.repaired
    assert resumed.health.lines_read == baseline.health.lines_read

    text = "\n".join(
        [
            "R2 — kill-and-resume reproduces the uninterrupted run",
            f"day files: {total_files} (interrupted after {halfway})",
            f"resumed day files replayed from scan cache: "
            f"{resumed.health.resumed_files}",
            f"errors identical: {resumed.errors == baseline.errors} "
            f"({len(resumed.errors)} errors)",
            f"downtime identical: {resumed.downtime == baseline.downtime}",
            f"stats identical: "
            f"{resumed.extraction_stats == baseline.extraction_stats}",
        ]
    )
    write_result(results_dir, "robustness_r2.txt", text)
    print()
    print(text)
