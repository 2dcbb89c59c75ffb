"""One-shot Stage-II pipeline over an artifact directory.

Ties together extraction, coalescing, and downtime recovery exactly as
Fig. 1 stage (ii) does, reading only the on-disk artifacts a real
deployment would have: the syslog directory, the hardware inventory,
and the Slurm accounting CSV.

Three robustness/performance layers distinguish this from a naive pass:

* **Tolerant streaming + quarantine** — every malformed, torn, or
  undecodable line is dropped (or repaired) with a reason code and
  accounted for in a :class:`~repro.pipeline.health.PipelineHealthReport`;
  no input can crash the pipeline.  Out-of-order timestamps from NTP
  clock steps are clamped to monotonic order ahead of coalescing.
* **Resume = warm rerun** — with ``scan_cache=True`` each day file's
  scan is persisted under ``<artifact_dir>/.pipeline_scan_cache/``
  (see :mod:`repro.pipeline.scancache`) before it is merged.  A crashed
  or interrupted pass, run again, replays the finished days from the
  cache (validated by file size + mtime_ns and the inventory hash) and
  produces results identical to an uninterrupted run.
* **Sharded parallel execution** — with ``workers=N`` the per-day
  scans run on a process pool while the parent folds finished shards
  in day order through the exact merge of
  :mod:`repro.pipeline.shard`.  Both execution modes share one
  implementation of the per-line hot loop (:func:`scan_day_file` +
  :func:`merge_scan`), so ``workers`` can only change wall-clock time:
  results — including quarantine samples, clock-step accounting at
  shard boundaries, and scan-cache entries — are byte-identical to a
  serial pass.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..cluster.inventory import Inventory
from ..core.exceptions import ConfigurationError, PipelineInterrupted
from ..obs import Telemetry
from ..core.records import DowntimeRecord, ExtractedError
from ..slurm.accounting import load_records
from ..slurm.types import JobRecord
from ..syslog.quarantine import FILE_DUPLICATE_DAY, Quarantine
from ..syslog.reader import day_stem, dedupe_day_files, list_day_files
from .coalesce import (
    DEFAULT_WINDOW_SECONDS,
    WindowMode,
    coalesce_columns,
)
from .downtime import DowntimeExtractor
from .extract import ExtractionStats
from .health import PipelineHealthReport
from .metrics import PipelineMetricSet, PipelineTotals
from .parallel import create_scan_pool, submit_scan
from .recovery import RecoveryEvent, RecoveryExtractor
from .scancache import SCAN_CACHE_DIRNAME, ScanCache, ScanStats
from .shard import DayScan, HitColumns, merge_scan, scan_day_file

@dataclass
class PipelineResult:
    """Everything Stage II produces from one artifact directory.

    Attributes:
        errors: coalesced GPU errors, in first-occurrence order.
        downtime: node-unavailability episodes recovered from logs.
        jobs: the Slurm accounting records (empty when no sacct file
            was present).
        extraction_stats: raw-line counters from the extraction pass.
        coalesce_window_seconds: the Δt used.
        raw_hits: matched raw lines before coalescing.
        health: data-quality accounting for the pass (quarantined and
            repaired lines, file incidents, day coverage, resume info).
        recovery: gang-recovery events reconstructed from ``gangd:``
            log lines (empty for runs without a recovery policy).
        scan: scan-efficiency accounting (decode ratio, scan-cache
            hits, walls).  Host-domain observability: excluded from
            equality, because cache state and wall clocks vary between
            otherwise identical passes.
    """

    errors: List[ExtractedError]
    downtime: List[DowntimeRecord]
    jobs: List[JobRecord]
    extraction_stats: ExtractionStats
    coalesce_window_seconds: float
    raw_hits: int
    health: Optional[PipelineHealthReport] = None
    recovery: List[RecoveryEvent] = field(default_factory=list)
    scan: ScanStats = field(
        default_factory=ScanStats, compare=False, repr=False
    )

    @property
    def coalescing_reduction(self) -> float:
        """Raw-hit-to-error reduction factor (>= 1)."""
        if not self.errors:
            return 1.0
        return self.raw_hits / len(self.errors)


def _fingerprint(path: Path) -> str:
    """Content hash of one file: the scan cache's inventory key."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def totals_from_result(
    result: PipelineResult, bytes_read: int
) -> PipelineTotals:
    """Bundle a finished pass's accounting for metric publication.

    Built from the same :class:`PipelineResult` (and its health
    report) the caller receives, so health data and telemetry cannot
    drift apart — a regression test asserts the two agree after a
    chaos-corrupted run.
    """
    stats = result.extraction_stats
    health = result.health
    return PipelineTotals(
        lines_read=health.lines_read,
        parsed_lines=health.parsed_lines,
        bytes_read=bytes_read,
        matched_lines=stats.matched_lines,
        excluded_xid_lines=stats.excluded_xid_lines,
        malformed_lines=stats.malformed_lines,
        raw_hits=result.raw_hits,
        coalesced_errors=len(result.errors),
        downtime_episodes=len(result.downtime),
        job_records=len(result.jobs),
        quarantined=dict(health.quarantined),
        repaired=dict(health.repaired),
        file_incidents=dict(health.file_incidents),
        days_present=health.days_present,
        days_missing=health.days_missing,
        completeness=health.completeness,
    )


def _flush_pipeline_metrics(
    telemetry: Telemetry,
    result: PipelineResult,
    bytes_read: int,
    extract_wall_seconds: float,
    workers: int,
    shard_rates: List[float],
) -> None:
    """Mirror the finished pass's accounting into the metrics registry.

    Publication goes through the shared
    :class:`~repro.pipeline.metrics.PipelineMetricSet`, the same
    definition the streaming fleet-health service uses, so the two
    paths can never diverge on metric names, help strings, or labels.
    """
    metric_set = PipelineMetricSet(telemetry.metrics)
    metric_set.publish_totals(totals_from_result(result, bytes_read))
    metric_set.publish_scan_stats(result.scan)
    metric_set.publish_host_throughput(
        workers=workers,
        shard_rates=shard_rates,
        wall_seconds=extract_wall_seconds,
        lines_read=result.health.lines_read,
        bytes_read=bytes_read,
    )


def run_pipeline(
    artifact_dir: Path,
    window_seconds: float = DEFAULT_WINDOW_SECONDS,
    mode: WindowMode = WindowMode.TUMBLING,
    load_jobs: bool = True,
    interrupt_after_files: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
    workers: int = 1,
    scan_cache: bool = False,
) -> PipelineResult:
    """Run the full Stage-II pipeline over a run's artifact directory.

    Args:
        artifact_dir: directory produced by
            :meth:`repro.study.runner.DeltaStudy.run` (contains
            ``syslog/``, ``inventory.json``, ``sacct.csv``).
        window_seconds: coalescing Δt.
        mode: coalescing window semantics.
        load_jobs: also load the accounting records.
        interrupt_after_files: raise
            :class:`~repro.core.exceptions.PipelineInterrupted` after
            this many day files have been merged if work remains
            (crash-recovery drills and tests).  Under parallel
            execution the interrupt fires at the same merge position;
            with ``scan_cache`` on, a rerun resumes from the days
            already stored.
        telemetry: optional :class:`~repro.obs.Telemetry`; when enabled
            the pass is traced per stage (and per day file) and the
            health accounting is mirrored into the metrics registry.
            Instrumentation is flushed at stage boundaries, so the
            per-line hot loop is identical with telemetry on or off.
        workers: process-pool size for the per-day shard scans.  ``1``
            (the default) scans in-process; any value produces
            identical results (see :mod:`repro.pipeline.shard` for the
            merge contract).
        scan_cache: persist per-day scans under
            ``<artifact_dir>/.pipeline_scan_cache/`` and replay them
            on later passes over unchanged day files (validated by
            size + mtime_ns + inventory hash; corrupt entries are
            quarantined and rescanned).  Like ``workers``, the cache
            can only change wall-clock time, never results.  It is
            also the resume state: every scanned day is stored before
            it is merged, so rerunning an interrupted pass replays the
            days it finished.  Off by default at the library level so
            correctness tests exercise real scans; the CLI enables it
            (``--no-scan-cache`` opts out).

    Returns:
        the :class:`PipelineResult`, with a populated ``health`` report.
    """
    artifact_dir = Path(artifact_dir)
    syslog_dir = artifact_dir / "syslog"
    if not syslog_dir.is_dir():
        raise ConfigurationError(f"{artifact_dir}: no syslog/ directory")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    tel = telemetry if telemetry is not None else Telemetry.disabled()
    tracer = tel.tracer

    with tracer.span("pipeline", scan_cache=scan_cache, workers=workers):
        with tracer.span("discover"):
            inventory = None
            inventory_path: Optional[Path] = artifact_dir / "inventory.json"
            inventory_key = "absent"
            if inventory_path.exists():
                inventory = Inventory.load(inventory_path)
                if scan_cache:
                    inventory_key = _fingerprint(inventory_path)
            else:
                inventory_path = None

            quarantine = Quarantine()
            unique_files, duplicate_files = dedupe_day_files(
                list_day_files(syslog_dir)
            )
            for dup in duplicate_files:
                quarantine.file_incident(FILE_DUPLICATE_DAY, dup.name)

            # Plan phase: one stat per file feeds byte accounting and,
            # with the scan cache on, replays prior scans of unchanged
            # files so they are neither submitted to the pool nor
            # rescanned.  No day file's content is read here.
            scan_stats = ScanStats()
            cache: Optional[ScanCache] = None
            if scan_cache:
                cache = ScanCache(
                    artifact_dir / SCAN_CACHE_DIRNAME,
                    inventory_key,
                    stats=scan_stats,
                )
            stats_by_name: Dict[str, Optional[object]] = {}
            cached_scans: Dict[str, DayScan] = {}
            bytes_read = 0
            for path in unique_files:
                try:
                    st = path.stat()
                except OSError:
                    st = None
                stats_by_name[path.name] = st
                if st is None:
                    continue
                bytes_read += st.st_size
                if cache is not None:
                    cached = cache.load(path, st)
                    if cached is not None:
                        cached_scans[path.name] = cached
            to_scan = [p for p in unique_files if p.name not in cached_scans]
        tel.logger.event(
            "pipeline.start",
            day_files=len(unique_files),
            duplicates=len(duplicate_files),
            workers=workers,
        )

        stats = ExtractionStats()
        downtime_extractor = DowntimeExtractor()
        recovery_extractor = RecoveryExtractor()
        # Run-global columnar hit store: merge_scan folds day columns
        # into it array-to-array and Stage III coalesces it directly —
        # no per-hit ErrorHit objects anywhere on the batch path.
        hits = HitColumns()
        last_time = float("-inf")
        lines_read = 0
        parsed_lines = 0
        extract_wall = 0.0
        shard_rates: List[float] = []

        pool = None
        futures: Dict[str, object] = {}
        if workers > 1 and len(to_scan) > 1:
            try:
                pool = create_scan_pool(
                    min(workers, len(to_scan)), inventory_path, cache
                )
                futures = {p.name: submit_scan(pool, p) for p in to_scan}
            except Exception:
                # No process pool on this platform — run serial.
                pool = None
                futures = {}

        try:
            with tracer.span("extract") as extract_span:
                for index, path in enumerate(unique_files):
                    scan = cached_scans.get(path.name)
                    if scan is None:
                        scan, from_pool = _resolve_scan(
                            path, futures, inventory, tracer
                        )
                        scan_stats.lines_scanned += scan.lines_read
                        scan_stats.lines_decoded += scan.lines_decoded
                        scan_stats.scan_wall_seconds += scan.scan_wall_seconds
                        if cache is not None:
                            if from_pool:
                                # The worker persisted its own scan
                                # (serialization happens off the merge
                                # path); count the attempt.
                                scan_stats.cache_stores += 1
                            else:
                                cache.store(
                                    path, stats_by_name.get(path.name), scan
                                )
                    last_time = merge_scan(
                        scan,
                        last_time,
                        quarantine,
                        stats,
                        downtime_extractor,
                        hits,
                        recovery_extractor,
                    )
                    lines_read += scan.lines_read
                    parsed_lines += scan.parsed_lines
                    if scan.scan_wall_seconds > 0:
                        shard_rates.append(
                            scan.lines_read / scan.scan_wall_seconds
                        )
                    if (
                        interrupt_after_files is not None
                        and index + 1 >= interrupt_after_files
                        and index + 1 < len(unique_files)
                    ):
                        raise PipelineInterrupted(
                            f"interrupted after {index + 1}/"
                            f"{len(unique_files)} day files"
                        )
            if extract_span is not None:
                extract_wall = extract_span.wall_seconds
                extract_span.set_attr("lines", lines_read)
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

        with tracer.span("coalesce"):
            errors = coalesce_columns(hits, window_seconds, mode)
        with tracer.span("downtime"):
            downtime = downtime_extractor.finish()
        with tracer.span("recovery"):
            recovery_events = recovery_extractor.finish()

        jobs: List[JobRecord] = []
        sacct_path = artifact_dir / "sacct.csv"
        if load_jobs and sacct_path.exists():
            with tracer.span("load-jobs"):
                jobs = load_records(sacct_path)

        health = PipelineHealthReport.build(
            quarantine,
            lines_read=lines_read,
            parsed_lines=parsed_lines,
            day_stems=[day_stem(p) for p in unique_files],
            resumed_files=len(cached_scans),
        )
        result = PipelineResult(
            errors=errors,
            downtime=downtime,
            jobs=jobs,
            extraction_stats=stats,
            coalesce_window_seconds=window_seconds,
            raw_hits=len(hits),
            health=health,
            recovery=recovery_events,
            scan=scan_stats,
        )
        if tel.enabled:
            _flush_pipeline_metrics(
                tel, result, bytes_read, extract_wall, workers, shard_rates
            )
        tel.logger.event(
            "pipeline.done",
            lines_read=lines_read,
            errors=len(errors),
            quarantined=health.total_quarantined,
            repaired=health.total_repaired,
        )
    return result


def _resolve_scan(
    path: Path,
    futures: Dict[str, object],
    inventory: Optional[Inventory],
    tracer,
) -> "Tuple[DayScan, bool]":
    """The scan for one day file: pool result, or in-process fallback.

    A pool worker's crash (or the absence of a pool) degrades to
    scanning the file in-process — parallelism is an optimization, not
    a correctness dependency.  In-process scans are traced as ``day``
    spans (the serial pipeline's per-file span); pool scans get a
    ``shard`` span carrying the worker's wall time.

    Returns ``(scan, from_pool)`` — the caller needs to know whether a
    pool worker produced (and therefore already cached) the scan.
    """
    future = futures.pop(path.name, None)
    if future is not None:
        try:
            scan = future.result()
        except Exception:
            scan = None
        if scan is not None:
            with tracer.span("shard", file=day_stem(path)) as span:
                if span is not None:
                    span.set_attr("lines", scan.lines_read)
                    span.set_attr("hits", len(scan.hits))
                    span.set_attr(
                        "scan_wall_seconds", scan.scan_wall_seconds
                    )
            return scan, True
    with tracer.span("day", file=day_stem(path)) as span:
        scan = scan_day_file(path, inventory)
        if span is not None:
            span.set_attr("lines", scan.lines_read)
            span.set_attr("hits", len(scan.hits))
    return scan, False
