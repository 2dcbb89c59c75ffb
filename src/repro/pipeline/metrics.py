"""Canonical Stage-II metric families, shared by batch and stream.

The batch pipeline used to publish its counters inline from
``run.py``; the live fleet-health service (:mod:`repro.stream`) must
publish the *same* families — identical metric names, help strings,
and label sets — or dashboards built against one would silently break
against the other.  This module is the single definition both paths
import: :class:`PipelineMetricSet` registers every family once, and
:class:`PipelineTotals` is the neutral counter bundle either caller
fills in.

Counters are monotonic in the registry, so the streaming path (which
republishes growing totals after every poll) goes through
:meth:`PipelineMetricSet.publish_totals`, which increments by the
delta since its own last publication.  The batch path publishes one
final snapshot through the same method (its first delta *is* the
total) plus the host-domain throughput gauges that only make sense
for a finished pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..obs.metrics import MetricsRegistry


@dataclass
class PipelineTotals:
    """Cumulative Stage-II accounting in metric-ready form.

    Attributes mirror the counter families one-to-one; labeled
    families (``quarantined``/``repaired``/``file_incidents``) are
    per-reason dicts.  All values are running totals — delta handling
    lives in :class:`PipelineMetricSet`.
    """

    lines_read: int = 0
    parsed_lines: int = 0
    bytes_read: int = 0
    matched_lines: int = 0
    excluded_xid_lines: int = 0
    malformed_lines: int = 0
    raw_hits: int = 0
    coalesced_errors: int = 0
    downtime_episodes: int = 0
    job_records: int = 0
    quarantined: Dict[str, int] = field(default_factory=dict)
    repaired: Dict[str, int] = field(default_factory=dict)
    file_incidents: Dict[str, int] = field(default_factory=dict)
    days_present: int = 0
    days_missing: int = 0
    completeness: float = 1.0


class PipelineMetricSet:
    """Registers the shared ``pipeline_*`` families on one registry.

    Instantiate once per run (batch pass or stream service) and call
    :meth:`publish_totals` with growing :class:`PipelineTotals`; each
    call increments counters by the delta since the previous call on
    *this instance*, so repeated publication never double-counts and a
    single publication degenerates to the classic one-shot flush.
    """

    def __init__(self, metrics: MetricsRegistry) -> None:
        m = metrics
        self.lines_read = m.counter(
            "pipeline_lines_read_total", "raw lines streamed from disk"
        )
        self.lines_parsed = m.counter(
            "pipeline_lines_parsed_total", "lines surviving parse + quarantine"
        )
        self.bytes_read = m.counter(
            "pipeline_bytes_read_total", "bytes of day files consumed"
        )
        self.matched_lines = m.counter(
            "pipeline_matched_lines_total", "lines matching an analyzed pattern"
        )
        self.excluded_xid_lines = m.counter(
            "pipeline_excluded_xid_lines_total", "XID 13/43 lines skipped"
        )
        self.malformed_lines = m.counter(
            "pipeline_malformed_lines_total", "lines that failed to parse"
        )
        self.raw_hits = m.counter(
            "pipeline_raw_hits_total", "matched raw hits before coalescing"
        )
        self.coalesced_errors = m.counter(
            "pipeline_coalesced_errors_total", "logical errors after coalescing"
        )
        self.downtime_episodes = m.counter(
            "pipeline_downtime_episodes_total", "downtime episodes recovered"
        )
        self.job_records = m.counter(
            "pipeline_job_records_total", "accounting records loaded"
        )
        self.quarantined = m.counter(
            "pipeline_quarantined_lines_total",
            "lines dropped by the quarantine, by reason",
            labels=("reason",),
        )
        self.repaired = m.counter(
            "pipeline_repaired_lines_total",
            "lines kept after a lossy repair, by reason",
            labels=("reason",),
        )
        self.file_incidents = m.counter(
            "pipeline_file_incidents_total",
            "whole-file incidents, by reason",
            labels=("reason",),
        )
        self.day_coverage = m.gauge(
            "pipeline_day_coverage",
            "day files by coverage state",
            labels=("state",),
        )
        self.completeness = m.gauge(
            "pipeline_completeness",
            "estimated fraction of emitted telemetry analyzed",
        )
        self._metrics = m
        self._published = PipelineTotals()

    def publish_totals(self, totals: PipelineTotals) -> None:
        """Sync the registry to ``totals`` (incrementing by the delta).

        Safe to call after every poll: counters move by exactly the
        growth since the last call, labeled counters per reason, and
        the coverage/completeness gauges are set to the current value.

        Deltas are clamped at zero: a supervised ingest restarted from
        its last checkpoint reports *lower* totals than the crashed
        generation it replaced, and a Prometheus counter must never
        decrease.  The clamp under-counts the re-processed span once
        and then tracks exactly again once totals re-pass the old
        baseline (:meth:`reset_baseline` is the scratch-restart path).
        """
        prev = self._published

        def delta(now: int, before: int) -> int:
            return now - before if now > before else 0

        self.lines_read.inc(delta(totals.lines_read, prev.lines_read))
        self.lines_parsed.inc(delta(totals.parsed_lines, prev.parsed_lines))
        self.bytes_read.inc(delta(totals.bytes_read, prev.bytes_read))
        self.matched_lines.inc(
            delta(totals.matched_lines, prev.matched_lines)
        )
        self.excluded_xid_lines.inc(
            delta(totals.excluded_xid_lines, prev.excluded_xid_lines)
        )
        self.malformed_lines.inc(
            delta(totals.malformed_lines, prev.malformed_lines)
        )
        self.raw_hits.inc(delta(totals.raw_hits, prev.raw_hits))
        self.coalesced_errors.inc(
            delta(totals.coalesced_errors, prev.coalesced_errors)
        )
        self.downtime_episodes.inc(
            delta(totals.downtime_episodes, prev.downtime_episodes)
        )
        self.job_records.inc(delta(totals.job_records, prev.job_records))
        for family, now, before in (
            (self.quarantined, totals.quarantined, prev.quarantined),
            (self.repaired, totals.repaired, prev.repaired),
            (self.file_incidents, totals.file_incidents, prev.file_incidents),
        ):
            for reason, count in now.items():
                step = delta(count, before.get(reason, 0))
                if step:
                    family.labels(reason=reason).inc(step)
        self.day_coverage.labels(state="present").set(totals.days_present)
        self.day_coverage.labels(state="missing").set(totals.days_missing)
        self.completeness.set(totals.completeness)
        self._published = totals

    def reset_baseline(self) -> None:
        """Restart delta accounting from zero totals.

        Used when an ingest restarts *from scratch* (quarantined
        checkpoint): the replacement genuinely re-processes every
        line, so the counters should count that work rather than stall
        until the old baseline is re-passed.
        """
        self._published = PipelineTotals()

    def publish_scan_stats(self, scan) -> None:
        """Publish scan-efficiency accounting for a finished pass.

        ``scan`` is a :class:`~repro.pipeline.scancache.ScanStats`.
        All families are host-domain: cache hit rates depend on what
        previous runs left on disk and the decode ratio is a property
        of the scanner, so none of them belong in deterministic
        exports.  Families are registered lazily so paths that never
        publish them (the streaming service) keep their metric surface
        unchanged.  Call once per pass — values are added as one-shot
        increments, not deltas.
        """
        m = self._metrics
        for name, help_text, value in (
            (
                "pipeline_scan_cache_hits_total",
                "day scans replayed from the persistent scan cache",
                scan.cache_hits,
            ),
            (
                "pipeline_scan_cache_misses_total",
                "cache-enabled day scans that ran fresh "
                "(absent, stale, or corrupt entries)",
                scan.cache_misses,
            ),
            (
                "pipeline_scan_cache_stores_total",
                "fresh scans persisted to the scan cache",
                scan.cache_stores,
            ),
            (
                "pipeline_scan_cache_corrupt_total",
                "scan-cache entries quarantined as corrupt",
                scan.cache_corrupt,
            ),
            (
                "pipeline_lines_decoded_total",
                "lines materialized as str by the bytes-first scan",
                scan.lines_decoded,
            ),
            (
                "pipeline_lines_from_cache_total",
                "lines replayed from scan-cache entries",
                scan.lines_from_cache,
            ),
        ):
            if value:
                m.counter(name, help_text, domain="host").inc(value)
        if scan.lines_scanned:
            m.gauge(
                "pipeline_scan_decode_ratio",
                "fraction of freshly scanned lines that needed a decode",
                domain="host",
            ).set(scan.decode_ratio)

    def publish_host_throughput(
        self,
        *,
        workers: int,
        shard_rates: List[float],
        wall_seconds: float,
        lines_read: int,
        bytes_read: int,
    ) -> None:
        """Publish the host-domain throughput gauges for a batch pass.

        Host-domain metrics are excluded from deterministic exports,
        so these carry wall-clock-dependent rates the batch pipeline
        reports once at the end of a pass.
        """
        m = self._metrics
        m.gauge(
            "pipeline_workers",
            "process-pool size used for shard scans",
            domain="host",
        ).set(workers)
        shard_hist = m.histogram(
            "pipeline_shard_lines_per_second",
            "per-day shard scan throughput",
            domain="host",
        )
        for rate in shard_rates:
            shard_hist.observe(rate)
        if wall_seconds > 0:
            m.gauge(
                "pipeline_lines_per_second",
                "extraction throughput",
                domain="host",
            ).set(lines_read / wall_seconds)
            m.gauge(
                "pipeline_bytes_per_second",
                "extraction byte throughput",
                domain="host",
            ).set(bytes_read / wall_seconds)
