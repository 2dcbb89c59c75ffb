"""Stage-II processing: extraction, coalescing, downtime recovery,
gang-recovery timelines, health accounting, and checkpointed
(resumable) runs — serial or sharded across a process pool with a
deterministic merge."""

from .coalesce import (
    DEFAULT_WINDOW_SECONDS,
    ErrorCoalescer,
    StreamingCoalescer,
    WindowMode,
    coalesce,
    coalesce_columns,
    iter_coalesced,
)
from .downtime import DOWNTIME_MARKER, DowntimeExtractor, extract_downtime
from .extract import ErrorHit, ExtractionStats, XidExtractor
from .health import PipelineHealthReport, day_coverage
from .metrics import PipelineMetricSet, PipelineTotals
from .parallel import host_cores, resolve_workers
from .recovery import (
    RecoveryEvent,
    RecoveryExtractor,
    extract_recovery,
    recovery_timeline_summary,
)
from .run import (
    CHECKPOINT_DIRNAME,
    PipelineResult,
    run_pipeline,
    totals_from_result,
)
from .scancache import SCAN_CACHE_DIRNAME, ScanCache, ScanStats
from .shard import DayScan, HitColumns, merge_scan, scan_day_file

__all__ = [
    "DEFAULT_WINDOW_SECONDS",
    "ErrorCoalescer",
    "StreamingCoalescer",
    "WindowMode",
    "coalesce",
    "iter_coalesced",
    "PipelineMetricSet",
    "PipelineTotals",
    "totals_from_result",
    "DOWNTIME_MARKER",
    "DowntimeExtractor",
    "extract_downtime",
    "ErrorHit",
    "ExtractionStats",
    "XidExtractor",
    "PipelineHealthReport",
    "day_coverage",
    "RecoveryEvent",
    "RecoveryExtractor",
    "extract_recovery",
    "recovery_timeline_summary",
    "CHECKPOINT_DIRNAME",
    "PipelineResult",
    "run_pipeline",
    "SCAN_CACHE_DIRNAME",
    "ScanCache",
    "ScanStats",
    "coalesce_columns",
    "DayScan",
    "HitColumns",
    "merge_scan",
    "scan_day_file",
    "host_cores",
    "resolve_workers",
]
