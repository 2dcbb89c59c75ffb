"""Stage-III analysis: MTBE, job impact, availability, job statistics,
NVLink propagation, ML classification, checkpoint-interval economics,
and headline composition."""

from ..core.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".availability": (
        "AvailabilityAnalysis",
        "AvailabilityReport",
        "UnavailabilityDistribution",
    ),
    ".checkpoint": (
        "CheckpointSweepReport",
        "GoodputModel",
        "SweepRow",
        "calibrated_model",
        "daly_interval_hours",
        "gang_mtbf_hours",
        "measured_sweep",
        "render_measured_sweep",
        "sweep",
        "young_interval_hours",
    ),
    ".correlation": (
        "FollowStat",
        "correlation_matrix",
        "follow_probability",
        "strongest_chains",
    ),
    ".headline": ("HeadlineReport", "compute_headline"),
    ".job_impact": (
        "DEFAULT_ATTRIBUTION_WINDOW_SECONDS",
        "AttributionGranularity",
        "ClassImpact",
        "JobImpactAnalysis",
        "JobImpactResult",
    ),
    ".jobstats": ("BucketStats", "JobStatistics", "PopulationStats"),
    ".mitigation": ("CheckpointPolicy", "MitigationAnalysis", "MitigationReport"),
    ".ml": ("ClassifierQuality", "is_ml_job_name", "validate_classifier"),
    ".mtbe": ("MtbeAnalysis", "MtbeStat", "OutlierGpu"),
    ".nvlink": ("NvlinkManifestationStats", "nvlink_manifestations"),
    # Replication re-runs the simulator, so only it loads Stage I.
    ".replication": ("MetricSummary", "ReplicatedStudy"),
    ".spatial": (
        "SpatialStats",
        "UnitErrorCount",
        "gini_coefficient",
        "node_error_counts",
        "repeat_offenders",
        "spatial_stats",
    ),
    ".temporal": (
        "InterArrivalStats",
        "burstiness_by_class",
        "hour_of_day_profile",
        "inter_arrival_stats",
        "monthly_error_series",
        "trend_ratio",
    ),
})
