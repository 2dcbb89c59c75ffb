"""Synthetic workload generation calibrated to paper Table III."""

from ..core.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".generator": ("WorkloadConfig", "WorkloadGenerator"),
    ".names": ("draw_job_name", "draw_user"),
    ".spec": (
        "TABLE3_BUCKETS",
        "GpuBucket",
        "WorkloadSpec",
        "bucket_for_gpu_count",
        "capped_lognormal_mean",
        "solve_sigma",
    ),
})
