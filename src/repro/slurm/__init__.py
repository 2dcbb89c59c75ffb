"""Slurm-like scheduler and sacct-style accounting database."""

from ..core.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".accounting": (
        "AccountingWriter",
        "load_records",
        "read_accounting",
        "read_ground_truth",
    ),
    ".scheduler": ("CPU_SLOTS_PER_NODE", "Scheduler"),
    ".types": ("Allocation", "JobRecord", "JobRequest", "JobState", "Partition"),
})
