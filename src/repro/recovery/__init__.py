"""Gang-job recovery engine (DESIGN §13).

Gang-scheduled multi-node jobs with all-or-nothing allocations, a
detect→drain→reschedule→restore state machine driven by engine
events, hot-spare promotion, bounded retries with exponential backoff,
graceful degradation, and checkpoint/restore work accounting.
"""

from ..core.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".config": (
        "GANG_JOB_ID_BASE",
        "CheckpointPlan",
        "DetectionModel",
        "RECOVERY_MARKER",
        "RECOVERY_PRESETS",
        "RecoveryPolicy",
    ),
    ".machine": ("GangRecoveryManager", "GangState", "RecoverySummary"),
})
