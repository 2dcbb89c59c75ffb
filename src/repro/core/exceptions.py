"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch library failures without catching programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A study or component configuration is inconsistent or incomplete."""


class CalibrationError(ReproError):
    """Calibrated parameters are missing or out of their valid range."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an invalid internal state."""


class SchedulingError(ReproError):
    """The Slurm-like scheduler was asked to do something impossible."""


class TopologyError(ReproError):
    """The cluster topology is malformed (unknown node, bad NVLink pair...)."""


class LogFormatError(ReproError):
    """A raw log line or accounting record could not be parsed.

    Attributes:
        reason: machine-readable reason code (one of the quarantine
            reason constants in :mod:`repro.syslog.quarantine`), used
            by the tolerant reader to bucket rejected lines.
    """

    def __init__(self, message: str, reason: str = "malformed") -> None:
        super().__init__(message)
        self.reason = reason


class PipelineInterrupted(ReproError):
    """A pipeline run was interrupted before completion.

    Raised by :func:`repro.pipeline.run.run_pipeline` when an
    ``interrupt_after_files`` limit fires (used by crash-recovery
    drills and tests).  With ``scan_cache=True`` the day scans stored
    so far stay valid, so running the pass again completes it.
    """


class AnalysisError(ReproError):
    """A Stage-III analysis was run on inconsistent or insufficient data."""


class SimulationInterrupted(ReproError):
    """A checkpointed study run was interrupted before its horizon.

    Raised by :meth:`repro.study.runner.DeltaStudy.run` when an
    ``interrupt_at_day`` drill fires mid-run (crash-recovery tests).
    Checkpoint records written so far remain valid, so a subsequent
    resumed run completes and yields byte-identical artifacts.
    """


class CheckpointError(ReproError):
    """An engine checkpoint is unusable or a resumed run diverged.

    Divergence means the replayed simulation reached a checkpointed
    sim-time with a different engine or RNG state digest than the
    original run recorded — i.e. the run is not deterministic, which
    the resume path treats as a hard error rather than silently
    producing different artifacts.
    """


class CampaignError(ReproError):
    """A campaign supervisor run could not produce any usable cells.

    Partial success (some cells permanently failed, others completed)
    is *not* an exception — the supervisor degrades gracefully and
    reports coverage; this is raised only when the campaign as a whole
    is unusable (invalid spec, zero surviving cells).
    """
