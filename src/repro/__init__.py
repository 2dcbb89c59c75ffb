"""repro — reproduction of "Characterizing Modern GPU Resilience and
Impact in HPC Systems: A Case Study of A100 GPUs" (DSN 2025).

The library has two halves that mirror the paper's pipeline (Fig. 1):

* **Generation** (:class:`DeltaStudy`) — a discrete-event simulator of
  the Delta HPC system (106 A100 nodes, Slurm workload, calibrated GPU
  fault processes, SRE operations) that emits the raw artifacts the
  paper's authors collected: day-partitioned syslog with NVRM XID
  lines and a Slurm accounting database.
* **Analysis** (:mod:`repro.pipeline`, :mod:`repro.analysis`) — the
  paper's Stage-II/III processing: regex extraction, error coalescing,
  MTBE statistics (Table I), job-impact attribution (Table II), job
  population statistics (Table III), and availability (Figure 2).

Quickstart::

    from pathlib import Path
    from repro import DeltaStudy, StudyConfig

    artifacts = DeltaStudy(StudyConfig.small()).run(Path("out"))
    print(artifacts.summary())
"""

from .core.lazy import lazy_exports

__version__ = "1.0.0"

# Resolved on first access, so ``import repro.cli`` or ``import
# repro.pipeline`` does not load the simulator (DESIGN §6).
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".cluster": ("Cluster", "ClusterShape"),
    ".core": ("ErrorCategory", "EventClass", "PeriodName", "StudyWindow"),
    ".study": ("DeltaStudy", "StudyArtifacts", "StudyConfig"),
})
__all__.append("__version__")
