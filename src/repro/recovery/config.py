"""Configuration of the gang-job recovery engine.

A :class:`RecoveryPolicy` bundles everything the
:class:`~repro.recovery.machine.GangRecoveryManager` needs: the gang
workload to inject (:class:`~repro.workload.spec.GangJobSpec`), the
failure-detection latency model, the checkpoint plan, and the
drain/reschedule knobs (spare pool, bounded retries with exponential
backoff, degradation floor).

Everything is a frozen dataclass so a policy can live inside
:class:`~repro.study.config.StudyConfig` and participate in its
``repr``-based digest — two runs with the same seed and policy are
byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..core.exceptions import ConfigurationError
from ..workload.spec import GangJobSpec

#: Gang segment jobs get ids far above the generator's 1..N range so
#: the two populations can never collide in the accounting database.
GANG_JOB_ID_BASE = 9_000_000

#: Prefix of every recovery log line (Stage-II's extraction marker).
#: Defined here, not in :mod:`~repro.recovery.machine`, so the
#: pipeline can match it without loading the simulator.
RECOVERY_MARKER = "gangd: job "


@dataclass(frozen=True)
class DetectionModel:
    """Failure-detection latency distribution.

    A fatal gang error is noticed after ``floor + Exp(mean)`` seconds
    — except with probability ``undetected_probability`` the failure
    is a *silent hang* (the LLM-pretraining operational reports' worst
    case): fast detection misses it entirely and only the hang
    watchdog fires, after ``hang_timeout_seconds``.

    Attributes:
        mean_seconds: mean of the exponential detection latency.
        floor_seconds: minimum latency (log shipping, health-check
            cadence).
        undetected_probability: chance the failure manifests as an
            undetected hang.
        hang_timeout_seconds: watchdog deadline that catches hangs.
    """

    mean_seconds: float = 120.0
    floor_seconds: float = 15.0
    undetected_probability: float = 0.0
    hang_timeout_seconds: float = 3_600.0

    def __post_init__(self) -> None:
        if self.mean_seconds < 0 or self.floor_seconds < 0:
            raise ConfigurationError("detection latencies must be >= 0")
        if not 0.0 <= self.undetected_probability <= 1.0:
            raise ConfigurationError(
                "undetected_probability must be in [0, 1]"
            )
        if self.hang_timeout_seconds <= 0:
            raise ConfigurationError("hang_timeout_seconds must be positive")


@dataclass(frozen=True)
class CheckpointPlan:
    """When gangs checkpoint and what a checkpoint costs.

    Attributes:
        mode: ``"young_daly"`` derives the interval from the calibrated
            MTBE (``sqrt(2 w M)`` with ``M`` scaled by gang size);
            ``"fixed"`` uses ``interval_hours`` as given.
        interval_hours: the fixed interval (``mode="fixed"`` only).
        write_minutes: wall cost of writing one checkpoint (the gang
            stalls while writing).
        restore_minutes: wall cost of reloading the last checkpoint at
            the start of a restarted segment.
        mtbe_hours_per_node: calibrated per-node MTBE feeding the
            Young/Daly derivation (Table I operational value).
    """

    mode: str = "young_daly"
    interval_hours: float = 2.0
    write_minutes: float = 4.0
    restore_minutes: float = 10.0
    mtbe_hours_per_node: float = 154.0

    def __post_init__(self) -> None:
        if self.mode not in ("young_daly", "fixed"):
            raise ConfigurationError(
                f"checkpoint mode must be 'young_daly' or 'fixed', "
                f"got {self.mode!r}"
            )
        for name in (
            "interval_hours", "write_minutes",
            "restore_minutes", "mtbe_hours_per_node",
        ):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ConfigurationError(f"{name} must be finite and > 0")

    def interval_seconds_for(self, gang_nodes: int) -> float:
        """The checkpoint interval a gang of ``gang_nodes`` uses."""
        if self.mode == "fixed":
            return self.interval_hours * 3600.0
        from ..analysis.checkpoint import young_interval_hours

        mtbf_hours = self.mtbe_hours_per_node / max(gang_nodes, 1)
        return young_interval_hours(self.write_minutes, mtbf_hours) * 3600.0


@dataclass(frozen=True)
class RecoveryPolicy:
    """Full configuration of the gang recovery engine.

    Attributes:
        gang: the gang workload to inject.
        detection: failure-detection latency model.
        checkpoint: checkpoint cadence and costs.
        spare_nodes: GPU nodes held out of the general pool as hot
            spares; a failed member node is swapped for a spare.
        drain_seconds: fixed time to cordon the failed node and tear
            down the dead allocation before rescheduling.
        max_retries: placement attempts per incident before the gang
            degrades (sheds a node) or fails permanently.
        backoff_base_seconds / backoff_factor: deterministic
            exponential backoff between placement attempts.
        cordon_minutes: how long a failed node stays cordoned before
            it rejoins the pool (as a spare when one was promoted).
        min_gang_nodes: degradation floor; below this the gang fails
            permanently.
    """

    gang: GangJobSpec = field(default_factory=GangJobSpec)
    detection: DetectionModel = field(default_factory=DetectionModel)
    checkpoint: CheckpointPlan = field(default_factory=CheckpointPlan)
    spare_nodes: int = 1
    drain_seconds: float = 30.0
    max_retries: int = 4
    backoff_base_seconds: float = 60.0
    backoff_factor: float = 2.0
    cordon_minutes: float = 45.0
    min_gang_nodes: int = 1

    def __post_init__(self) -> None:
        if self.spare_nodes < 0:
            raise ConfigurationError("spare_nodes must be >= 0")
        if self.drain_seconds < 0:
            raise ConfigurationError("drain_seconds must be >= 0")
        if self.max_retries < 1:
            raise ConfigurationError("max_retries must be >= 1")
        if self.backoff_base_seconds < 0 or self.backoff_factor < 1.0:
            raise ConfigurationError(
                "backoff base must be >= 0 and factor >= 1"
            )
        if self.cordon_minutes < 0:
            raise ConfigurationError("cordon_minutes must be >= 0")
        if not 1 <= self.min_gang_nodes <= self.gang.gang_nodes:
            raise ConfigurationError(
                "min_gang_nodes must be in [1, gang_nodes]"
            )

    def backoff_delays(self) -> Tuple[float, ...]:
        """The deterministic retry-delay schedule for one incident."""
        return tuple(
            self.backoff_base_seconds * self.backoff_factor**attempt
            for attempt in range(self.max_retries)
        )


#: Named presets for ``repro simulate --recovery``.
RECOVERY_PRESETS: Dict[str, RecoveryPolicy] = {
    # Calibrated A100 baseline: Young/Daly interval from the Table I
    # operational MTBE, prompt detection, one hot spare.
    "a100": RecoveryPolicy(),
    # Everything detected within seconds (aggressive health checking).
    "fast-detect": RecoveryPolicy(
        detection=DetectionModel(mean_seconds=20.0, floor_seconds=5.0)
    ),
    # Hang sweep: 30% of failures manifest as silent hangs caught only
    # by the one-hour watchdog.
    "undetected-hang": RecoveryPolicy(
        detection=DetectionModel(undetected_probability=0.3)
    ),
    # No hot spares: recovery must survive on remaining capacity and
    # graceful degradation.
    "no-spare": RecoveryPolicy(spare_nodes=0),
    # Fixed 2-hour checkpoints (the non-optimized comparison point).
    "fixed-2h": RecoveryPolicy(
        checkpoint=CheckpointPlan(mode="fixed", interval_hours=2.0)
    ),
}
