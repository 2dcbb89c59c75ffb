"""Replay-verified engine run checkpoints.

Long replicates need to survive worker kills, OOMs, and timeouts
without redoing the campaign's bookkeeping from scratch.  The DES
heap, however, holds arbitrary closures (scheduler callbacks, fault
processes), which cannot be serialized — so a cross-process engine
checkpoint cannot be a structural dump.  Instead the engine writes a
**watermark chain**: at a configurable sim-time cadence it records the
current sim-time together with two state digests — the engine's live
event multiset (:meth:`repro.sim.engine.Engine.state_digest`) and the
RNG registry's full stochastic state
(:meth:`repro.sim.rng.RngRegistry.digest`).

A resumed run rebuilds the world from the same config and seed and
replays deterministically from time zero; at every recorded watermark
it proves — digest by digest — that it is reproducing the interrupted
run exactly, then extends the chain past the old watermark.  The
result is *byte-identical* to an uninterrupted same-seed run by
construction, and any nondeterminism (an unseeded draw, an iteration
over an unordered set) is caught as a hard
:class:`~repro.core.exceptions.CheckpointError` instead of silently
corrupting the campaign's statistics.

In-process callers that want a true structural snapshot (speculative
execution, what-if forks) use :meth:`Engine.snapshot` /
:meth:`Engine.restore` instead; see DESIGN §10 for when each applies.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from ..core.atomicio import (
    atomic_write_json,
    load_json_object,
    quarantine_aside,
)
from ..core.exceptions import CheckpointError
from ..core.timebase import DAY
from .engine import Engine
from .rng import RngRegistry

#: Checkpoint document schema version; bump on incompatible changes.
CHECKPOINT_VERSION = 1

#: Event-label prefixes excluded from the engine digest: harness
#: machinery (the checkpoint ticks themselves, chaos process kills)
#: that may legitimately differ between an interrupted attempt and its
#: replaying retry.
HARNESS_LABEL_PREFIXES = ("checkpoint:", "chaos:")


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often to checkpoint one replicate.

    Attributes:
        path: checkpoint document location (JSON, atomically replaced).
        cadence_days: sim-time between watermarks.
    """

    path: Path
    cadence_days: float = 30.0

    def __post_init__(self) -> None:
        if self.cadence_days <= 0:
            raise CheckpointError(
                f"cadence_days must be positive, got {self.cadence_days}"
            )


@dataclass(frozen=True)
class CheckpointRecord:
    """One watermark: a sim-time plus the state digests proving it."""

    sim_time: float
    executed_events: int
    engine_digest: str
    rng_digest: str

    def to_json(self) -> dict:
        """JSON-serializable form of this watermark record."""
        return {
            "sim_time": self.sim_time,
            "executed_events": self.executed_events,
            "engine_digest": self.engine_digest,
            "rng_digest": self.rng_digest,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "CheckpointRecord":
        return cls(
            sim_time=float(payload["sim_time"]),
            executed_events=int(payload["executed_events"]),
            engine_digest=str(payload["engine_digest"]),
            rng_digest=str(payload["rng_digest"]),
        )


@dataclass
class RunCheckpoint:
    """The on-disk checkpoint document for one replicate.

    Attributes:
        seed: root seed of the run the chain belongs to.
        config_digest: digest of the full study configuration; a resume
            against a different config is refused.
        records: the watermark chain, in sim-time order.
        completed: True once the run reached its horizon (a resume of a
            completed run verifies the whole chain and changes nothing).
    """

    seed: int
    config_digest: str
    records: List[CheckpointRecord]
    completed: bool = False

    @property
    def watermark(self) -> float:
        """Sim-time of the newest record (0 when the chain is empty)."""
        return self.records[-1].sim_time if self.records else 0.0

    def save(self, path: Path) -> None:
        """Atomically write the document (tempfile + rename + fsync)."""
        atomic_write_json(
            path,
            {
                "version": CHECKPOINT_VERSION,
                "seed": self.seed,
                "config_digest": self.config_digest,
                "completed": self.completed,
                "records": [r.to_json() for r in self.records],
            },
        )

    @classmethod
    def load(cls, path: Path) -> Optional["RunCheckpoint"]:
        """Read a checkpoint document; ``None`` when absent or unusable.

        A damaged document (unparseable, not a JSON object, or missing
        fields) is moved aside as ``<name>.corrupt-<n>`` and the run
        starts fresh; a version-skewed one is a plain stale miss.
        Thanks to atomic writes damage only comes from external
        tampering, never from a crashed writer.
        """
        payload = load_json_object(path)
        if payload is None or payload.get("version") != CHECKPOINT_VERSION:
            return None
        try:
            return cls(
                seed=int(payload["seed"]),
                config_digest=str(payload["config_digest"]),
                completed=bool(payload.get("completed", False)),
                records=[
                    CheckpointRecord.from_json(r)
                    for r in payload.get("records", [])
                ],
            )
        except (KeyError, TypeError, ValueError):
            with contextlib.suppress(OSError):
                quarantine_aside(path)
            return None


class CheckpointRecorder:
    """Schedules and verifies the watermark chain during one run.

    Fresh runs append a record (and atomically rewrite the document)
    at every cadence tick.  Resumed runs first *verify* each tick
    against the loaded chain — raising
    :class:`~repro.core.exceptions.CheckpointError` on the first
    divergence — then switch to appending once past the old watermark.
    """

    def __init__(
        self,
        config: CheckpointConfig,
        engine: Engine,
        rngs: RngRegistry,
        config_digest: str,
        resume_from: Optional[RunCheckpoint] = None,
        metrics=None,
    ) -> None:
        if resume_from is not None:
            if resume_from.seed != rngs.seed:
                raise CheckpointError(
                    f"checkpoint seed {resume_from.seed} does not match "
                    f"run seed {rngs.seed}"
                )
            if resume_from.config_digest != config_digest:
                raise CheckpointError(
                    "checkpoint was written by a run with a different "
                    "study configuration"
                )
        self._config = config
        self._engine = engine
        self._rngs = rngs
        self._document = RunCheckpoint(
            seed=rngs.seed,
            config_digest=config_digest,
            records=list(resume_from.records) if resume_from else [],
        )
        self._verify_until = len(self._document.records)
        self._tick_index = 0
        self._metrics = metrics

    @property
    def records_verified(self) -> int:
        """Watermarks re-proven so far during this (resumed) run."""
        return min(self._tick_index, self._verify_until)

    @property
    def records_written(self) -> int:
        """Fresh watermarks appended by this run."""
        return max(self._tick_index - self._verify_until, 0)

    def arm(self) -> None:
        """Schedule the first cadence tick."""
        interval = self._config.cadence_days * DAY
        if interval < self._engine.horizon:
            self._engine.schedule(
                interval, self._tick, priority=-50, label="checkpoint:tick"
            )

    def _current_record(self) -> CheckpointRecord:
        return CheckpointRecord(
            sim_time=self._engine.now,
            executed_events=self._engine.executed_events,
            engine_digest=self._engine.state_digest(
                exclude_label_prefixes=HARNESS_LABEL_PREFIXES
            ),
            rng_digest=self._rngs.digest(),
        )

    def _tick(self) -> None:
        record = self._current_record()
        if self._tick_index < self._verify_until:
            expected = self._document.records[self._tick_index]
            for field_name in ("engine_digest", "rng_digest"):
                if getattr(record, field_name) != getattr(
                    expected, field_name
                ):
                    raise CheckpointError(
                        f"resume diverged at sim day "
                        f"{record.sim_time / DAY:.1f}: {field_name} "
                        f"{getattr(record, field_name)[:12]}... != recorded "
                        f"{getattr(expected, field_name)[:12]}..."
                    )
            self._count("verified")
        else:
            self._document.records.append(record)
            self._document.save(self._config.path)
            self._count("written")
        self._tick_index += 1
        interval = self._config.cadence_days * DAY
        if self._engine.now + interval < self._engine.horizon:
            self._engine.schedule_after(
                interval, self._tick, priority=-50, label="checkpoint:tick"
            )

    def finalize(self) -> None:
        """Mark the run complete and write the final document."""
        self._document.completed = True
        self._document.save(self._config.path)

    def _count(self, outcome: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(
                "sim_checkpoint_ticks_total",
                "engine checkpoint cadence ticks, by outcome",
                labels=("outcome",),
            ).labels(outcome=outcome).inc()
