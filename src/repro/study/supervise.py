"""Fault-tolerant campaign supervisor: process-isolated study workers.

The paper's tables come from multi-year sweeps; we reproduce them as
multi-seed, multi-config simulation **campaigns**.  Running every
replicate in-process means one hung or crashed replicate kills the
whole campaign and discards completed work — operationally the exact
failure mode the resilience literature (PAPERS.md: "From Detection to
Recovery") says dominates at scale.  This module wraps
:class:`~repro.study.runner.DeltaStudy` in the standard
detection → isolate → retry → resume loop:

* every **cell** (seed × config point) runs in its own worker
  subprocess — a segfault, OOM kill, hang, or raised exception fails
  only that cell;
* each attempt has a wall-clock **timeout**; expired workers are
  killed and the cell is re-queued;
* failed cells are retried with **bounded exponential backoff plus
  deterministic jitter**, up to ``max_attempts`` worker faults;
* every state transition is persisted to an atomically written
  **campaign manifest**, so ``repro study --resume`` skips completed
  cells and re-queues failed or stale-running ones;
* the campaign finishes with **graceful degradation**: aggregation
  over the surviving cells plus a coverage annotation (N of M cells,
  which seeds missing) stamped into ``campaign_summary.json`` and the
  rendered summary.

Workers communicate results through the filesystem only (an atomically
written ``result.json`` per cell) — there is no pipe for a dying
worker to corrupt.  With a checkpoint cadence configured, each worker
also maintains a replay-verified engine checkpoint chain
(:mod:`repro.sim.checkpoint`), so a retried attempt proves it is
reproducing the killed attempt's simulation exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import multiprocessing.connection
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.atomicio import (
    atomic_write_json,
    atomic_write_text,
    load_json_object,
)
from ..core.exceptions import CampaignError, ConfigurationError
from ..obs import Telemetry
from ..sim.checkpoint import CheckpointConfig
from .chaos import WorkerChaosConfig, WorkerChaosPlan
from .config import StudyConfig
from .runner import DeltaStudy

#: Manifest schema version; bump on incompatible changes.
MANIFEST_VERSION = 1

#: Cell states recorded in the manifest.
STATUS_PENDING = "pending"
STATUS_RUNNING = "running"
STATUS_DONE = "done"
STATUS_FAILED = "failed"
STATUS_INTERRUPTED = "interrupted"

#: Per-attempt outcomes recorded in the manifest history.
OUTCOME_OK = "ok"
OUTCOME_CRASH = "crash"
OUTCOME_ERROR = "error"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_NO_RESULT = "no-result"
OUTCOME_INTERRUPTED = "interrupted"

_CONFIG_PRESETS = ("small", "delta", "delta-workload")


def _build_cell_config(preset: str, seed: int, overrides: dict) -> StudyConfig:
    """Materialize one cell's :class:`StudyConfig` from its spec."""
    if preset == "small":
        return StudyConfig.small(seed=seed, **overrides)
    if preset == "delta":
        return StudyConfig.delta(seed=seed, **overrides)
    if preset == "delta-workload":
        return StudyConfig.delta_workload_focused(seed=seed, **overrides)
    raise ConfigurationError(
        f"unknown config preset {preset!r} (choose from {_CONFIG_PRESETS})"
    )


@dataclass(frozen=True)
class CellSpec:
    """One campaign cell: a (seed, config point) replicate."""

    cell_id: str
    preset: str
    seed: int
    overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.preset not in _CONFIG_PRESETS:
            raise ConfigurationError(
                f"unknown config preset {self.preset!r} "
                f"(choose from {_CONFIG_PRESETS})"
            )

    def build_config(self) -> StudyConfig:
        """Materialize this cell's :class:`StudyConfig`."""
        return _build_cell_config(self.preset, self.seed, dict(self.overrides))


@dataclass(frozen=True)
class CampaignLimits:
    """Worker lifecycle bounds.

    Attributes:
        max_workers: concurrent worker subprocesses.
        timeout_seconds: per-attempt wall-clock budget; expired workers
            are killed (this is the only recourse against a hang).
        max_attempts: worker faults tolerated per cell before it is
            marked permanently failed.
        backoff_base_seconds / backoff_factor / backoff_max_seconds:
            exponential backoff schedule between retries of one cell.
        backoff_jitter: uniform jitter fraction on top of the backoff
            (deterministic per (campaign, cell, failure index)).
        poll_interval_seconds: supervisor loop cadence.
    """

    max_workers: int = 4
    timeout_seconds: float = 600.0
    max_attempts: int = 3
    backoff_base_seconds: float = 0.5
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 30.0
    backoff_jitter: float = 0.25
    poll_interval_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1")
        if self.timeout_seconds <= 0:
            raise ConfigurationError("timeout_seconds must be positive")
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")

    def backoff_seconds(self, campaign: str, cell_id: str, failures: int) -> float:
        """Backoff before retry number ``failures`` of one cell."""
        base = self.backoff_base_seconds * (
            self.backoff_factor ** max(failures - 1, 0)
        )
        base = min(base, self.backoff_max_seconds)
        key = f"{campaign}:{cell_id}:{failures}".encode("utf-8")
        rng = random.Random(
            int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
        )
        return base * (1.0 + self.backoff_jitter * rng.random())


@dataclass(frozen=True)
class CampaignSpec:
    """A full campaign: cells plus the supervision policy."""

    name: str
    cells: Tuple[CellSpec, ...]
    limits: CampaignLimits = field(default_factory=CampaignLimits)
    checkpoint_cadence_days: Optional[float] = None
    chaos: Optional[WorkerChaosConfig] = None
    start_method: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.cells:
            raise CampaignError("a campaign needs at least one cell")
        ids = [cell.cell_id for cell in self.cells]
        if len(set(ids)) != len(ids):
            raise CampaignError("duplicate cell ids in campaign spec")

    @classmethod
    def sweep(
        cls,
        name: str,
        preset: str,
        seeds: Tuple[int, ...],
        overrides: Optional[dict] = None,
        **kwargs,
    ) -> "CampaignSpec":
        """A one-config, many-seed sweep (the common campaign shape)."""
        overrides = overrides or {}
        cells = tuple(
            CellSpec(
                cell_id=f"{preset}-seed{seed:05d}",
                preset=preset,
                seed=seed,
                overrides=dict(overrides),
            )
            for seed in seeds
        )
        return cls(name=name, cells=cells, **kwargs)

    def digest(self) -> str:
        """Deterministic spec hash (guards --resume against spec drift).

        Covers the cells and the checkpoint cadence — the things that
        define what a completed cell *means* — but not the supervision
        policy (timeouts, retry budget, chaos, worker count), which may
        legitimately differ between the interrupted run and the resume.
        """
        payload = {
            "cells": [
                {
                    "cell_id": c.cell_id,
                    "preset": c.preset,
                    "seed": c.seed,
                    "overrides": c.overrides,
                }
                for c in self.cells
            ],
            "checkpoint_cadence_days": self.checkpoint_cadence_days,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _worker_entry(payload: dict) -> None:
    """Run one cell attempt inside a worker subprocess.

    Communicates exclusively through the filesystem: artifacts plus an
    atomically written ``result.json`` on success, a traceback in the
    attempt log on failure.  The exit status is the only IPC channel —
    a dying worker cannot tear a pipe protocol.
    """
    out_dir = Path(payload["artifact_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / f"worker-attempt{payload['attempt']:02d}.log"
    with open(log_path, "w", encoding="utf-8") as log:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            try:
                plan = WorkerChaosPlan.from_json(payload.get("chaos_plan"))
                config = _build_cell_config(
                    payload["preset"], payload["seed"], payload["overrides"]
                )
                checkpoint = None
                cadence = payload.get("checkpoint_cadence_days")
                if cadence is not None:
                    checkpoint = CheckpointConfig(
                        path=out_dir / "engine_checkpoint.json",
                        cadence_days=cadence,
                    )
                artifacts = DeltaStudy(config).run(
                    out_dir,
                    checkpoint=checkpoint,
                    resume=checkpoint is not None,
                    on_engine=plan.arm if plan is not None else None,
                )
                artifacts.save_result(out_dir / "result.json")
            except BaseException:
                traceback.print_exc(file=log)
                log.flush()
                raise SystemExit(1)


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------


@dataclass
class CoverageAnnotation:
    """How much of the campaign survived (graceful-degradation stamp)."""

    cells_total: int
    cells_completed: int
    missing: Tuple[str, ...]
    missing_seeds: Tuple[int, ...]

    @property
    def fraction(self) -> float:
        if self.cells_total == 0:
            return 0.0
        return self.cells_completed / self.cells_total

    @property
    def complete(self) -> bool:
        return self.cells_completed == self.cells_total

    def to_json(self) -> dict:
        """JSON-serializable form (stamped into campaign_summary.json)."""
        return {
            "cells_total": self.cells_total,
            "cells_completed": self.cells_completed,
            "fraction": round(self.fraction, 6),
            "missing_cells": list(self.missing),
            "missing_seeds": list(self.missing_seeds),
        }

    def render(self) -> str:
        """One-line human-readable coverage summary."""
        line = (
            f"coverage: {self.cells_completed}/{self.cells_total} cells "
            f"({100.0 * self.fraction:.1f}%)"
        )
        if self.missing:
            line += (
                f"; missing seeds: "
                f"{', '.join(str(s) for s in self.missing_seeds)}"
            )
        return line


@dataclass
class CampaignResult:
    """What one supervisor pass produced."""

    campaign_dir: Path
    manifest_path: Path
    summary_path: Path
    coverage: CoverageAnnotation
    aggregates: dict
    cell_status: Dict[str, str]
    interrupted: bool = False

    @property
    def succeeded(self) -> bool:
        return self.coverage.complete and not self.interrupted


class _ActiveWorker:
    """Book-keeping for one in-flight worker subprocess."""

    __slots__ = ("process", "cell_id", "attempt", "deadline", "started")

    def __init__(self, process, cell_id, attempt, deadline, started):
        self.process = process
        self.cell_id = cell_id
        self.attempt = attempt
        self.deadline = deadline
        self.started = started


class CampaignSupervisor:
    """Fans campaign cells out to supervised worker subprocesses.

    Args:
        spec: the campaign definition.
        campaign_dir: root directory; the manifest, the summary, and a
            ``cells/<cell_id>/`` artifact directory per cell live here.
        telemetry: optional :class:`~repro.obs.Telemetry` (wall-clock
            domain; the supervisor is host-side machinery).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        campaign_dir: Path,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self._spec = spec
        self._dir = Path(campaign_dir)
        self._manifest_path = self._dir / "manifest.json"
        self._summary_path = self._dir / "campaign_summary.json"
        self._tel = telemetry if telemetry is not None else Telemetry.disabled()
        self._metrics = self._tel.metrics if self._tel.enabled else None
        method = spec.start_method
        if method is None:
            available = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in available else "spawn"
        self._ctx = multiprocessing.get_context(method)
        self._cells: Dict[str, dict] = {}

    # -- manifest ------------------------------------------------------

    def _fresh_cell_state(self, cell: CellSpec) -> dict:
        return {
            "cell_id": cell.cell_id,
            "preset": cell.preset,
            "seed": cell.seed,
            "overrides": dict(cell.overrides),
            "status": STATUS_PENDING,
            "attempts": 0,
            "failures": 0,
            "last_error": None,
            "artifact_dir": str(self._cell_dir(cell.cell_id)),
            "history": [],
        }

    def _cell_dir(self, cell_id: str) -> Path:
        return self._dir / "cells" / cell_id

    def _save_manifest(self) -> None:
        atomic_write_json(
            self._manifest_path,
            {
                "version": MANIFEST_VERSION,
                "campaign": self._spec.name,
                "spec_digest": self._spec.digest(),
                "cells": self._cells,
            },
            indent=2,
        )

    def _load_manifest(self) -> Optional[dict]:
        """The prior manifest, or ``None`` (absent, stale, or damaged —
        a damaged one is moved aside as ``manifest.json.corrupt-<n>``)."""
        payload = load_json_object(self._manifest_path)
        if payload is None or payload.get("version") != MANIFEST_VERSION:
            return None
        return payload

    def _init_cells(self, resume: bool) -> None:
        """Build the cell table, reconciling a prior manifest on resume.

        Completed cells keep their status only if their ``result.json``
        is still present (the manifest never outruns the artifacts it
        points to).  Cells recorded as ``running`` are stale — their
        supervisor died — and are re-queued without burning a fault
        from the retry budget, as are ``interrupted`` and ``failed``
        cells (a resume is an explicit request to try again).
        """
        previous: Dict[str, dict] = {}
        if resume:
            manifest = self._load_manifest()
            if manifest is not None:
                if manifest.get("spec_digest") != self._spec.digest():
                    raise CampaignError(
                        "manifest belongs to a different campaign spec; "
                        "refusing to resume"
                    )
                previous = manifest.get("cells", {})
        self._cells = {}
        for cell in self._spec.cells:
            state = previous.get(cell.cell_id) or self._fresh_cell_state(cell)
            if state["status"] == STATUS_DONE:
                result = self._cell_dir(cell.cell_id) / "result.json"
                if not result.is_file():
                    state["status"] = STATUS_PENDING
                    state["last_error"] = "result.json missing on resume"
            elif state["status"] in (
                STATUS_RUNNING,
                STATUS_INTERRUPTED,
                STATUS_FAILED,
            ):
                state["status"] = STATUS_PENDING
            self._cells[cell.cell_id] = state
        self._save_manifest()

    # -- metrics -------------------------------------------------------

    def _count(self, name: str, help_text: str, **labels) -> None:
        if self._metrics is None:
            return
        counter = self._metrics.counter(
            name, help_text, labels=tuple(sorted(labels))
        )
        counter.labels(**labels).inc()

    def _attempt_finished(self, outcome: str, wall_seconds: float) -> None:
        if self._metrics is None:
            return
        self._count(
            "supervisor_worker_attempts_total",
            "worker attempts by outcome",
            outcome=outcome,
        )
        self._metrics.histogram(
            "supervisor_attempt_seconds",
            "worker attempt wall time",
            domain="host",
        ).observe(wall_seconds)

    # -- main loop -----------------------------------------------------

    def run(
        self,
        resume: bool = False,
        stop_after_cells: Optional[int] = None,
    ) -> CampaignResult:
        """Drive the campaign to completion (or graceful degradation).

        Args:
            resume: reconcile against an existing manifest — completed
                cells are skipped, failed/stale ones re-queued.
            stop_after_cells: supervisor-crash drill — after this many
                cells complete *in this pass*, kill the in-flight
                workers, mark them interrupted, and return early (the
                campaign is then finishable with ``resume=True``).

        Returns:
            the :class:`CampaignResult`; check ``coverage`` for
            degradation.  Raises
            :class:`~repro.core.exceptions.CampaignError` only when no
            cell produced a usable result.
        """
        self._dir.mkdir(parents=True, exist_ok=True)
        self._init_cells(resume)
        limits = self._spec.limits
        specs = {cell.cell_id: cell for cell in self._spec.cells}
        # (eligible_at, cell_id) queue of work not yet done.
        queue: List[Tuple[float, str]] = [
            (0.0, cell_id)
            for cell_id, state in self._cells.items()
            if state["status"] == STATUS_PENDING
        ]
        active: Dict[str, _ActiveWorker] = {}
        completed_this_pass = 0
        interrupted = False

        with self._tel.tracer.span(
            "campaign", campaign=self._spec.name, cells=len(self._spec.cells)
        ):
            self._tel.logger.event(
                "campaign.start",
                campaign=self._spec.name,
                cells=len(self._spec.cells),
                pending=len(queue),
                resume=resume,
            )
            while queue or active:
                now = time.monotonic()
                # Launch eligible work into free slots.
                queue.sort()
                while queue and len(active) < limits.max_workers:
                    eligible_at, cell_id = queue[0]
                    if eligible_at > now:
                        break
                    queue.pop(0)
                    active[cell_id] = self._launch(specs[cell_id], now)
                # Reap finished and expired workers.
                for cell_id in list(active):
                    worker = active[cell_id]
                    now = time.monotonic()
                    if worker.process.is_alive():
                        if now < worker.deadline:
                            continue
                        self._kill(worker)
                        outcome = OUTCOME_TIMEOUT
                        error = (
                            f"attempt {worker.attempt} exceeded "
                            f"{limits.timeout_seconds:.1f}s wall-clock "
                            f"timeout"
                        )
                        self._count(
                            "supervisor_timeouts_total",
                            "worker attempts killed on timeout",
                        )
                    else:
                        worker.process.join()
                        outcome, error = self._classify_exit(worker)
                    del active[cell_id]
                    retry_delay = self._record_outcome(
                        cell_id, worker, outcome, error
                    )
                    if outcome == OUTCOME_OK:
                        completed_this_pass += 1
                        if (
                            stop_after_cells is not None
                            and completed_this_pass >= stop_after_cells
                        ):
                            interrupted = True
                            break
                    elif retry_delay is not None:
                        queue.append((time.monotonic() + retry_delay, cell_id))
                if interrupted:
                    self._interrupt_active(active)
                    break
                if queue or active:
                    self._idle_wait(queue, active, limits)

        result = self._finish(interrupted)
        self._tel.logger.event(
            "campaign.done",
            completed=result.coverage.cells_completed,
            total=result.coverage.cells_total,
            interrupted=interrupted,
        )
        return result

    def _idle_wait(
        self,
        queue: List[Tuple[float, str]],
        active: Dict[str, _ActiveWorker],
        limits: CampaignLimits,
    ) -> None:
        """Block until the next actionable moment.

        Waits on the active workers' process sentinels so an exiting
        worker wakes the supervisor immediately (no polling latency on
        the reap/relaunch path), bounded by the nearest timeout
        deadline or backoff expiry.  ``poll_interval_seconds`` only
        matters as the fallback cadence when there is nothing to wait
        on, and as a defensive cap via the 1-second ceiling.
        """
        now = time.monotonic()
        wake = [worker.deadline for worker in active.values()]
        if len(active) < limits.max_workers:
            # Backoff expiries only matter while a slot is free.
            wake.extend(eligible_at for eligible_at, _ in queue)
        timeout = min(wake) - now if wake else limits.poll_interval_seconds
        timeout = max(min(timeout, 1.0), 0.0)
        if active:
            multiprocessing.connection.wait(
                [worker.process.sentinel for worker in active.values()],
                timeout=timeout,
            )
        elif timeout > 0.0:
            time.sleep(timeout)

    # -- worker lifecycle ----------------------------------------------

    def _launch(self, cell: CellSpec, now: float) -> _ActiveWorker:
        state = self._cells[cell.cell_id]
        attempt = state["attempts"] + 1
        state["attempts"] = attempt
        state["status"] = STATUS_RUNNING
        chaos_plan = None
        if self._spec.chaos is not None:
            plan = self._spec.chaos.plan(cell.cell_id, attempt)
            if not plan.is_noop:
                chaos_plan = plan.to_json()
        payload = {
            "cell_id": cell.cell_id,
            "preset": cell.preset,
            "seed": cell.seed,
            "overrides": dict(cell.overrides),
            "attempt": attempt,
            "artifact_dir": state["artifact_dir"],
            "checkpoint_cadence_days": self._spec.checkpoint_cadence_days,
            "chaos_plan": chaos_plan,
        }
        process = self._ctx.Process(
            target=_worker_entry, args=(payload,), daemon=True
        )
        process.start()
        if attempt > 1:
            self._count(
                "supervisor_retries_total", "cell attempts beyond the first"
            )
        state.setdefault("history", []).append(
            {
                "attempt": attempt,
                "outcome": None,
                "exit_code": None,
                "chaos": chaos_plan,
            }
        )
        self._save_manifest()
        self._tel.logger.event(
            "campaign.launch",
            cell=cell.cell_id,
            attempt=attempt,
            chaos=(chaos_plan or {}).get("action"),
        )
        return _ActiveWorker(
            process=process,
            cell_id=cell.cell_id,
            attempt=attempt,
            deadline=now + self._spec.limits.timeout_seconds,
            started=now,
        )

    def _kill(self, worker: _ActiveWorker) -> None:
        """Forcibly reclaim a worker (terminate, escalate to kill)."""
        process = worker.process
        process.terminate()
        process.join(timeout=2.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)

    def _classify_exit(
        self, worker: _ActiveWorker
    ) -> Tuple[str, Optional[str]]:
        code = worker.process.exitcode
        result = (
            Path(self._cells[worker.cell_id]["artifact_dir"]) / "result.json"
        )
        if code == 0:
            if result.is_file():
                return OUTCOME_OK, None
            return (
                OUTCOME_NO_RESULT,
                f"attempt {worker.attempt} exited 0 without result.json",
            )
        if code is not None and code < 0:
            return (
                OUTCOME_CRASH,
                f"attempt {worker.attempt} killed by signal {-code}",
            )
        return (
            OUTCOME_ERROR,
            f"attempt {worker.attempt} exited with status {code} "
            f"(see worker-attempt{worker.attempt:02d}.log)",
        )

    def _record_outcome(
        self,
        cell_id: str,
        worker: _ActiveWorker,
        outcome: str,
        error: Optional[str],
    ) -> Optional[float]:
        """Update the manifest for one finished attempt.

        Returns the retry backoff delay in seconds, or ``None`` when
        the cell is settled (done or permanently failed).
        """
        limits = self._spec.limits
        state = self._cells[cell_id]
        wall = time.monotonic() - worker.started
        if state["history"]:
            state["history"][-1].update(
                outcome=outcome,
                exit_code=worker.process.exitcode,
                wall_seconds=round(wall, 3),
            )
        # The tracer's span stack is LIFO while workers finish in any
        # order, so attempt spans are recorded at completion time.
        with self._tel.tracer.span(
            "cell-attempt",
            cell=cell_id,
            attempt=worker.attempt,
            outcome=outcome,
            wall_seconds=round(wall, 3),
        ):
            pass
        self._attempt_finished(outcome, wall)

        retry_delay: Optional[float] = None
        if outcome == OUTCOME_OK:
            state["status"] = STATUS_DONE
            state["last_error"] = None
        else:
            state["failures"] += 1
            state["last_error"] = error
            if state["failures"] >= limits.max_attempts:
                state["status"] = STATUS_FAILED
            else:
                state["status"] = STATUS_PENDING
                retry_delay = limits.backoff_seconds(
                    self._spec.name, cell_id, state["failures"]
                )
        self._save_manifest()
        self._tel.logger.event(
            "campaign.attempt-done",
            cell=cell_id,
            attempt=worker.attempt,
            outcome=outcome,
            status=state["status"],
            retry_in=retry_delay,
        )
        return retry_delay

    def _interrupt_active(self, active: Dict[str, _ActiveWorker]) -> None:
        """Kill in-flight workers during a supervisor-stop drill."""
        for cell_id, worker in active.items():
            self._kill(worker)
            state = self._cells[cell_id]
            state["status"] = STATUS_INTERRUPTED
            if state["history"]:
                state["history"][-1].update(
                    outcome=OUTCOME_INTERRUPTED,
                    exit_code=worker.process.exitcode,
                )
            self._attempt_finished(OUTCOME_INTERRUPTED, 0.0)
        active.clear()
        self._save_manifest()

    # -- aggregation / degradation -------------------------------------

    def _finish(self, interrupted: bool) -> CampaignResult:
        """Aggregate surviving cells and stamp the coverage annotation."""
        done: Dict[str, dict] = {}
        for cell_id in sorted(self._cells):
            state = self._cells[cell_id]
            if state["status"] != STATUS_DONE:
                continue
            result_path = Path(state["artifact_dir"]) / "result.json"
            try:
                done[cell_id] = json.loads(result_path.read_text("utf-8"))
            except (OSError, ValueError):
                state["status"] = STATUS_FAILED
                state["last_error"] = "result.json unreadable at aggregation"
        missing = tuple(
            cell_id
            for cell_id in sorted(self._cells)
            if cell_id not in done
        )
        coverage = CoverageAnnotation(
            cells_total=len(self._cells),
            cells_completed=len(done),
            missing=missing,
            missing_seeds=tuple(
                self._cells[cell_id]["seed"] for cell_id in missing
            ),
        )
        aggregates = _aggregate_results(done)
        summary = {
            "campaign": self._spec.name,
            "spec_digest": self._spec.digest(),
            "coverage": coverage.to_json(),
            "aggregates": aggregates,
            "cells": done,
        }
        atomic_write_json(self._summary_path, summary, indent=2)
        atomic_write_text(
            self._dir / "summary.md",
            render_campaign_summary(self._spec.name, coverage, aggregates),
        )
        if self._metrics is not None:
            self._metrics.gauge(
                "campaign_coverage", "fraction of campaign cells completed"
            ).set(coverage.fraction)
            cells = self._metrics.gauge(
                "campaign_cells", "campaign cells by final status",
                labels=("status",),
            )
            for status in (
                STATUS_DONE,
                STATUS_FAILED,
                STATUS_PENDING,
                STATUS_INTERRUPTED,
            ):
                cells.labels(status=status).set(
                    sum(
                        1
                        for s in self._cells.values()
                        if s["status"] == status
                    )
                )
        self._save_manifest()
        if not done:
            raise CampaignError(
                f"campaign {self._spec.name!r}: no cell produced a result "
                f"({len(self._cells)} attempted)"
            )
        return CampaignResult(
            campaign_dir=self._dir,
            manifest_path=self._manifest_path,
            summary_path=self._summary_path,
            coverage=coverage,
            aggregates=aggregates,
            cell_status={
                cell_id: state["status"]
                for cell_id, state in self._cells.items()
            },
            interrupted=interrupted,
        )


def _aggregate_results(done: Dict[str, dict]) -> dict:
    """Sum per-cell result payloads into campaign aggregates.

    Iteration is in sorted cell order and all values are integers or
    exact sums, so equal surviving-cell sets produce byte-identical
    aggregates regardless of completion order, retries, or chaos.
    """
    logical: Dict[str, Dict[str, int]] = {}
    totals = {
        "logical_errors": 0,
        "downtime_episodes": 0,
        "jobs_finished": 0,
        "raw_log_lines": 0,
    }
    for cell_id in sorted(done):
        payload = done[cell_id]
        for period, bucket in payload.get("logical_counts", {}).items():
            target = logical.setdefault(period, {})
            for event_class, count in bucket.items():
                target[event_class] = target.get(event_class, 0) + count
        for key in totals:
            totals[key] += int(payload.get(key, 0))
    return {
        "cells": len(done),
        "logical_counts": {
            period: dict(sorted(bucket.items()))
            for period, bucket in sorted(logical.items())
        },
        "totals": totals,
    }


def render_campaign_summary(
    name: str, coverage: CoverageAnnotation, aggregates: dict
) -> str:
    """The human-readable campaign summary (``summary.md``)."""
    lines = [
        f"# Campaign {name}",
        "",
        coverage.render(),
        "",
        "| period | event class | count |",
        "|---|---|---:|",
    ]
    for period, bucket in sorted(aggregates["logical_counts"].items()):
        for event_class, count in sorted(bucket.items()):
            lines.append(f"| {period} | {event_class} | {count} |")
    totals = aggregates["totals"]
    lines += [
        "",
        f"- logical errors: {totals['logical_errors']}",
        f"- downtime episodes: {totals['downtime_episodes']}",
        f"- jobs finished: {totals['jobs_finished']}",
        f"- raw log lines: {totals['raw_log_lines']}",
        "",
    ]
    if not coverage.complete:
        lines += [
            "> **Degraded campaign** — aggregates cover only the surviving "
            "cells listed above; compare against full-coverage runs with "
            "care.",
            "",
        ]
    return "\n".join(lines)
