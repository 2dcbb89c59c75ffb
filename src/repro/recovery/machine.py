"""The gang-job recovery state machine.

One :class:`GangRecoveryManager` owns every gang in a study run and
walks each through the operational recovery timeline the LLM
pre-training literature describes::

    RUNNING ──fatal GPU/NVLink error──▶ DETECTING ──latency──▶ DRAINING
       ▲                                                          │
       │                                             cordon + spare promote
       │                                                          ▼
    RESTORING ◀──placement──  RESCHEDULING  ◀──drain done──────────┘
                     (bounded retries, exponential backoff,
                      graceful degradation when capacity is gone)

Every transition is a simulated engine event carrying a ``gang:``
label, so the engine's per-subsystem tallies, the obs metrics, and the
end-of-run report all see recovery activity for free; every transition
also emits a ``gangd: job <id> ...`` syslog line so Stage-II can
reconstruct the recovery timeline from the raw logs alone.

**Work and checkpoints.**  A gang owes ``work_days`` of full-gang wall
time.  Progress becomes durable only at checkpoint ticks; a failure
loses everything after the last tick (the watermark), and the next
segment resumes *at* the watermark — never past it — after paying the
restore cost.  A degraded gang (fewer nodes) accrues work
proportionally slower but owes the same total.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cluster.topology import Cluster
from ..obs.metrics import NOOP
from ..sim.engine import Engine, EventHandle
from ..slurm.scheduler import Scheduler
from ..slurm.types import Allocation, JobRecord, JobRequest, JobState, Partition
from ..syslog.records import LogBus
from .config import GANG_JOB_ID_BASE, RECOVERY_MARKER, RecoveryPolicy


class GangState(enum.Enum):
    """Lifecycle states of a gang job."""

    PENDING = "PENDING"
    RUNNING = "RUNNING"
    DETECTING = "DETECTING"
    DRAINING = "DRAINING"
    RESCHEDULING = "RESCHEDULING"
    RESTORING = "RESTORING"
    COMPLETED = "COMPLETED"
    FAILED = "FAILED"

    @property
    def is_terminal(self) -> bool:
        """True once the gang can never run again."""
        return self in (GangState.COMPLETED, GangState.FAILED)


@dataclass
class _Gang:
    """Manager-internal state of one gang."""

    gang_id: int
    name: str
    user: str
    original_nodes: int
    gpus_per_node: int
    total_work: float  # full-gang work-seconds owed
    interval: float  # checkpoint interval (wall seconds)
    write_seconds: float
    restore_seconds: float
    state: GangState = GangState.PENDING
    current_nodes: int = 0
    watermark: float = 0.0  # durable full-gang work-seconds
    segment_index: int = 0
    job_id: Optional[int] = None
    segment_start: float = 0.0
    segment_restore: float = 0.0
    ticks_done: int = 0
    planned_ticks: int = 0
    tick_handle: Optional[EventHandle] = None
    attempt: int = 0
    incident_start: float = 0.0
    failed_node: Optional[str] = None
    promoted_spare: Optional[str] = None
    # Accounting
    incidents: int = 0
    retries: int = 0
    degradations: int = 0
    hangs: int = 0
    checkpoint_writes: int = 0
    lost_work: float = 0.0  # full-gang work-seconds discarded
    busy_wall: float = 0.0  # wall seconds spent holding an allocation
    ettr_seconds: List[float] = field(default_factory=list)

    @property
    def rate(self) -> float:
        """Work-seconds accrued per wall second at current size."""
        return self.current_nodes / self.original_nodes

    @property
    def gpu_count(self) -> int:
        """GPUs a segment at current size nominally holds."""
        return self.current_nodes * self.gpus_per_node


@dataclass
class RecoverySummary:
    """End-of-run recovery accounting, one dict per gang plus totals."""

    gangs: int
    completed: int
    failed: int
    incidents: int
    retries: int
    spare_promotions: int
    degradations: int
    hangs: int
    checkpoint_writes: int
    lost_gpu_hours: float
    goodput: float
    mean_ettr_minutes: float
    max_ettr_minutes: float
    per_gang: Tuple[Dict[str, object], ...]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (stable key order)."""
        return {
            "gangs": self.gangs,
            "completed": self.completed,
            "failed": self.failed,
            "incidents": self.incidents,
            "retries": self.retries,
            "spare_promotions": self.spare_promotions,
            "degradations": self.degradations,
            "hangs": self.hangs,
            "checkpoint_writes": self.checkpoint_writes,
            "lost_gpu_hours": round(self.lost_gpu_hours, 4),
            "goodput": round(self.goodput, 6),
            "mean_ettr_minutes": round(self.mean_ettr_minutes, 3),
            "max_ettr_minutes": round(self.max_ettr_minutes, 3),
            "per_gang": list(self.per_gang),
        }


class GangRecoveryManager:
    """Drives gang jobs through the recovery state machine.

    Args:
        engine: simulation kernel.
        cluster: the machine (spare selection).
        scheduler: gang placement, kills, and drain/return control.
        log_bus: destination for ``gangd:`` recovery log lines.
        policy: the full recovery configuration.
        rng: the dedicated ``recovery`` random stream (detection
            latencies, hang draws); isolated so enabling recovery never
            perturbs the fault or workload streams.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`.

    The manager shares the scheduler's drain set with the ops layer:
    an ops-driven repair on a cordoned node can return it to service
    early.  That interplay is intentional — SREs un-draining a healthy
    node beats a timer — and the cordon expiry handles it gracefully
    (returning an already-returned node is a no-op).
    """

    def __init__(
        self,
        engine: Engine,
        cluster: Cluster,
        scheduler: Scheduler,
        log_bus: LogBus,
        policy: RecoveryPolicy,
        rng: np.random.Generator,
        metrics=None,
    ) -> None:
        self._engine = engine
        self._cluster = cluster
        self._scheduler = scheduler
        self._log_bus = log_bus
        self._policy = policy
        self._rng = rng
        self._gangs: Dict[int, _Gang] = {}
        self._by_job: Dict[int, _Gang] = {}
        self._spare_pool: List[str] = []
        self._spare_promotions = 0
        if metrics is None:
            self._m_state = self._m_retries = NOOP
            self._m_spares = self._m_degradations = NOOP
            self._m_hangs = self._m_incidents = NOOP
            self._m_writes = self._m_ettr = NOOP
        else:
            self._m_state = metrics.gauge(
                "recovery_gang_state",
                "gangs currently in each recovery state",
                labels=("state",),
            )
            self._m_incidents = metrics.counter(
                "recovery_incidents_total", "fatal gang failures entering recovery"
            )
            self._m_retries = metrics.counter(
                "recovery_retries_total", "placement retries (backoff waits)"
            )
            self._m_spares = metrics.counter(
                "recovery_spare_promotions_total",
                "hot spares promoted into the schedulable pool",
            )
            self._m_degradations = metrics.counter(
                "recovery_degradations_total",
                "gangs that shed a node after exhausting retries",
            )
            self._m_hangs = metrics.counter(
                "recovery_hangs_total",
                "failures manifesting as undetected hangs (watchdog catches)",
            )
            self._m_writes = metrics.counter(
                "recovery_checkpoint_writes_total",
                "durable checkpoint ticks across all gangs",
            )
            self._m_ettr = metrics.histogram(
                "recovery_ettr_minutes",
                "error-to-recovery time per incident in minutes",
                buckets=(1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 360.0, 1440.0),
            )

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------

    def arm(self) -> None:
        """Reserve spares, register listeners, schedule gang submission."""
        self._scheduler.add_job_start_listener(self._on_job_start)
        self._scheduler.add_job_end_listener(self._on_job_end)
        self._reserve_spares()
        spec = self._policy.gang
        for ordinal in range(spec.count):
            gang_id = ordinal + 1
            interval = self._policy.checkpoint.interval_seconds_for(
                spec.gang_nodes
            )
            gang = _Gang(
                gang_id=gang_id,
                name=f"{spec.name}-g{gang_id}",
                user=spec.user,
                original_nodes=spec.gang_nodes,
                gpus_per_node=spec.gpus_per_node,
                total_work=spec.work_days * 86400.0,
                interval=interval,
                write_seconds=self._policy.checkpoint.write_minutes * 60.0,
                restore_seconds=self._policy.checkpoint.restore_minutes * 60.0,
                current_nodes=spec.gang_nodes,
            )
            self._gangs[gang_id] = gang
            self._set_state(gang, GangState.PENDING)
            self._engine.schedule(
                spec.submit_day * 86400.0,
                lambda g=gang: self._submit_segment(g),
                label=f"gang:submit:{gang_id}",
            )

    def _reserve_spares(self) -> None:
        """Cordon the hot-spare pool before any workload arrives.

        Spares come from the *end* of the GPU-node list so they avoid
        the nodes first-fit placement reaches for, and stay drained
        until a gang failure promotes one.
        """
        if self._policy.spare_nodes <= 0:
            return
        for node in reversed(self._cluster.gpu_nodes()):
            if len(self._spare_pool) == self._policy.spare_nodes:
                break
            self._scheduler.drain_node(node.name)
            self._spare_pool.append(node.name)
            self._log(node.name, 0, f"spare {node.name} reserved")

    # ------------------------------------------------------------------
    # Segment lifecycle
    # ------------------------------------------------------------------

    def _segment_request(self, gang: _Gang) -> JobRequest:
        remaining = gang.total_work - gang.watermark
        restore = gang.restore_seconds if gang.watermark > 0 else 0.0
        wall_work = max(remaining, 1.0) / gang.rate
        writes = max(0, math.ceil(wall_work / gang.interval) - 1)
        duration = restore + wall_work + writes * gang.write_seconds
        job_id = GANG_JOB_ID_BASE + gang.gang_id * 1000 + gang.segment_index
        return JobRequest(
            job_id=job_id,
            name=f"{gang.name}s{gang.segment_index}",
            user=gang.user,
            partition=Partition.GPU_A100_X4,
            submit_time=self._engine.now,
            gpu_count=gang.gpu_count,
            duration=duration,
            is_ml=True,
            gang_nodes=gang.current_nodes,
        )

    def _submit_segment(self, gang: _Gang) -> None:
        """Submit the gang's next segment if it fits, else back off."""
        if gang.state.is_terminal:
            return
        request = self._segment_request(gang)
        if self._scheduler.can_place(request):
            gang.job_id = request.job_id
            self._by_job[request.job_id] = gang
            self._scheduler.submit(request)
            return
        self._handle_placement_failure(gang)

    def _handle_placement_failure(self, gang: _Gang) -> None:
        self._set_state(gang, GangState.RESCHEDULING)
        if gang.attempt < self._policy.max_retries:
            delay = self._policy.backoff_delays()[gang.attempt]
            gang.attempt += 1
            gang.retries += 1
            self._m_retries.inc()
            self._log(
                self._gang_host(gang),
                gang.gang_id,
                f"no capacity, retry {gang.attempt}/"
                f"{self._policy.max_retries} in {delay:.0f}s",
            )
            self._engine.schedule_after(
                delay,
                lambda g=gang: self._submit_segment(g),
                label=f"gang:retry:{gang.gang_id}",
            )
            return
        # Retries exhausted: degrade to a smaller gang or give up.
        if gang.current_nodes - 1 >= self._policy.min_gang_nodes:
            gang.current_nodes -= 1
            gang.attempt = 0
            gang.degradations += 1
            self._m_degradations.inc()
            self._log(
                self._gang_host(gang),
                gang.gang_id,
                f"degrading to {gang.current_nodes} nodes",
            )
            self._submit_segment(gang)
            return
        self._set_state(gang, GangState.FAILED)
        self._log(self._gang_host(gang), gang.gang_id, "abandoned: no capacity")

    def _on_job_start(self, request: JobRequest, allocation: Allocation) -> None:
        gang = self._by_job.get(request.job_id)
        if gang is None:
            return
        now = self._engine.now
        gang.segment_start = now
        gang.segment_restore = (
            gang.restore_seconds if gang.watermark > 0 else 0.0
        )
        gang.ticks_done = 0
        remaining = gang.total_work - gang.watermark
        wall_work = max(remaining, 1.0) / gang.rate
        gang.planned_ticks = max(0, math.ceil(wall_work / gang.interval) - 1)
        nodes = ",".join(allocation.nodes)
        if gang.segment_restore > 0:
            self._set_state(gang, GangState.RESTORING)
            self._log(
                allocation.nodes[0],
                gang.gang_id,
                f"restoring from checkpoint on {nodes}",
            )
            self._engine.schedule_after(
                gang.segment_restore,
                lambda g=gang: self._restored(g),
                label=f"gang:restore:{gang.gang_id}",
            )
        else:
            self._set_state(gang, GangState.RUNNING)
            self._log(allocation.nodes[0], gang.gang_id, f"started on {nodes}")
        self._schedule_next_tick(gang)

    def _restored(self, gang: _Gang) -> None:
        if gang.state is not GangState.RESTORING:
            return
        self._set_state(gang, GangState.RUNNING)
        ettr = self._engine.now - gang.incident_start
        gang.ettr_seconds.append(ettr)
        self._m_ettr.observe(ettr / 60.0)
        self._log(
            self._gang_host(gang),
            gang.gang_id,
            f"recovered in {ettr:.0f}s (incident {gang.incidents})",
        )

    # ------------------------------------------------------------------
    # Checkpoint ticks
    # ------------------------------------------------------------------

    def _schedule_next_tick(self, gang: _Gang) -> None:
        k = gang.ticks_done + 1
        if k > gang.planned_ticks:
            gang.tick_handle = None
            return
        when = gang.segment_start + gang.segment_restore + k * (
            gang.interval + gang.write_seconds
        )
        gang.tick_handle = self._engine.schedule(
            when,
            lambda g=gang: self._checkpoint_tick(g),
            label=f"gang:ckpt:{gang.gang_id}",
        )

    def _checkpoint_tick(self, gang: _Gang) -> None:
        gang.ticks_done += 1
        gang.checkpoint_writes += 1
        self._m_writes.inc()
        gang.watermark = min(
            gang.total_work, gang.watermark + gang.interval * gang.rate
        )
        self._schedule_next_tick(gang)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------

    def _on_job_end(self, record: JobRecord) -> None:
        gang = self._by_job.pop(record.job_id, None)
        if gang is None or gang.job_id != record.job_id:
            return
        gang.job_id = None
        gang.busy_wall += record.end_time - record.start_time
        if gang.tick_handle is not None:
            gang.tick_handle.cancel()
            gang.tick_handle = None
        gang.segment_index += 1
        if record.state is JobState.COMPLETED:
            gang.watermark = gang.total_work
            self._set_state(gang, GangState.COMPLETED)
            self._log(
                record.allocation.nodes[0], gang.gang_id, "completed all work"
            )
            return
        # Fatal error: account lost work and enter DETECTING.
        gang.failed_node = record.failed_node or record.allocation.nodes[0]
        self._account_lost_work(gang, record)
        gang.incidents += 1
        gang.attempt = 0
        gang.incident_start = self._engine.now
        self._set_state(gang, GangState.DETECTING)
        self._m_incidents.inc()
        latency, hang = self._draw_detection_latency()
        if hang:
            gang.hangs += 1
            self._m_hangs.inc()
        self._engine.schedule_after(
            latency,
            lambda g=gang, h=hang, s=latency: self._detected(g, h, s),
            label=f"gang:detect:{gang.gang_id}",
        )

    def _account_lost_work(self, gang: _Gang, record: JobRecord) -> None:
        elapsed = record.end_time - record.start_time
        productive = max(
            0.0,
            elapsed
            - gang.segment_restore
            - gang.ticks_done * gang.write_seconds,
        )
        raw_work = productive * gang.rate
        durable = gang.ticks_done * gang.interval * gang.rate
        lost = max(0.0, raw_work - durable)
        gang.lost_work += lost
        lost_gpu_hours = (lost / gang.rate) * gang.gpu_count / 3600.0
        self._log(
            gang.failed_node or record.allocation.nodes[0],
            gang.gang_id,
            f"failed, losing {lost / 3600.0:.2f}h of work "
            f"({lost_gpu_hours:.1f} GPU-h) back to watermark",
        )

    def _draw_detection_latency(self) -> Tuple[float, bool]:
        model = self._policy.detection
        if (
            model.undetected_probability > 0
            and self._rng.random() < model.undetected_probability
        ):
            return model.hang_timeout_seconds, True
        return (
            model.floor_seconds + float(self._rng.exponential(model.mean_seconds)),
            False,
        )

    def _detected(self, gang: _Gang, hang: bool, latency: float) -> None:
        if gang.state is not GangState.DETECTING:
            return
        kind = "hang caught by watchdog" if hang else "failure detected"
        node = gang.failed_node or self._gang_host(gang)
        self._log(node, gang.gang_id, f"{kind} after {latency:.0f}s")
        self._set_state(gang, GangState.DRAINING)
        self._cordon_and_promote(gang)
        self._engine.schedule_after(
            self._policy.drain_seconds,
            lambda g=gang: self._drain_done(g),
            label=f"gang:drain:{gang.gang_id}",
        )

    def _cordon_and_promote(self, gang: _Gang) -> None:
        failed = gang.failed_node
        if failed is None:
            return
        self._scheduler.drain_node(failed)
        self._log(failed, gang.gang_id, f"cordoned {failed}")
        gang.promoted_spare = None
        if self._spare_pool:
            spare = self._spare_pool.pop(0)
            gang.promoted_spare = spare
            self._spare_promotions += 1
            self._m_spares.inc()
            self._scheduler.node_returned(spare)
            self._log(spare, gang.gang_id, f"promoted spare {spare}")
        self._engine.schedule_after(
            self._policy.cordon_minutes * 60.0,
            lambda g=gang, n=failed: self._cordon_expired(g, n),
            label=f"gang:cordon:{gang.gang_id}",
        )

    def _cordon_expired(self, gang: _Gang, node: str) -> None:
        """The failed node passed health checks.

        When a spare replaced it, the healthy node refills the spare
        pool (staying drained); otherwise it rejoins the pool.
        """
        if gang.promoted_spare is not None:
            self._spare_pool.append(node)
            self._log(node, gang.gang_id, f"spare {node} reserved")
        else:
            self._scheduler.node_returned(node)
            self._log(node, gang.gang_id, f"uncordoned {node}")

    def _drain_done(self, gang: _Gang) -> None:
        if gang.state is not GangState.DRAINING:
            return
        self._set_state(gang, GangState.RESCHEDULING)
        self._submit_segment(gang)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _set_state(self, gang: _Gang, state: GangState) -> None:
        gang.state = state
        if self._m_state is not NOOP:
            counts: Dict[str, int] = {s.value: 0 for s in GangState}
            for other in self._gangs.values():
                counts[other.state.value] += 1
            for name, count in counts.items():
                self._m_state.labels(state=name).set(count)

    def _gang_host(self, gang: _Gang) -> str:
        """Best-effort host for manager-level log lines."""
        if gang.failed_node is not None:
            return gang.failed_node
        nodes = self._cluster.gpu_nodes()
        return nodes[0].name if nodes else "mgmt"

    def _log(self, host: str, gang_id: int, message: str) -> None:
        self._log_bus.emit(
            self._engine.now, host, f"{RECOVERY_MARKER}{gang_id} {message}"
        )

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------

    def summary(self) -> RecoverySummary:
        """Aggregate recovery accounting across all gangs."""
        gangs = list(self._gangs.values())
        all_ettr = [e for g in gangs for e in g.ettr_seconds]
        # Goodput: durable full-gang work-seconds delivered per
        # wall-second of gang occupancy (1.0 = every held second
        # became durable progress at full gang size).
        total_watermark = sum(g.watermark for g in gangs)
        total_wall = sum(g.busy_wall for g in gangs)
        goodput = total_watermark / total_wall if total_wall > 0 else 0.0
        lost_gpu_hours = sum(
            (g.lost_work / max(g.rate, 1e-9)) * g.gpu_count / 3600.0
            for g in gangs
        )
        per_gang = tuple(
            {
                "gang_id": g.gang_id,
                "state": g.state.value,
                "nodes": g.current_nodes,
                "progress": round(g.watermark / g.total_work, 6),
                "incidents": g.incidents,
                "retries": g.retries,
                "degradations": g.degradations,
                "hangs": g.hangs,
                "checkpoint_writes": g.checkpoint_writes,
                "segments": g.segment_index,
                "lost_work_hours": round(g.lost_work / 3600.0, 4),
            }
            for g in sorted(self._gangs.values(), key=lambda g: g.gang_id)
        )
        return RecoverySummary(
            gangs=len(gangs),
            completed=sum(1 for g in gangs if g.state is GangState.COMPLETED),
            failed=sum(1 for g in gangs if g.state is GangState.FAILED),
            incidents=sum(g.incidents for g in gangs),
            retries=sum(g.retries for g in gangs),
            spare_promotions=self._spare_promotions,
            degradations=sum(g.degradations for g in gangs),
            hangs=sum(g.hangs for g in gangs),
            checkpoint_writes=sum(g.checkpoint_writes for g in gangs),
            lost_gpu_hours=lost_gpu_hours,
            goodput=min(goodput, 1.0),
            mean_ettr_minutes=(
                sum(all_ettr) / len(all_ettr) / 60.0 if all_ettr else 0.0
            ),
            max_ettr_minutes=max(all_ettr) / 60.0 if all_ettr else 0.0,
            per_gang=per_gang,
        )
