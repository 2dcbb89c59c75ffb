"""The fault injector: drives every error process through the engine.

For each configured fault class the injector pre-draws onset times from
the calibrated arrival processes, schedules them on the simulation
engine, and — when an onset fires — executes the full consequence
chain:

1. render the NVRM log lines (with duplicate-line bursts) onto the
   log bus;
2. run the mechanistic recovery models (memory chain, NVLink CRC);
3. expose and probabilistically terminate the jobs the error reaches;
4. raise recovery requests with the SRE ops layer;
5. fire cross-class propagation (PMU → MMU).

The injector also keeps a ground-truth list of
:class:`~repro.core.records.GpuErrorEvent` used by validation tests to
check that Stage-II extraction + coalescing recovers exactly the
logical errors that occurred.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..cluster.gpu import GpuHealth, GpuState
from ..cluster.node import Node, NodeState
from ..cluster.topology import Cluster
from ..core.periods import PeriodName, StudyWindow
from ..core.records import GpuErrorEvent
from ..core.xid import EventClass, primary_xid
from ..gpu.memory import MemoryRecoveryModel
from ..gpu.nvlink import NvlinkFaultModel
from ..obs.metrics import NOOP
from ..ops.manager import OpsManager
from ..ops.repair import RecoveryKind
from ..sim.engine import Engine
from ..sim.rng import RngRegistry
from ..slurm.scheduler import Scheduler
from ..syslog.nvrm import render_event_line
from ..syslog.records import LogBus
from .arrivals import PersistentEpisodeProcess, PiecewisePoissonProcess
from .config import (
    FaultSuiteConfig,
    ImpactPolicy,
    KillScope,
    SimpleFaultConfig,
    TargetPolicy,
)

#: Probability split between the paired XID codes of a class.
_PAIRED_XID_SPLIT: Dict[EventClass, Tuple[Tuple[int, float], ...]] = {
    EventClass.GSP_ERROR: ((119, 0.8), (120, 0.2)),
    EventClass.PMU_SPI_ERROR: ((122, 0.85), (123, 0.15)),
}

#: Delay distribution for error→job-kill (must stay inside the paper's
#: 20-second attribution window).
_KILL_DELAY_LO = 0.5
_KILL_DELAY_HI = 12.0


class FaultInjector:
    """Schedules and executes every fault process of a study run.

    Args:
        engine: simulation kernel.
        cluster: the machine.
        scheduler: job scheduler (victim lookup and kills).
        ops: SRE ops manager (recovery requests).
        log_bus: destination for raw log lines.
        suite: the calibrated fault-suite configuration.
        window: study window.
        rngs: per-subsystem random streams.
        fault_scale: multiplier on all onset rates (tests shrink it
            together with the window).
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            per-class/per-XID injection counters are maintained when
            present.
        stream_prefix: prefix for every RNG stream name the injector
            derives.  The default empty prefix preserves the historical
            stream names (and therefore byte-identical artifacts for
            homogeneous runs); heterogeneous runs give each per-
            architecture injector its own prefix so their draws are
            independent.
        nodes: optional node subset this injector targets (per-
            architecture sub-fleets); ``None`` targets every GPU node.
        episode_ids: optional shared episode-id counter so several
            injectors on one engine keep ground-truth ids unique.
    """

    def __init__(
        self,
        engine: Engine,
        cluster: Cluster,
        scheduler: Scheduler,
        ops: OpsManager,
        log_bus: LogBus,
        suite: FaultSuiteConfig,
        window: StudyWindow,
        rngs: RngRegistry,
        fault_scale: float = 1.0,
        metrics=None,
        stream_prefix: str = "",
        nodes: Optional[List[Node]] = None,
        episode_ids: Optional[Iterator[int]] = None,
    ) -> None:
        if fault_scale <= 0:
            raise ValueError(f"fault_scale must be positive, got {fault_scale}")
        self._engine = engine
        self._cluster = cluster
        self._scheduler = scheduler
        self._ops = ops
        self._log_bus = log_bus
        self._suite = suite
        self._window = window
        self._rngs = rngs
        self._prefix = stream_prefix
        self._scale = fault_scale
        self._episode_ids = (
            episode_ids if episode_ids is not None else itertools.count(1)
        )
        self._gpu_nodes = (
            list(nodes) if nodes is not None else cluster.gpu_nodes()
        )
        if not self._gpu_nodes:
            raise ValueError("injector needs at least one target GPU node")
        self._nvlink_model = NvlinkFaultModel(
            cluster, suite.nvlink.link_model, self._stream("faults.nvlink.model")
        )
        self._memory_models = {
            PeriodName.PRE_OPERATIONAL: MemoryRecoveryModel(
                suite.memory_chain.pre_op.recovery,
                self._stream("faults.memory.pre_op"),
            ),
            PeriodName.OPERATIONAL: MemoryRecoveryModel(
                suite.memory_chain.op.recovery,
                self._stream("faults.memory.op"),
            ),
        }
        #: Ground truth: every logical error that occurred, in order of
        #: creation (validation only — the pipeline never sees this).
        self.logical_events: List[GpuErrorEvent] = []
        if metrics is None:
            self._m_injected = self._m_log_lines = self._m_kills = NOOP
        else:
            self._m_injected = metrics.counter(
                "faults_injected_total",
                "logical GPU errors injected, by event class and XID",
                labels=("event_class", "xid"),
            )
            self._m_log_lines = metrics.counter(
                "faults_log_lines_total",
                "NVRM log lines emitted (duplicate bursts included)",
            )
            self._m_kills = metrics.counter(
                "faults_kills_scheduled_total",
                "job kills scheduled, by causal event class",
                labels=("cause",),
            )

    def _stream(self, name: str) -> np.random.Generator:
        """Named RNG stream under this injector's prefix."""
        return self._rngs.stream(self._prefix + name)

    # ------------------------------------------------------------------
    # Arming: pre-draw arrivals and schedule onsets
    # ------------------------------------------------------------------

    def arm(self) -> None:
        """Draw all onset times and schedule them on the engine."""
        for cfg in self._suite.simple_faults:
            self._arm_simple(cfg)
        self._arm_memory_chain()
        self._arm_nvlink()
        if self._suite.defective_episode is not None:
            self._arm_defective_episode()

    def _arm_simple(self, cfg: SimpleFaultConfig) -> None:
        pre_rate, op_rate = cfg.onset_rates_per_hour(self._window)
        coupling = self._suite.utilization_coupling
        if coupling is not None and cfg.event_class in coupling.coupled_classes:
            pre_rate = coupling.derive_pre_op_rate(op_rate)
        process = PiecewisePoissonProcess(
            pre_rate * self._scale, op_rate * self._scale
        )
        rng = self._stream(f"faults.arrivals.{cfg.event_class.value}")
        for time in process.sample(rng, self._window):
            self._engine.schedule(
                float(time),
                lambda c=cfg: self._simple_onset(c),
                label=f"onset:{cfg.event_class.value}",
            )

    def _arm_memory_chain(self) -> None:
        pre_rate, op_rate = self._suite.memory_chain.onset_rates_per_hour(
            self._window
        )
        process = PiecewisePoissonProcess(
            pre_rate * self._scale, op_rate * self._scale
        )
        rng = self._stream("faults.arrivals.memory_chain")
        for time in process.sample(rng, self._window):
            self._engine.schedule(
                float(time), self._memory_onset, label="onset:memory"
            )

    def _arm_nvlink(self) -> None:
        cfg = self._suite.nvlink
        manifest_size = self._expected_nvlink_manifest_size()
        divisor = manifest_size * cfg.episode.mean_errors
        pre_rate = (
            cfg.pre_op_count
            / divisor
            / self._window.pre_operational.duration_hours
        )
        op_rate = cfg.op_count / divisor / self._window.operational.duration_hours
        process = PiecewisePoissonProcess(
            pre_rate * self._scale, op_rate * self._scale
        )
        rng = self._stream("faults.arrivals.nvlink")
        for time in process.sample(rng, self._window):
            self._engine.schedule(
                float(time), self._nvlink_onset, label="onset:nvlink"
            )

    def _expected_nvlink_manifest_size(self) -> float:
        """Mean GPUs a manifestation touches, weighted by node mix."""
        link = self._suite.nvlink.link_model
        sizes: List[float] = []
        for node in self._gpu_nodes:
            extra_slots = node.gpu_count - 2
            # Expected extras of the truncated geometric spread.
            p = link.extra_spread_probability
            expected_extra = sum(p**k for k in range(1, extra_slots + 1))
            multi = 2.0 + expected_extra
            sizes.append(
                (1.0 - link.multi_gpu_probability) * 1.0
                + link.multi_gpu_probability * multi
            )
        return float(np.mean(sizes))

    def _arm_defective_episode(self) -> None:
        cfg = self._suite.defective_episode
        assert cfg is not None
        node = self._gpu_nodes[cfg.node_ordinal % len(self._gpu_nodes)]
        process = PersistentEpisodeProcess(
            start=cfg.start_day * 86400.0,
            end=cfg.end_day * 86400.0,
            gap_floor_seconds=cfg.gap_floor_seconds,
            mean_extra_seconds=cfg.mean_extra_seconds,
        )
        rng = self._stream("faults.episode.defective")
        times = process.sample(rng)
        episode_id = next(self._episode_ids)
        for time in times:
            self._engine.schedule(
                float(time),
                lambda n=node, t=float(time): self._defective_error(
                    n, cfg.gpu_index, episode_id
                ),
                label="episode:uncontained",
            )
        # Discovery and replacement at the episode's end.
        self._engine.schedule(
            cfg.end_day * 86400.0 + 60.0,
            lambda: self._defective_discovered(node, cfg.gpu_index),
            label="episode:discovery",
        )

    # ------------------------------------------------------------------
    # Target selection
    # ------------------------------------------------------------------

    def _pick_gpu(self, policy: TargetPolicy) -> Optional[Tuple[Node, GpuState]]:
        rng = self._stream("faults.targeting")
        if policy is TargetPolicy.BUSY_GPU:
            busy = [
                (node, gpu)
                for node in self._gpu_nodes
                if node.state is not NodeState.DOWN
                for gpu in node.gpus
                if gpu.busy
            ]
            if busy:
                return busy[int(rng.integers(0, len(busy)))]
        for _ in range(8):
            node = self._gpu_nodes[int(rng.integers(0, len(self._gpu_nodes)))]
            if node.state is not NodeState.DOWN:
                return (node, node.gpus[int(rng.integers(0, node.gpu_count))])
        return None

    def _pick_node(self) -> Optional[Node]:
        rng = self._stream("faults.targeting")
        for _ in range(8):
            node = self._gpu_nodes[int(rng.integers(0, len(self._gpu_nodes)))]
            if node.state is not NodeState.DOWN:
                return node
        return None

    # ------------------------------------------------------------------
    # Logging helpers
    # ------------------------------------------------------------------

    def _draw_xid(self, event_class: EventClass, primary: Optional[int]) -> Optional[int]:
        split = _PAIRED_XID_SPLIT.get(event_class)
        if split is None:
            return primary
        rng = self._stream("faults.xid_split")
        roll = rng.random()
        cumulative = 0.0
        for code, weight in split:
            cumulative += weight
            if roll < cumulative:
                return code
        return split[-1][0]

    def _log_logical(
        self,
        node: Node,
        gpu: GpuState,
        event_class: EventClass,
        xid: Optional[int],
        episode_id: int,
        affected: Tuple[int, ...] = (),
        duplicates_mean: Optional[float] = None,
        duplicate_spread: Optional[float] = None,
    ) -> None:
        """Emit one logical error: log lines + ground-truth record."""
        now = self._engine.now
        rng = self._stream("faults.duplication")
        line = render_event_line(event_class, xid, gpu.pci_address, rng)
        self._log_bus.emit(now, node.name, line)
        mean_extra = (
            self._suite.duplication.mean_extra_lines
            if duplicates_mean is None
            else duplicates_mean
        )
        spread = (
            self._suite.duplication.max_spread_seconds
            if duplicate_spread is None
            else duplicate_spread
        )
        extra = int(rng.poisson(mean_extra))
        if extra and spread > 0:
            offsets = np.sort(rng.uniform(0.2, spread, size=extra))
            self._log_bus.emit_burst(now + offsets, node.name, line)
        self._m_injected.labels(
            event_class=event_class.value,
            xid=str(xid) if xid is not None else "none",
        ).inc()
        self._m_log_lines.inc(1 + (extra if spread > 0 else 0))
        self.logical_events.append(
            GpuErrorEvent(
                time=now,
                node=node.name,
                gpu_index=gpu.index,
                event_class=event_class,
                xid=xid,
                episode_id=episode_id,
                affected_gpus=affected,
            )
        )

    # ------------------------------------------------------------------
    # Simple fault classes (MMU, GSP, PMU, fallen-off-the-bus)
    # ------------------------------------------------------------------

    def _simple_onset(
        self,
        cfg: SimpleFaultConfig,
        forced_target: Optional[Tuple[Node, GpuState]] = None,
        allow_propagation: bool = True,
    ) -> None:
        target = forced_target or self._pick_gpu(cfg.target)
        if target is None:
            return
        node, gpu = target
        episode_id = next(self._episode_ids)
        xid = self._draw_xid(cfg.event_class, cfg.xid)
        self._log_logical(node, gpu, cfg.event_class, xid, episode_id)
        self._schedule_episode_repeats(cfg, node, gpu, episode_id)
        self._apply_impact(cfg.impact, cfg.event_class, node, gpu)
        if allow_propagation:
            self._maybe_propagate_mmu(cfg.impact, node, gpu)

    def _schedule_episode_repeats(
        self, cfg: SimpleFaultConfig, node: Node, gpu: GpuState, episode_id: int
    ) -> None:
        shape = cfg.episode
        if shape.mean_extra_errors <= 0:
            return
        rng = self._stream(f"faults.episode.{cfg.event_class.value}")
        count = int(rng.poisson(shape.mean_extra_errors))
        if count == 0:
            return
        duration = rng.exponential(shape.mean_duration_hours * 3600.0)
        offsets = np.sort(rng.uniform(0.0, max(duration, 1.0), size=count))
        # Enforce the minimum gap so repeats stay distinct after coalescing.
        last = 0.0
        for raw in offsets:
            offset = max(float(raw), last + shape.min_gap_seconds)
            last = offset
            time = self._engine.now + offset
            if time >= self._window.end:
                break
            self._engine.schedule(
                time,
                lambda c=cfg, n=node, g=gpu, e=episode_id: self._episode_repeat(
                    c, n, g, e
                ),
                label=f"repeat:{cfg.event_class.value}",
            )

    def _episode_repeat(
        self, cfg: SimpleFaultConfig, node: Node, gpu: GpuState, episode_id: int
    ) -> None:
        xid = self._draw_xid(cfg.event_class, cfg.xid)
        self._log_logical(node, gpu, cfg.event_class, xid, episode_id)
        # Each repeated error exposes whatever jobs are running then —
        # a flapping GSP keeps crashing new work placed on the node.
        self._apply_impact(
            cfg.impact, cfg.event_class, node, gpu, kills_only=True
        )

    def _apply_impact(
        self,
        impact: ImpactPolicy,
        event_class: EventClass,
        node: Node,
        gpu: GpuState,
        kills_only: bool = False,
    ) -> None:
        rng = self._stream("faults.impact")
        if impact.kill_probability > 0:
            if impact.kill_scope is KillScope.NODE:
                victims = self._scheduler.jobs_on_node(node.name)
            else:
                victims = self._scheduler.jobs_using_gpu(node.name, gpu.index)
            for job_id in victims:
                # The roll is consumed unconditionally so enabling gang
                # jobs never perturbs the fate of the ordinary
                # population; gangs themselves die deterministically —
                # no distributed training survives a member fault.
                roll = rng.random()
                if self._scheduler.is_gang(job_id) or roll < impact.kill_probability:
                    self._schedule_kill(
                        job_id,
                        event_class,
                        impact.node_failure_state,
                        node=node.name,
                    )
        if kills_only:
            return
        if (
            impact.recovery_kind is not None
            and rng.random() < impact.recovery_probability
        ):
            gpu.health = GpuHealth.FAILED
            self._ops.request_recovery(
                node.name, event_class, impact.recovery_kind, gpu.index
            )

    def _schedule_kill(
        self,
        job_id: int,
        cause: EventClass,
        node_failure: bool,
        node: Optional[str] = None,
    ) -> None:
        rng = self._stream("faults.impact")
        delay = float(rng.uniform(_KILL_DELAY_LO, _KILL_DELAY_HI))
        self._m_kills.labels(cause=cause.value).inc()
        self._engine.schedule_after(
            delay,
            lambda: self._scheduler.kill_job(job_id, cause, node_failure, node=node),
            priority=5,
            label=f"kill:{job_id}",
        )

    def _maybe_propagate_mmu(
        self, impact: ImpactPolicy, node: Node, gpu: GpuState
    ) -> None:
        if impact.propagate_mmu_probability <= 0:
            return
        rng = self._stream("faults.impact")
        if rng.random() >= impact.propagate_mmu_probability:
            return
        mmu_cfg = self._suite.fault_for(EventClass.MMU_ERROR)
        delay = float(rng.exponential(impact.propagate_delay_mean_s))
        self._engine.schedule_after(
            delay,
            lambda: self._simple_onset(
                mmu_cfg, forced_target=(node, gpu), allow_propagation=False
            ),
            label="propagate:pmu-mmu",
        )

    # ------------------------------------------------------------------
    # Memory chain
    # ------------------------------------------------------------------

    def _memory_onset(self) -> None:
        target = self._pick_gpu(self._suite.memory_chain.target)
        if target is None:
            return
        node, gpu = target
        period = self._window.period_of(self._engine.now)
        params = self._suite.memory_chain.params_for(period)
        model = self._memory_models[period]
        rng = self._stream("faults.memory.branches")
        outcome = model.process_uncorrectable(
            gpu,
            force_remap_failure=rng.random() < params.remap_failure_probability,
            touches_active_process=(
                rng.random() < params.recovery.active_touch_probability
            ),
        )
        episode_id = next(self._episode_ids)
        for event in outcome.logged_events:
            self._log_logical(node, gpu, event, primary_xid(event), episode_id)
        if outcome.processes_terminated or outcome.uncontained:
            cause = (
                EventClass.UNCONTAINED_MEMORY_ERROR
                if outcome.uncontained
                else EventClass.CONTAINED_MEMORY_ERROR
            )
            for job_id in self._scheduler.jobs_using_gpu(node.name, gpu.index):
                self._schedule_kill(job_id, cause, node_failure=False, node=node.name)
        if outcome.remap_failed:
            self._ops.record_rrf(node.name, gpu.index)
        if outcome.needs_reset:
            cause = (
                EventClass.UNCONTAINED_MEMORY_ERROR
                if outcome.uncontained
                else EventClass.ROW_REMAP_FAILURE
                if outcome.remap_failed
                else EventClass.UNCORRECTABLE_ECC
            )
            gpu.health = GpuHealth.FAILED
            self._ops.request_recovery(
                node.name, cause, self._suite.memory_chain.recovery_kind, gpu.index
            )

    # ------------------------------------------------------------------
    # NVLink
    # ------------------------------------------------------------------

    def _nvlink_onset(self) -> None:
        cfg = self._suite.nvlink
        node = self._pick_nvlink_node(cfg.active_link_bias)
        if node is None:
            return
        manifest = self._nvlink_model.manifest(node.name)
        episode_id = next(self._episode_ids)
        for index in manifest.affected_gpus:
            self._log_logical(
                node,
                node.gpu(index),
                EventClass.NVLINK_ERROR,
                74,
                episode_id,
                affected=manifest.affected_gpus,
            )
        self._schedule_nvlink_repeats(node, manifest.affected_gpus, episode_id)
        self._apply_nvlink_impact(node, manifest.affected_gpus, manifest.masked_by_retry)
        rng = self._stream("faults.impact")
        if rng.random() < cfg.recovery_probability:
            self._ops.request_recovery(
                node.name,
                EventClass.NVLINK_ERROR,
                cfg.recovery_kind,
                manifest.affected_gpus[0],
            )

    def _pick_nvlink_node(self, active_bias: float) -> Optional[Node]:
        """Pick the node an NVLink fault strikes.

        With probability ``active_bias`` the fault lands on a node
        whose NVLink plane carries live multi-GPU traffic (when one
        exists); otherwise anywhere.
        """
        rng = self._stream("faults.targeting")
        if active_bias > 0 and rng.random() < active_bias:
            active = self._scheduler.nodes_with_multi_gpu_jobs()
            candidates = [
                name
                for name in active
                if self._cluster.node(name).state is not NodeState.DOWN
            ]
            if candidates:
                return self._cluster.node(
                    candidates[int(rng.integers(0, len(candidates)))]
                )
        return self._pick_node()

    def _schedule_nvlink_repeats(
        self, node: Node, affected: Tuple[int, ...], episode_id: int
    ) -> None:
        shape = self._suite.nvlink.episode
        if shape.mean_extra_errors <= 0:
            return
        rng = self._stream("faults.episode.nvlink")
        count = int(rng.poisson(shape.mean_extra_errors))
        if count == 0:
            return
        duration = rng.exponential(shape.mean_duration_hours * 3600.0)
        offsets = np.sort(rng.uniform(0.0, max(duration, 1.0), size=count))
        last = 0.0
        for raw in offsets:
            offset = max(float(raw), last + shape.min_gap_seconds)
            last = offset
            time = self._engine.now + offset
            if time >= self._window.end:
                break
            self._engine.schedule(
                time,
                lambda n=node, a=affected, e=episode_id: self._nvlink_repeat(n, a, e),
                label="repeat:nvlink",
            )

    def _nvlink_repeat(
        self, node: Node, affected: Tuple[int, ...], episode_id: int
    ) -> None:
        for index in affected:
            self._log_logical(
                node,
                node.gpu(index),
                EventClass.NVLINK_ERROR,
                74,
                episode_id,
                affected=affected,
            )
        # Repeated link errors re-expose whatever is running; the CRC
        # retry lottery is drawn independently each time.
        rng = self._stream("faults.impact")
        masked = bool(
            self._suite.nvlink.link_model.crc_retry_enabled
            and rng.random()
            < self._suite.nvlink.link_model.retry_success_probability
        )
        self._apply_nvlink_impact(node, affected, masked)

    def _apply_nvlink_impact(
        self, node: Node, affected: Tuple[int, ...], masked: bool
    ) -> None:
        cfg = self._suite.nvlink
        crc_enabled = cfg.link_model.crc_retry_enabled
        if masked:
            return
        rng = self._stream("faults.impact")
        victims = set()
        for index in affected:
            victims.update(self._scheduler.jobs_using_gpu(node.name, index))
        for job_id in victims:
            gpu_count = self._scheduler.job_gpu_count(job_id)
            if gpu_count >= 2:
                # The job's collective traffic rode the faulty link.
                # Gangs always die (roll still consumed — see
                # _apply_impact for why); ordinary jobs take the draw.
                roll = rng.random()
                if self._scheduler.is_gang(job_id) or roll < cfg.link_fatal_probability:
                    self._schedule_kill(
                        job_id,
                        EventClass.NVLINK_ERROR,
                        node_failure=False,
                        node=node.name,
                    )
            elif not crc_enabled:
                # Without CRC detection, corrupt transfers can reach
                # even single-GPU memory traffic routed over the fabric.
                if rng.random() < cfg.link_fatal_probability * 0.5:
                    self._schedule_kill(
                        job_id,
                        EventClass.NVLINK_ERROR,
                        node_failure=False,
                        node=node.name,
                    )

    # ------------------------------------------------------------------
    # Defective-GPU persistent episode
    # ------------------------------------------------------------------

    def _defective_error(self, node: Node, gpu_index: int, episode_id: int) -> None:
        cfg = self._suite.defective_episode
        assert cfg is not None
        gpu = node.gpu(gpu_index)
        gpu.health = GpuHealth.DEGRADED
        self._log_logical(
            node,
            gpu,
            EventClass.UNCONTAINED_MEMORY_ERROR,
            95,
            episode_id,
            duplicates_mean=cfg.duplicates_mean,
            duplicate_spread=cfg.gap_floor_seconds * 0.8,
        )
        for job_id in self._scheduler.jobs_using_gpu(node.name, gpu_index):
            self._schedule_kill(
                job_id,
                EventClass.UNCONTAINED_MEMORY_ERROR,
                node_failure=False,
                node=node.name,
            )

    def _defective_discovered(self, node: Node, gpu_index: int) -> None:
        """SREs finally notice the episode and swap the unit."""
        node.gpu(gpu_index).health = GpuHealth.FAILED
        self._ops.request_recovery(
            node.name,
            EventClass.UNCONTAINED_MEMORY_ERROR,
            RecoveryKind.REPLACE,
            gpu_index,
            force=True,
        )
