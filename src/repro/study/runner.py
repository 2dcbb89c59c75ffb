"""The study runner: builds, runs, and flushes one simulated study.

:class:`DeltaStudy` is the library's main entry point on the generation
side.  It assembles the cluster, scheduler, ops layer, fault injector,
noise generator, and utilization sampler from a
:class:`~repro.study.config.StudyConfig`, runs the discrete-event
simulation over the full measurement window, and writes the on-disk
artifacts the analysis pipeline consumes.

    >>> from pathlib import Path
    >>> from repro import DeltaStudy, StudyConfig
    >>> study = DeltaStudy(StudyConfig.small())
    >>> artifacts = study.run(Path("/tmp/delta-run"))   # doctest: +SKIP
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple

import itertools

from ..calibration.hopper import HopperProjection, apply_projection
from ..cluster.inventory import Inventory
from ..cluster.topology import Cluster, DELTA_A100_GPUS
from ..core.arch import Architecture
from ..core.exceptions import SimulationInterrupted
from ..core.timebase import DAY, HOUR
from ..faults.config import scale_counts
from ..faults.injector import FaultInjector
from ..obs import Telemetry
from ..ops.manager import OpsManager
from ..ops.repair import RepairTimeModel
from ..recovery.machine import GangRecoveryManager
from ..sim.checkpoint import (
    CheckpointConfig,
    CheckpointRecorder,
    RunCheckpoint,
)
from ..sim.engine import Engine
from ..sim.rng import RngRegistry
from ..slurm.accounting import AccountingWriter
from ..slurm.scheduler import Scheduler
from ..slurm.types import JobRequest
from ..syslog.noise import generate_noise
from ..syslog.records import LogBus
from ..syslog.writer import write_day_partitioned
from ..workload.generator import WorkloadGenerator
from .artifacts import StudyArtifacts
from .config import StudyConfig


class _JobFeeder:
    """Feeds job submissions into the engine one event at a time.

    Keeps at most one pending submission event on the heap regardless
    of stream length, so multi-million-job runs do not pre-materialize
    millions of closures.
    """

    def __init__(
        self, engine: Engine, scheduler: Scheduler, requests: List[JobRequest]
    ) -> None:
        self._engine = engine
        self._scheduler = scheduler
        self._iterator: Iterator[JobRequest] = iter(requests)
        self._advance()

    def _advance(self) -> None:
        request = next(self._iterator, None)
        if request is None:
            return
        self._engine.schedule(
            max(request.submit_time, self._engine.now),
            lambda r=request: self._submit(r),
            priority=-5,
            label="submit",
        )

    def _submit(self, request: JobRequest) -> None:
        self._scheduler.submit(request)
        self._advance()


def _build_injectors(
    cfg: StudyConfig,
    *,
    engine: Engine,
    cluster: Cluster,
    scheduler,
    ops,
    log_bus,
    rngs: RngRegistry,
    metrics,
) -> List[FaultInjector]:
    """Build the run's fault injector(s).

    Homogeneous A100 shapes keep the historical single-injector path —
    same stream names, same arguments — so existing seeds remain
    byte-identical.  Heterogeneous shapes get one injector per
    architecture: the A100 sub-fleet runs the configured suite scaled
    to its GPU share of the Delta calibration fleet, and the GH200
    sub-fleet runs the Hopper projection applied to that same suite
    (so ablations carry over), scaled likewise.  Injectors share one
    episode-id counter so ground-truth episode ids stay unique.
    """
    shape = cfg.cluster_shape
    if shape.gh200_nodes == 0:
        return [
            FaultInjector(
                engine=engine,
                cluster=cluster,
                scheduler=scheduler,
                ops=ops,
                log_bus=log_bus,
                suite=cfg.fault_suite,
                window=cfg.window,
                rngs=rngs,
                fault_scale=cfg.fault_scale,
                metrics=metrics,
            )
        ]
    projection = (
        cfg.hopper_projection
        if cfg.hopper_projection is not None
        else HopperProjection()
    )
    episode_ids = itertools.count(1)
    injectors: List[FaultInjector] = []
    for arch in shape.architectures:
        if arch is Architecture.A100:
            suite = scale_counts(
                cfg.fault_suite, shape.gpu_count_for(arch) / DELTA_A100_GPUS
            )
        else:
            suite = scale_counts(
                apply_projection(cfg.fault_suite.without_episode(), projection),
                shape.gpu_count_for(arch) / DELTA_A100_GPUS,
            )
        injector = FaultInjector(
            engine=engine,
            cluster=cluster,
            scheduler=scheduler,
            ops=ops,
            log_bus=log_bus,
            suite=suite,
            window=cfg.window,
            rngs=rngs,
            fault_scale=cfg.fault_scale,
            metrics=metrics,
            stream_prefix=f"arch.{arch.value}.",
            nodes=cluster.gpu_nodes_for(arch),
            episode_ids=episode_ids,
        )
        injectors.append(injector)
    return injectors


def _merged_logical_events(injectors: List[FaultInjector]):
    """Ground truth across injectors, time-ordered.

    The single-injector case returns the list untouched (creation
    order), preserving the historical artifact byte-for-byte.
    """
    if len(injectors) == 1:
        return injectors[0].logical_events
    merged = [e for injector in injectors for e in injector.logical_events]
    merged.sort(key=lambda e: e.time)
    return merged


class DeltaStudy:
    """One simulated Delta resilience study."""

    def __init__(self, config: StudyConfig) -> None:
        self._config = config

    @property
    def config(self) -> StudyConfig:
        """The run's configuration."""
        return self._config

    def run(
        self,
        output_dir: Optional[Path] = None,
        telemetry: Optional[Telemetry] = None,
        *,
        checkpoint: Optional[CheckpointConfig] = None,
        resume: bool = False,
        on_engine: Optional[Callable[[Engine], None]] = None,
        interrupt_at_day: Optional[float] = None,
    ) -> StudyArtifacts:
        """Run the full simulation; optionally write on-disk artifacts.

        Args:
            output_dir: where to write ``syslog/``, ``inventory.json``,
                ``sacct.csv``, and ``truth.csv``.  ``None`` keeps the
                run memory-only (useful for tests that only need the
                ground truth).
            telemetry: optional :class:`~repro.obs.Telemetry`; when
                enabled the run is traced (span timestamps on the
                simulation clock — DESIGN §9), every subsystem feeds
                the metrics registry, and phase events are logged.
            checkpoint: optional engine checkpoint configuration; when
                given, the run writes a replay-verified watermark chain
                at the configured sim-time cadence (DESIGN §10).
            resume: with ``checkpoint``, verify an existing watermark
                chain while replaying (raises
                :class:`~repro.core.exceptions.CheckpointError` on
                divergence) before extending it.  A missing or damaged
                checkpoint file simply starts a fresh chain.
            on_engine: hook invoked with the built :class:`Engine`
                before the run starts — the campaign chaos harness uses
                it to plant process-kill events at a sim-time.
            interrupt_at_day: crash-recovery drill — raise
                :class:`~repro.core.exceptions.SimulationInterrupted`
                when the simulation clock reaches this day.  Checkpoint
                records written before the interrupt stay valid.

        Returns:
            the :class:`~repro.study.artifacts.StudyArtifacts`.
        """
        cfg = self._config
        tel = telemetry if telemetry is not None else Telemetry.disabled()
        metrics = tel.metrics if tel.enabled else None
        with tel.tracer.span("simulate", seed=cfg.seed):
            with tel.tracer.span("build"):
                cluster = Cluster(cfg.cluster_shape)
                cluster.validate()
                rngs = RngRegistry(cfg.seed)
                engine = Engine(horizon=cfg.window.end, metrics=metrics)
                # Sim-domain telemetry keeps simulation time, never the
                # wall clock: same seed, byte-identical artifacts.
                tel.set_clock(lambda: engine.now)
                log_bus = LogBus()
                scheduler = Scheduler(engine, cluster, metrics=metrics)
                repair = RepairTimeModel(cfg.repair, rngs.stream("ops.repair"))
                ops = OpsManager(
                    engine=engine,
                    cluster=cluster,
                    scheduler=scheduler,
                    repair_model=repair,
                    policy=cfg.ops_policy,
                    window=cfg.window,
                    rng=rngs.stream("ops.detection"),
                    on_event=log_bus.emit,
                    metrics=metrics,
                )
                injectors = _build_injectors(
                    cfg,
                    engine=engine,
                    cluster=cluster,
                    scheduler=scheduler,
                    ops=ops,
                    log_bus=log_bus,
                    rngs=rngs,
                    metrics=metrics,
                )
            recorder: Optional[CheckpointRecorder] = None
            if checkpoint is not None:
                loaded = (
                    RunCheckpoint.load(checkpoint.path) if resume else None
                )
                recorder = CheckpointRecorder(
                    checkpoint,
                    engine,
                    rngs,
                    cfg.digest(),
                    resume_from=loaded,
                    metrics=metrics,
                )
                recorder.arm()
            if interrupt_at_day is not None:

                def _interrupt() -> None:
                    raise SimulationInterrupted(
                        f"interrupted at sim day {interrupt_at_day:.2f} "
                        f"(crash-recovery drill)"
                    )

                engine.schedule(
                    interrupt_at_day * DAY,
                    _interrupt,
                    priority=-100,
                    label="chaos:interrupt",
                )
            if on_engine is not None:
                on_engine(engine)
            tel.logger.event(
                "simulate.start",
                seed=cfg.seed,
                horizon_days=cfg.window.end / 86400.0,
                gpu_nodes=cfg.cluster_shape.gpu_node_count,
            )
            with tel.tracer.span("arm"):
                for injector in injectors:
                    injector.arm()
                recovery_manager: Optional[GangRecoveryManager] = None
                if cfg.recovery is not None:
                    recovery_manager = GangRecoveryManager(
                        engine=engine,
                        cluster=cluster,
                        scheduler=scheduler,
                        log_bus=log_bus,
                        policy=cfg.recovery,
                        rng=rngs.stream("recovery"),
                        metrics=metrics,
                    )
                    recovery_manager.arm()

            with tel.tracer.span("workload"):
                generator = WorkloadGenerator(
                    cfg.workload, rngs.stream("workload")
                )
                requests = generator.generate(cfg.window)
                _JobFeeder(engine, scheduler, requests)

            utilization_samples: List[Tuple[float, float]] = []
            interval = cfg.utilization_sample_interval_hours * HOUR

            def sample_utilization() -> None:
                utilization_samples.append(
                    (engine.now, scheduler.gpu_busy_fraction())
                )
                if engine.now + interval < engine.horizon:
                    engine.schedule_after(
                        interval, sample_utilization, label="sample:utilization"
                    )

            engine.schedule(
                interval / 2.0, sample_utilization, label="sample:utilization"
            )

            with tel.tracer.span("engine-run") as run_span:
                engine.run()
                if run_span is not None:
                    run_span.set_attr("executed_events", engine.executed_events)
            if recorder is not None:
                recorder.finalize()
            engine.flush_metrics()
            logical_events = _merged_logical_events(injectors)
            tel.logger.event(
                "simulate.engine-done",
                executed_events=engine.executed_events,
                logical_errors=len(logical_events),
                job_records=len(scheduler.records),
            )

            # Benign noise and excluded XIDs never interact with the DES
            # state, so they are generated in one vectorized pass post-run.
            with tel.tracer.span("noise"):
                noise = generate_noise(
                    cfg.noise,
                    node_names=[n.name for n in cluster.nodes()],
                    gpu_node_names=[n.name for n in cluster.gpu_nodes()],
                    window=cfg.window,
                    rng=rngs.stream("syslog.noise"),
                )
                log_bus.extend(noise)
            if metrics is not None:
                metrics.counter(
                    "sim_log_lines_total",
                    "raw log lines on the bus (faults + ops + noise)",
                ).inc(len(log_bus))

            syslog_dir = inventory_path = sacct_path = truth_path = None
            if output_dir is not None:
                with tel.tracer.span("write-artifacts"):
                    output_dir.mkdir(parents=True, exist_ok=True)
                    syslog_dir = output_dir / "syslog"
                    write_day_partitioned(
                        syslog_dir,
                        log_bus,
                        compress=cfg.compress_logs,
                    )
                    inventory_path = output_dir / "inventory.json"
                    Inventory.from_cluster(cluster).save(inventory_path)
                    sacct_path = output_dir / "sacct.csv"
                    truth_path = output_dir / "truth.csv"
                    with AccountingWriter(sacct_path, truth_path) as writer:
                        for record in sorted(
                            scheduler.records, key=lambda r: r.end_time
                        ):
                            writer.write(record)
            tel.logger.event(
                "simulate.done",
                log_lines=len(log_bus),
                downtime_records=len(ops.downtime_records),
            )

        artifacts = StudyArtifacts(
            output_dir=output_dir,
            syslog_dir=syslog_dir,
            inventory_path=inventory_path,
            sacct_path=sacct_path,
            truth_path=truth_path,
            window=cfg.window,
            node_count=cfg.cluster_shape.gpu_node_count,
            logical_events=logical_events,
            downtime_records=ops.downtime_records,
            job_records=scheduler.records,
            utilization_samples=utilization_samples,
            raw_log_lines=len(log_bus),
            recovery=(
                recovery_manager.summary()
                if recovery_manager is not None
                else None
            ),
        )
        if output_dir is not None:
            artifacts.save_result(output_dir / "result.json")
        return artifacts
