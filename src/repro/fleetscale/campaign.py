"""Fleet campaign orchestration: configure, run, report.

A campaign is the fleet-scale counterpart of
:class:`~repro.study.runner.DeltaStudy`: it builds a
:class:`~repro.fleetscale.fleet.FleetSpec` from an architecture preset
and GPU target, derives one calibrated fault suite per architecture
(the Hopper sub-fleet goes through
:class:`~repro.calibration.hopper.HopperProjection`), and drives the
thinned samplers through the slice batcher into the streaming
accumulators.  Rates scale with the sub-fleet's GPU share of the
448-GPU calibration basis, so per-GPU behaviour is invariant under
scale-out.

Host-side cost (wall seconds, events/sec, peak RSS via
:mod:`repro.obs.hostres`) is published as ``domain="host"`` metrics
and embedded in the result payload — the E18 scaling benchmark reads
these to assert the bounded-memory claim.
"""

from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from ..calibration.delta import delta_fault_suite
from ..calibration.hopper import HopperProjection, apply_projection
from ..cluster.topology import DELTA_A100_GPUS, ClusterShape
from ..core.arch import Architecture
from ..core.exceptions import ConfigurationError
from ..core.periods import StudyWindow
from ..faults.config import FaultSuiteConfig, scale_counts
from ..obs.hostres import peak_rss_mib
from ..obs.metrics import MetricsRegistry
from ..reporting.fleet import render_fleet_table1, render_fleet_table2
from ..sim.engine import Engine
from ..sim.rng import RngRegistry
from .accumulator import FleetAccumulator
from .batching import SliceDriver
from .fleet import FleetSpec, shape_for_scale
from .sampling import ThinnedFleetSampler

DAY_SECONDS = 86_400.0


@dataclass(frozen=True)
class FleetCampaignConfig:
    """Everything a fleet campaign needs.

    Attributes:
        arch: architecture preset (``a100`` / ``hopper`` / ``mixed``);
            ignored when ``shape`` is given explicitly.
        scale: target GPU count for the preset.
        shape: explicit cluster shape overriding the preset.
        window: study window (defaults to the 1170-day Delta window).
        seed: RNG registry seed; two runs with the same config and
            seed produce byte-identical results.
        slice_days: batching slice length; smaller slices lower the
            peak working set, larger ones amortize sampling overhead.
        projection: Hopper rate multipliers for hopper/mixed fleets
            (defaults to the calibrated DeltaAI-derived projection).
        busy_fraction_pre_op / busy_fraction_op: job-exposure
            probabilities for the Table II analog.
    """

    arch: str = "a100"
    scale: int = DELTA_A100_GPUS
    shape: Optional[ClusterShape] = None
    window: StudyWindow = field(default_factory=StudyWindow.delta_default)
    seed: int = 7
    slice_days: float = 30.0
    projection: Optional[HopperProjection] = None
    busy_fraction_pre_op: float = 0.06
    busy_fraction_op: float = 0.72

    def __post_init__(self) -> None:
        if self.slice_days <= 0:
            raise ConfigurationError(
                f"slice_days must be positive, got {self.slice_days}"
            )

    def resolve_shape(self) -> ClusterShape:
        if self.shape is not None:
            return self.shape
        return shape_for_scale(self.arch, self.scale)


@dataclass
class CampaignResult:
    """A finished campaign: per-arch tallies plus host-side cost."""

    config_summary: dict
    per_arch: list
    total_events: int
    host: dict

    def to_payload(self) -> dict:
        return {
            "config": self.config_summary,
            "architectures": self.per_arch,
            "total_events": self.total_events,
            "host": self.host,
        }


class FleetCampaign:
    """One configured fleet campaign, runnable exactly once."""

    def __init__(
        self,
        config: FleetCampaignConfig,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.spec = FleetSpec(config.resolve_shape())
        if not self.spec.subfleets:
            raise ConfigurationError("fleet has no GPU nodes")
        self._metrics = metrics
        self._rngs = RngRegistry(seed=config.seed)
        window = config.window
        self._engine = Engine(horizon=window.end + 1.0)
        self.suites: Dict[Architecture, FaultSuiteConfig] = {
            arch: self._suite_for(arch, sub.gpu_count)
            for arch, sub in self.spec.subfleets.items()
        }
        self._samplers = {
            arch: ThinnedFleetSampler(
                self.spec.subfleets[arch], suite, window, self._rngs
            )
            for arch, suite in self.suites.items()
        }
        self.accumulator = FleetAccumulator(
            self.spec,
            window,
            self.suites,
            self._rngs,
            busy_fraction_pre_op=config.busy_fraction_pre_op,
            busy_fraction_op=config.busy_fraction_op,
        )
        self.driver = SliceDriver(
            self._engine,
            self.spec,
            self._samplers,
            self.accumulator,
            window,
            slice_seconds=config.slice_days * DAY_SECONDS,
        )

    def _suite_for(self, arch: Architecture, gpus: int) -> FaultSuiteConfig:
        """Per-arch suite scaled to the sub-fleet's share of 448 GPUs.

        The defective-GPU episode (one physical unit on Delta) is
        excluded: it does not scale with fleet size and the thinned
        path has no per-GPU persistent state to host it.
        """
        base = delta_fault_suite(include_episode=False)
        if arch is Architecture.HOPPER:
            base = apply_projection(
                base, self.config.projection or HopperProjection()
            )
        return scale_counts(base, gpus / DELTA_A100_GPUS)

    def run(self) -> CampaignResult:
        wall_start = _time.perf_counter()
        self.driver.start()
        self._engine.run()
        self.accumulator.fold()
        wall = _time.perf_counter() - wall_start
        total = self.accumulator.total_events
        host = {
            "wall_seconds": wall,
            "events_per_second": total / wall if wall > 0 else 0.0,
            "peak_rss_mib": peak_rss_mib(),
            "heap_high_water": self.driver.heap_high_water,
            "slices_run": self.driver.slices_run,
            "batches_scheduled": self.driver.batches_scheduled,
        }
        if self._metrics is not None:
            self._publish_host_metrics(host)
        cfg = self.config
        shape = self.spec.shape
        summary = {
            "arch": cfg.arch if cfg.shape is None else "custom",
            "seed": cfg.seed,
            "slice_days": cfg.slice_days,
            "total_days": cfg.window.total_days,
            "shape": {
                "four_way_nodes": shape.four_way_nodes,
                "eight_way_nodes": shape.eight_way_nodes,
                "gh200_nodes": shape.gh200_nodes,
            },
            "gpu_count": self.spec.gpu_count,
            "node_count": self.spec.node_count,
            "architectures": [a.value for a in self.spec.architectures],
        }
        return CampaignResult(
            config_summary=summary,
            per_arch=self.accumulator.payloads(),
            total_events=total,
            host=host,
        )

    def _publish_host_metrics(self, host: dict) -> None:
        metrics = self._metrics
        gauges = {
            "fleetscale_wall_seconds": host["wall_seconds"],
            "fleetscale_events_per_second": host["events_per_second"],
            "fleetscale_peak_rss_mib": host["peak_rss_mib"],
            "fleetscale_heap_high_water": float(host["heap_high_water"]),
        }
        for name, value in gauges.items():
            metrics.gauge(name, help=name, domain="host").set(value)
        # Seed-deterministic results go in the sim domain, so they
        # survive the default (host-excluding) metrics snapshot.
        events = metrics.counter(
            "fleetscale_events_total",
            help="logical errors accumulated per architecture",
            labels=("arch",),
        )
        for stats in self.accumulator:
            events.labels(arch=stats.arch.value).inc(stats.total_events)
        metrics.counter(
            "fleetscale_slices_total",
            help="sampling slices driven through the engine",
        ).inc(self.driver.slices_run)
        metrics.counter(
            "fleetscale_batches_total",
            help="per-node event batches scheduled",
        ).inc(self.driver.batches_scheduled)


def run_campaign(
    config: FleetCampaignConfig,
    out_dir: Optional[Path] = None,
    metrics: Optional[MetricsRegistry] = None,
    write_inventory: bool = False,
) -> CampaignResult:
    """Run a campaign and (optionally) write its artifact set.

    Artifacts in ``out_dir``: ``fleet_result.json`` plus
    ``table1_<arch>.txt`` / ``table2_<arch>.txt`` per architecture,
    and ``inventory.json`` when ``write_inventory`` is set (streamed —
    safe at 100k GPUs).
    """
    campaign = FleetCampaign(config, metrics=metrics)
    result = campaign.run()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "fleet_result.json").write_text(
            json.dumps(result.to_payload(), indent=2, sort_keys=True) + "\n"
        )
        for stats in campaign.accumulator:
            arch = stats.arch.value
            (out_dir / f"table1_{arch}.txt").write_text(
                render_fleet_table1(stats, config.window) + "\n"
            )
            (out_dir / f"table2_{arch}.txt").write_text(
                render_fleet_table2(stats) + "\n"
            )
        if write_inventory:
            campaign.spec.write_inventory(out_dir / "inventory.json")
    return result
