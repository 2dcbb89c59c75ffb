"""Integration tests for the design-choice ablations (DESIGN.md A1–A5).

Each test runs paired configurations differing in exactly one
mechanism and checks the direction (and rough size) of the effect —
the same comparisons the ablation benchmarks print.
"""

from dataclasses import replace

import pytest

from repro import DeltaStudy, StudyConfig
from repro.analysis import JobImpactAnalysis
from repro.calibration.delta import delta_fault_suite
from repro.core.periods import PeriodName
from repro.core.xid import EventClass
from repro.faults.config import UtilizationCouplingConfig
from repro.gpu.memory import MemoryRecoveryConfig
from repro.pipeline.coalesce import WindowMode, coalesce
from repro.pipeline.run import run_pipeline


def run_small(tmp_path, name, **config_kwargs):
    out = tmp_path / name
    config = StudyConfig.small(seed=77, **config_kwargs)
    artifacts = DeltaStudy(config).run(out)
    return artifacts, run_pipeline(out)


class TestCoalescingWindowAblation:
    """A1: error counts are highly sensitive to the coalescing Δt."""

    @pytest.fixture(scope="class")
    def hits(self, tmp_path_factory, raw_hits):
        out = tmp_path_factory.mktemp("a1")
        config = StudyConfig.small(seed=5, include_episode=True, job_scale=0.005)
        DeltaStudy(config).run(out)
        from repro.cluster.inventory import Inventory

        return raw_hits(out / "syslog", Inventory.load(out / "inventory.json"))

    def test_no_coalescing_overcounts_massively(self, hits):
        raw = coalesce(hits, window_seconds=0.0)
        standard = coalesce(hits, window_seconds=30.0)
        # Duplicate bursts mean the uncoalesced count is far larger.
        assert len(raw) > 2.5 * len(standard)

    def test_counts_monotone_in_window(self, hits):
        counts = [
            len(coalesce(hits, window_seconds=w)) for w in (0.0, 10.0, 30.0, 120.0, 600.0)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_sliding_window_collapses_episode(self, hits):
        episode_hits = [
            h for h in hits
            if h.event_class is EventClass.UNCONTAINED_MEMORY_ERROR
        ]
        tumbling = coalesce(episode_hits, window_seconds=30.0)
        sliding = coalesce(
            episode_hits, window_seconds=30.0, mode=WindowMode.SLIDING
        )
        # The persistent episode keeps gaps at/below Δt most of the
        # time, so sliding merges essentially everything.
        assert len(sliding) < 0.2 * len(tumbling)


class TestAttributionWindowAblation:
    """A2: Table II is stable in the window but degrades when huge."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("a2")
        config = StudyConfig.small(seed=21, job_scale=0.04)
        artifacts = DeltaStudy(config).run(out)
        return artifacts, run_pipeline(out)

    def test_failed_jobs_monotone_in_window(self, run):
        artifacts, result = run
        totals = []
        for seconds in (5.0, 20.0, 120.0):
            impact = JobImpactAnalysis(
                result.errors,
                result.jobs,
                artifacts.window,
                attribution_window_seconds=seconds,
            ).run()
            totals.append(impact.total_gpu_failed_jobs)
        assert totals == sorted(totals)

    def test_tiny_window_misses_kills(self, run):
        artifacts, result = run
        # Kill delays are uniform in (0.5, 12) s; a 1-second window
        # must miss most of them.
        narrow = JobImpactAnalysis(
            result.errors, result.jobs, artifacts.window,
            attribution_window_seconds=1.0,
        ).run()
        standard = JobImpactAnalysis(
            result.errors, result.jobs, artifacts.window
        ).run()
        assert narrow.total_gpu_failed_jobs < 0.5 * standard.total_gpu_failed_jobs


class TestCrcAblation:
    """A3: disabling NVLink CRC retry raises job-failure probability."""

    def _nvlink_probability(self, tmp_path, crc_enabled: bool):
        suite = delta_fault_suite(include_episode=False)
        link_model = replace(
            suite.nvlink.link_model, crc_retry_enabled=crc_enabled
        )
        nvlink = replace(suite.nvlink, link_model=link_model)
        suite = replace(suite, nvlink=nvlink)
        config = StudyConfig.small(seed=13, job_scale=0.05)
        config = replace(config, fault_suite=suite)
        out = tmp_path / f"crc_{crc_enabled}"
        artifacts = DeltaStudy(config).run(out)
        result = run_pipeline(out)
        impact = JobImpactAnalysis(
            result.errors, result.jobs, artifacts.window
        ).run()
        nv = impact.per_class.get(EventClass.NVLINK_ERROR)
        return nv.failure_probability if nv else None, (
            nv.jobs_encountering if nv else 0
        )

    def test_crc_off_is_deadlier(self, tmp_path):
        p_on, n_on = self._nvlink_probability(tmp_path, True)
        p_off, n_off = self._nvlink_probability(tmp_path, False)
        assert n_on >= 10 and n_off >= 10
        assert p_off > p_on


class TestRecoveryAblation:
    """A4: without remapping/containment every uncorrectable error
    forces a reset (the Kepler-era behaviour)."""

    def _memory_outcomes(self, tmp_path, enabled: bool):
        suite = delta_fault_suite(include_episode=False)
        def patch(params):
            recovery = MemoryRecoveryConfig(
                remapping_enabled=enabled,
                containment_enabled=enabled,
                page_offlining_enabled=enabled,
                dbe_xid_probability=params.recovery.dbe_xid_probability,
                containment_success_probability=(
                    params.recovery.containment_success_probability
                ),
                active_touch_probability=params.recovery.active_touch_probability,
            )
            return replace(params, recovery=recovery)

        chain = replace(
            suite.memory_chain,
            pre_op=patch(suite.memory_chain.pre_op),
            op=patch(suite.memory_chain.op),
        )
        suite = replace(suite, memory_chain=chain)
        config = replace(
            StudyConfig.small(seed=31, job_scale=0.01), fault_suite=suite
        )
        out = tmp_path / f"recovery_{enabled}"
        artifacts = DeltaStudy(config).run(out)
        counts = {}
        for event in artifacts.logical_events:
            counts[event.event_class] = counts.get(event.event_class, 0) + 1
        memory_downtime = [
            r
            for r in artifacts.downtime_records
            if r.cause
            in (
                EventClass.UNCORRECTABLE_ECC,
                EventClass.ROW_REMAP_FAILURE,
                EventClass.UNCONTAINED_MEMORY_ERROR,
            )
        ]
        return counts, memory_downtime

    def test_ablated_recovery_forces_resets(self, tmp_path):
        with_counts, with_downtime = self._memory_outcomes(tmp_path, True)
        without_counts, without_downtime = self._memory_outcomes(tmp_path, False)
        # No RREs once remapping is off.
        assert without_counts.get(EventClass.ROW_REMAP_EVENT, 0) == 0
        assert with_counts.get(EventClass.ROW_REMAP_EVENT, 0) > 0
        # Memory-caused node recoveries multiply.
        assert len(without_downtime) > 2 * max(len(with_downtime), 1)


class TestCouplingAblation:
    """A5: the MTBE degradation emerges from the utilization coupling."""

    def test_coupled_gsp_rates_follow_utilization_law(self, tmp_path):
        coupling = UtilizationCouplingConfig()
        suite = delta_fault_suite(
            include_episode=False, utilization_coupling=coupling
        )
        config = replace(
            StudyConfig.small(seed=55, job_scale=0.005), fault_suite=suite
        )
        artifacts = DeltaStudy(config).run(None)
        window = artifacts.window
        gsp = [
            e for e in artifacts.logical_events
            if e.event_class is EventClass.GSP_ERROR
        ]
        pre = sum(1 for e in gsp if e.time < window.operational.start)
        op = len(gsp) - pre
        pre_rate = pre / window.pre_operational.duration_hours
        op_rate = op / window.operational.duration_hours
        assert op_rate / max(pre_rate, 1e-9) == pytest.approx(5.6, rel=0.4)
