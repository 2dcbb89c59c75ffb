"""Campaign supervisor: isolation, retry, resume, degradation.

These tests drive real worker subprocesses over a deliberately tiny
study configuration (a few simulated days, thinned workload) so the
full fork/retry/kill machinery is exercised in seconds.
"""

from __future__ import annotations

import json

import pytest

from repro.core.exceptions import CampaignError, ConfigurationError
from repro.study.chaos import WorkerChaosConfig
from repro.study.supervise import (
    STATUS_DONE,
    STATUS_FAILED,
    CampaignLimits,
    CampaignSpec,
    CampaignSupervisor,
    CellSpec,
)

TINY = {"pre_days": 1.0, "op_days": 3.0, "job_scale": 0.01}

FAST_LIMITS = dict(
    timeout_seconds=120.0,
    backoff_base_seconds=0.01,
    backoff_max_seconds=0.05,
)


def _spec(name, seeds, *, max_attempts=3, max_workers=4, chaos=None, **kwargs):
    return CampaignSpec.sweep(
        name=name,
        preset="small",
        seeds=tuple(seeds),
        overrides=dict(TINY),
        limits=CampaignLimits(
            max_workers=max_workers,
            max_attempts=max_attempts,
            **FAST_LIMITS,
        ),
        chaos=chaos,
        **kwargs,
    )


class TestSpec:
    def test_sweep_cell_ids(self):
        spec = _spec("s", [7, 8])
        assert [c.cell_id for c in spec.cells] == [
            "small-seed00007",
            "small-seed00008",
        ]

    def test_empty_campaign_rejected(self):
        with pytest.raises(CampaignError):
            CampaignSpec(name="s", cells=())

    def test_duplicate_cells_rejected(self):
        cell = CellSpec(cell_id="c", preset="small", seed=1)
        with pytest.raises(CampaignError):
            CampaignSpec(name="s", cells=(cell, cell))

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            CellSpec(cell_id="c", preset="huge", seed=1)

    def test_digest_ignores_supervision_policy(self):
        lax = _spec("s", [7, 8])
        strict = CampaignSpec(
            name="other-name",
            cells=lax.cells,
            limits=CampaignLimits(max_workers=1, timeout_seconds=5.0),
            chaos=WorkerChaosConfig.storm(seed=1),
        )
        assert lax.digest() == strict.digest()

    def test_digest_covers_cells_and_cadence(self):
        assert _spec("s", [7, 8]).digest() != _spec("s", [7, 9]).digest()
        assert (
            _spec("s", [7], checkpoint_cadence_days=1.0).digest()
            != _spec("s", [7]).digest()
        )


class TestBackoff:
    def test_deterministic_and_bounded(self):
        limits = CampaignLimits(
            backoff_base_seconds=0.5,
            backoff_factor=2.0,
            backoff_max_seconds=4.0,
            backoff_jitter=0.25,
        )
        first = limits.backoff_seconds("camp", "cell", 1)
        assert first == limits.backoff_seconds("camp", "cell", 1)
        assert 0.5 <= first <= 0.5 * 1.25
        # Exponential growth, capped (plus jitter headroom).
        assert limits.backoff_seconds("camp", "cell", 10) <= 4.0 * 1.25

    def test_jitter_varies_by_cell(self):
        limits = CampaignLimits()
        delays = {
            limits.backoff_seconds("camp", f"cell{i}", 1) for i in range(8)
        }
        assert len(delays) > 1


class TestCampaignRuns:
    def test_clean_campaign_full_coverage(self, tmp_path):
        spec = _spec("clean", [7, 8], max_workers=2)
        result = CampaignSupervisor(spec, tmp_path / "camp").run()
        assert result.succeeded
        assert result.coverage.complete
        assert result.coverage.cells_total == 2
        assert sorted(result.cell_status.values()) == ["done", "done"]
        manifest = json.loads(result.manifest_path.read_text("utf-8"))
        assert all(
            cell["attempts"] == 1 and cell["status"] == STATUS_DONE
            for cell in manifest["cells"].values()
        )
        summary = json.loads(result.summary_path.read_text("utf-8"))
        assert summary["coverage"]["fraction"] == 1.0
        assert summary["aggregates"]["cells"] == 2
        for cell_id in result.cell_status:
            cell_dir = tmp_path / "camp" / "cells" / cell_id
            assert (cell_dir / "result.json").is_file()
            assert (cell_dir / "worker-attempt01.log").is_file()

    def test_chaos_storm_converges_with_identical_aggregates(self, tmp_path):
        """The acceptance drill: kill/garbage chaos, byte-identical sums."""
        seeds = (7, 8, 9)
        clean = CampaignSupervisor(
            _spec("drill", seeds), tmp_path / "clean"
        ).run()
        chaos = WorkerChaosConfig(
            seed=5,
            kill_probability=0.5,
            garbage_exit_probability=0.5,
            max_strikes_per_cell=1,
        )
        stormy = CampaignSupervisor(
            _spec("drill", seeds, chaos=chaos), tmp_path / "stormy"
        ).run()
        assert stormy.coverage.complete
        assert stormy.aggregates == clean.aggregates
        # Byte-identical summaries (graceful-degradation artifact).
        assert (
            stormy.summary_path.read_bytes() == clean.summary_path.read_bytes()
        )
        # Every cell burned exactly one sabotaged attempt, then passed.
        manifest = json.loads(stormy.manifest_path.read_text("utf-8"))
        for cell in manifest["cells"].values():
            assert cell["attempts"] == 2
            assert cell["history"][0]["outcome"] in ("crash", "error")
            assert cell["history"][1]["outcome"] == "ok"

    def test_checkpointed_chaos_retry_verifies_chain(self, tmp_path):
        """A retry resumes the killed attempt's engine checkpoint chain."""
        chaos = WorkerChaosConfig(
            seed=2, kill_probability=1.0, max_strikes_per_cell=1
        )
        spec = _spec(
            "ck", [7], chaos=chaos, checkpoint_cadence_days=1.0
        )
        result = CampaignSupervisor(spec, tmp_path / "camp").run()
        assert result.coverage.complete
        cell_dir = tmp_path / "camp" / "cells" / "small-seed00007"
        doc = json.loads(
            (cell_dir / "engine_checkpoint.json").read_text("utf-8")
        )
        assert doc["completed"]

        # Same seed, no chaos, same cadence: the chain must match.
        baseline = CampaignSupervisor(
            _spec("ck", [7], checkpoint_cadence_days=1.0),
            tmp_path / "baseline",
        ).run()
        assert baseline.coverage.complete
        base_doc = json.loads(
            (
                tmp_path
                / "baseline"
                / "cells"
                / "small-seed00007"
                / "engine_checkpoint.json"
            ).read_text("utf-8")
        )
        assert doc["records"] == base_doc["records"]

    def test_timeout_reclaims_hung_worker(self, tmp_path):
        chaos = WorkerChaosConfig(
            seed=1, hang_probability=1.0, max_strikes_per_cell=1
        )
        spec = CampaignSpec.sweep(
            name="hang",
            preset="small",
            seeds=(7,),
            overrides=dict(TINY),
            limits=CampaignLimits(
                max_workers=1,
                timeout_seconds=3.0,
                max_attempts=3,
                backoff_base_seconds=0.01,
            ),
            chaos=chaos,
        )
        result = CampaignSupervisor(spec, tmp_path / "camp").run()
        assert result.coverage.complete
        manifest = json.loads(result.manifest_path.read_text("utf-8"))
        history = manifest["cells"]["small-seed00007"]["history"]
        assert [h["outcome"] for h in history] == ["timeout", "ok"]

    def test_permanent_failures_degrade_gracefully(self, tmp_path):
        # Sabotage every attempt of every cell, but give one cell a
        # clean budget by exempting it via the strikes window: instead,
        # fail half the cells deterministically by computing the chaos
        # plans up front and asserting the supervisor agrees.
        chaos = WorkerChaosConfig(
            seed=9, garbage_exit_probability=0.5, max_strikes_per_cell=99
        )
        seeds = (7, 8, 9, 10)
        spec = _spec("deg", seeds, chaos=chaos, max_attempts=2)
        expected_failed = {
            f"small-seed{seed:05d}"
            for seed in seeds
            if all(
                not chaos.plan(f"small-seed{seed:05d}", attempt).is_noop
                for attempt in (1, 2)
            )
        }
        expected_done = {
            f"small-seed{seed:05d}" for seed in seeds
        } - expected_failed
        assert expected_failed and expected_done  # seed 9 gives a mix

        result = CampaignSupervisor(spec, tmp_path / "camp").run()
        assert not result.coverage.complete
        assert set(result.coverage.missing) == expected_failed
        assert {
            cell_id
            for cell_id, status in result.cell_status.items()
            if status == STATUS_DONE
        } == expected_done
        assert {
            cell_id
            for cell_id, status in result.cell_status.items()
            if status == STATUS_FAILED
        } == expected_failed
        summary = json.loads(result.summary_path.read_text("utf-8"))
        assert summary["coverage"]["missing_cells"] == sorted(expected_failed)
        assert summary["aggregates"]["cells"] == len(expected_done)
        assert "Degraded campaign" in (
            (tmp_path / "camp" / "summary.md").read_text("utf-8")
        )

    def test_all_cells_failing_raises(self, tmp_path):
        chaos = WorkerChaosConfig(
            seed=1, garbage_exit_probability=1.0, max_strikes_per_cell=99
        )
        spec = _spec("dead", [7, 8], chaos=chaos, max_attempts=1)
        with pytest.raises(CampaignError, match="no cell produced a result"):
            CampaignSupervisor(spec, tmp_path / "camp").run()


class TestResume:
    def test_interrupted_pass_resumes_to_completion(self, tmp_path):
        spec = _spec("resume", [7, 8, 9], max_workers=1)
        supervisor = CampaignSupervisor(spec, tmp_path / "camp")
        first = supervisor.run(stop_after_cells=1)
        assert first.interrupted
        assert not first.succeeded
        assert first.coverage.cells_completed == 1

        second = CampaignSupervisor(spec, tmp_path / "camp").run(resume=True)
        assert second.succeeded
        assert second.coverage.cells_completed == 3
        # The completed cell was not re-run.
        manifest = json.loads(second.manifest_path.read_text("utf-8"))
        attempts = sorted(
            cell["attempts"] for cell in manifest["cells"].values()
        )
        assert attempts.count(1) == 3

    def test_resume_requeues_cell_with_missing_result(self, tmp_path):
        spec = _spec("heal", [7], max_workers=1)
        camp = tmp_path / "camp"
        first = CampaignSupervisor(spec, camp).run()
        assert first.succeeded
        (camp / "cells" / "small-seed00007" / "result.json").unlink()
        second = CampaignSupervisor(spec, camp).run(resume=True)
        assert second.succeeded
        manifest = json.loads(second.manifest_path.read_text("utf-8"))
        assert manifest["cells"]["small-seed00007"]["attempts"] == 2

    def test_damaged_manifest_set_aside_and_campaign_completes(
        self, tmp_path
    ):
        camp = tmp_path / "camp"
        camp.mkdir()
        (camp / "manifest.json").write_text("{not json", encoding="utf-8")
        spec = _spec("damaged", [7], max_workers=1)
        result = CampaignSupervisor(spec, camp).run(resume=True)
        assert result.succeeded
        aside = camp / "manifest.json.corrupt-1"
        assert aside.read_text("utf-8") == "{not json"

    def test_resume_with_other_spec_refused(self, tmp_path):
        camp = tmp_path / "camp"
        CampaignSupervisor(_spec("a", [7]), camp).run()
        with pytest.raises(CampaignError, match="different campaign spec"):
            CampaignSupervisor(_spec("a", [7, 8]), camp).run(resume=True)

    def test_fresh_run_ignores_previous_manifest(self, tmp_path):
        camp = tmp_path / "camp"
        CampaignSupervisor(_spec("a", [7]), camp).run()
        # Without resume, a different spec simply starts over.
        result = CampaignSupervisor(_spec("b", [8]), camp).run()
        assert result.coverage.complete
        manifest = json.loads(result.manifest_path.read_text("utf-8"))
        assert list(manifest["cells"]) == ["small-seed00008"]
