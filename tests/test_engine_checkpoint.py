"""Engine snapshot/restore, state digests, and run checkpoints.

Covers the two recovery mechanisms DESIGN §10 distinguishes:

* in-process structural snapshots (:meth:`Engine.snapshot` /
  :meth:`Engine.restore`), including their interaction with the lazy
  tombstone heap and auto-compaction under a cancel-heavy fault storm;
* cross-process replay-verified checkpoints
  (:mod:`repro.sim.checkpoint`), proven byte-identical across an
  interrupt/resume cycle of a real study run.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.exceptions import (
    CheckpointError,
    SimulationError,
    SimulationInterrupted,
)
from repro.core.timebase import DAY
from repro.sim.checkpoint import (
    CheckpointConfig,
    CheckpointRecord,
    RunCheckpoint,
)
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.study import DeltaStudy, StudyConfig


def _tiny_config(seed: int = 11) -> StudyConfig:
    return StudyConfig.small(
        seed=seed, pre_days=1.0, op_days=5.0, job_scale=0.01
    )


def _artifact_bytes(root: Path) -> dict:
    """Map of relative path -> file bytes for a whole artifact tree."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestEngineSnapshot:
    def _scripted_engine(self, trace):
        """An engine running a deterministic self-rescheduling script."""
        engine = Engine(horizon=100.0)

        def tick(t):
            def fire():
                trace.append(("tick", engine.now))
                if t + 10.0 < engine.horizon:
                    engine.schedule(t + 10.0, tick(t + 10.0), label="w:tick")

            return fire

        engine.schedule(5.0, tick(5.0), label="w:tick")
        return engine

    def test_restore_replays_identically(self):
        trace = []
        engine = self._scripted_engine(trace)
        engine.run(until=40.0)
        snap = engine.snapshot()
        prefix = list(trace)
        engine.run()
        full = list(trace)

        trace.clear()
        trace.extend(prefix)
        engine.restore(snap)
        engine.run()
        assert trace == full

    def test_snapshot_is_reusable(self):
        trace = []
        engine = self._scripted_engine(trace)
        engine.run(until=35.0)
        snap = engine.snapshot()
        results = []
        for _ in range(2):
            trace.clear()
            engine.restore(snap)
            engine.run()
            results.append(list(trace))
        assert results[0] == results[1]

    def test_snapshot_isolated_from_later_activity(self):
        engine = Engine(horizon=50.0)
        handle = engine.schedule(10.0, lambda: None, label="a")
        snap = engine.snapshot()
        handle.cancel()
        assert snap.live_events == 1
        engine.restore(snap)
        assert engine.live_pending_events == 1

    def test_restore_while_running_raises(self):
        engine = Engine(horizon=50.0)
        snap = engine.snapshot()

        def sabotage():
            with pytest.raises(SimulationError):
                engine.restore(snap)

        engine.schedule(1.0, sabotage)
        engine.run()

    def test_counters_roundtrip(self):
        engine = Engine(horizon=50.0)
        keep = engine.schedule(20.0, lambda: None)
        engine.schedule(30.0, lambda: None).cancel()
        engine.run(until=10.0)
        snap = engine.snapshot()
        other = Engine(horizon=50.0)
        other.restore(snap)
        assert other.now == engine.now
        assert other.pending_events == engine.pending_events
        assert other.live_pending_events == engine.live_pending_events
        assert other.state_digest() == engine.state_digest()
        assert keep is not None


class TestStateDigest:
    def test_equal_futures_digest_equally(self):
        a, b = Engine(horizon=10.0), Engine(horizon=10.0)
        a.schedule(1.0, lambda: None, label="x")
        a.schedule(2.0, lambda: None, label="y")
        # Different scheduling order (so different seq numbers), same
        # live multiset.
        b.schedule(2.0, lambda: None, label="y")
        b.schedule(1.0, lambda: None, label="x")
        assert a.state_digest() == b.state_digest()

    def test_tombstones_do_not_count(self):
        a, b = Engine(horizon=10.0), Engine(horizon=10.0)
        a.schedule(1.0, lambda: None, label="x")
        b.schedule(1.0, lambda: None, label="x")
        b.schedule(5.0, lambda: None, label="doomed").cancel()
        assert a.state_digest() == b.state_digest()

    def test_exclusion_prefixes(self):
        a, b = Engine(horizon=10.0), Engine(horizon=10.0)
        a.schedule(1.0, lambda: None, label="x")
        b.schedule(1.0, lambda: None, label="x")
        b.schedule(3.0, lambda: None, label="chaos:kill")
        b.schedule(4.0, lambda: None, label="checkpoint:tick")
        assert a.state_digest() != b.state_digest()
        assert a.state_digest(
            exclude_label_prefixes=("chaos:", "checkpoint:")
        ) == b.state_digest(exclude_label_prefixes=("chaos:", "checkpoint:"))

    def test_live_event_changes_digest(self):
        a, b = Engine(horizon=10.0), Engine(horizon=10.0)
        a.schedule(1.0, lambda: None, label="x")
        b.schedule(1.0, lambda: None, label="y")
        assert a.state_digest() != b.state_digest()


class TestTombstoneStormSnapshot:
    """Satellite: cancel-heavy storms + compaction + snapshot/restore."""

    def _storm_engine(self, trace):
        """A fault-storm script that cancels most of what it schedules."""
        engine = Engine(
            horizon=1000.0, auto_compact_ratio=0.5, auto_compact_min=64
        )
        handles = []

        def wave(t):
            def fire():
                trace.append(round(engine.now, 3))
                # Schedule a burst, then cancel 90% of it — the
                # mitigation path of a fault storm.
                burst = [
                    engine.schedule(
                        engine.now + 1.0 + 0.01 * i,
                        lambda: trace.append("burst"),
                        label="storm:burst",
                    )
                    for i in range(100)
                ]
                for handle in burst[: len(burst) * 9 // 10]:
                    handle.cancel()
                handles.extend(burst)
                if t + 50.0 < engine.horizon:
                    engine.schedule(
                        t + 50.0, wave(t + 50.0), label="storm:wave"
                    )

            return fire

        engine.schedule(10.0, wave(10.0), label="storm:wave")
        return engine

    def test_auto_compaction_triggers_under_storm(self):
        trace = []
        engine = self._storm_engine(trace)
        engine.run()
        assert engine.compactions > 0
        assert engine.tombstone_ratio < 0.5

    def test_snapshot_restore_mid_storm_is_deterministic(self):
        trace = []
        engine = self._storm_engine(trace)
        engine.run(until=310.0)
        assert engine.compactions > 0  # storm already forced compaction
        snap = engine.snapshot()
        prefix = list(trace)
        engine.run()
        full = list(trace)
        full_digest = engine.state_digest()

        # Restore into the same engine and replay the tail twice.
        for _ in range(2):
            trace.clear()
            trace.extend(prefix)
            engine.restore(snap)
            engine.run()
            assert trace == full
            assert engine.state_digest() == full_digest

    def test_compaction_after_restore_preserves_future(self):
        trace = []
        engine = self._storm_engine(trace)
        engine.run(until=310.0)
        snap = engine.snapshot()
        prefix = list(trace)
        engine.run()
        full = list(trace)

        # Restore, force an immediate manual compaction, then replay:
        # removing tombstones must not change what fires.
        trace.clear()
        trace.extend(prefix)
        engine.restore(snap)
        engine.compact()
        assert engine.tombstone_ratio == 0.0
        engine.run()
        assert trace == full


class TestRngRegistryState:
    def test_state_roundtrip(self):
        rngs = RngRegistry(seed=7)
        stream = rngs.stream("faults")
        stream.normal(size=8)
        state = rngs.state()
        digest = rngs.digest()
        expected = stream.normal(size=4).tolist()
        rngs.restore_state(state)
        assert rngs.digest() == digest
        assert rngs.stream("faults").normal(size=4).tolist() == expected

    def test_digest_tracks_consumption(self):
        rngs = RngRegistry(seed=7)
        before = rngs.digest()
        rngs.stream("faults").normal()
        assert rngs.digest() != before


class TestRunCheckpointDocument:
    def test_save_load_roundtrip(self, tmp_path):
        doc = RunCheckpoint(
            seed=3,
            config_digest="abc",
            records=[
                CheckpointRecord(
                    sim_time=86400.0,
                    executed_events=10,
                    engine_digest="e1",
                    rng_digest="r1",
                )
            ],
        )
        path = tmp_path / "ck.json"
        doc.save(path)
        loaded = RunCheckpoint.load(path)
        assert loaded is not None
        assert loaded.seed == 3
        assert loaded.watermark == 86400.0
        assert not loaded.completed

    def test_damaged_document_loads_as_none(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{not json", encoding="utf-8")
        assert RunCheckpoint.load(path) is None
        path.write_text(json.dumps({"version": 99}), encoding="utf-8")
        assert RunCheckpoint.load(path) is None
        assert RunCheckpoint.load(tmp_path / "absent.json") is None

    def test_bad_cadence_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointConfig(path=tmp_path / "ck.json", cadence_days=0)


class TestCheckpointedRun:
    """Interrupt/resume drills over a real (tiny) study run."""

    def test_interrupt_then_resume_is_byte_identical(self, tmp_path):
        baseline_dir = tmp_path / "baseline"
        resumed_dir = tmp_path / "resumed"
        ck = CheckpointConfig(
            path=tmp_path / "engine_checkpoint.json", cadence_days=1.0
        )

        DeltaStudy(_tiny_config()).run(baseline_dir)

        with pytest.raises(SimulationInterrupted):
            DeltaStudy(_tiny_config()).run(
                resumed_dir, checkpoint=ck, interrupt_at_day=3.0
            )
        partial = RunCheckpoint.load(ck.path)
        assert partial is not None
        assert not partial.completed
        assert 0 < len(partial.records) <= 3

        DeltaStudy(_tiny_config()).run(resumed_dir, checkpoint=ck, resume=True)
        final = RunCheckpoint.load(ck.path)
        assert final is not None and final.completed
        assert len(final.records) >= len(partial.records)
        # The resumed run re-proved the interrupted run's watermarks.
        assert final.records[: len(partial.records)] == partial.records

        assert _artifact_bytes(resumed_dir) == _artifact_bytes(baseline_dir)

    def test_damaged_document_set_aside_and_run_completes(self, tmp_path):
        ck = CheckpointConfig(
            path=tmp_path / "engine_checkpoint.json", cadence_days=1.0
        )
        ck.path.write_text("{not json", encoding="utf-8")
        DeltaStudy(_tiny_config()).run(
            tmp_path / "a", checkpoint=ck, resume=True
        )
        aside = tmp_path / "engine_checkpoint.json.corrupt-1"
        assert aside.read_text("utf-8") == "{not json"
        doc = RunCheckpoint.load(ck.path)
        assert doc is not None and doc.completed

    def test_resume_with_other_config_refused(self, tmp_path):
        ck = CheckpointConfig(
            path=tmp_path / "engine_checkpoint.json", cadence_days=1.0
        )
        with pytest.raises(SimulationInterrupted):
            DeltaStudy(_tiny_config()).run(
                tmp_path / "a", checkpoint=ck, interrupt_at_day=2.0
            )
        with pytest.raises(CheckpointError):
            DeltaStudy(
                StudyConfig.small(
                    seed=11, pre_days=1.0, op_days=5.0, job_scale=0.02
                )
            ).run(tmp_path / "b", checkpoint=ck, resume=True)

    def test_resume_with_other_seed_refused(self, tmp_path):
        ck = CheckpointConfig(
            path=tmp_path / "engine_checkpoint.json", cadence_days=1.0
        )
        with pytest.raises(SimulationInterrupted):
            DeltaStudy(_tiny_config(seed=11)).run(
                tmp_path / "a", checkpoint=ck, interrupt_at_day=2.0
            )
        with pytest.raises(CheckpointError):
            DeltaStudy(_tiny_config(seed=12)).run(
                tmp_path / "b", checkpoint=ck, resume=True
            )

    def test_divergence_detected(self, tmp_path):
        ck = CheckpointConfig(
            path=tmp_path / "engine_checkpoint.json", cadence_days=1.0
        )
        with pytest.raises(SimulationInterrupted):
            DeltaStudy(_tiny_config()).run(
                tmp_path / "a", checkpoint=ck, interrupt_at_day=3.0
            )
        # Tamper with a recorded digest: the replay must refuse.
        payload = json.loads(ck.path.read_text("utf-8"))
        payload["records"][0]["rng_digest"] = "0" * 64
        ck.path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CheckpointError, match="diverged"):
            DeltaStudy(_tiny_config()).run(
                tmp_path / "b", checkpoint=ck, resume=True
            )

    def test_cadence_beyond_horizon_writes_no_records(self, tmp_path):
        ck = CheckpointConfig(
            path=tmp_path / "engine_checkpoint.json", cadence_days=400.0
        )
        DeltaStudy(_tiny_config()).run(tmp_path / "a", checkpoint=ck)
        doc = RunCheckpoint.load(ck.path)
        assert doc is not None and doc.completed
        assert doc.records == []

    def test_interrupt_day_scales_records(self, tmp_path):
        ck = CheckpointConfig(
            path=tmp_path / "engine_checkpoint.json", cadence_days=1.0
        )
        with pytest.raises(SimulationInterrupted):
            DeltaStudy(_tiny_config()).run(
                tmp_path / "a", checkpoint=ck, interrupt_at_day=4.5
            )
        doc = RunCheckpoint.load(ck.path)
        assert doc is not None
        assert doc.watermark <= 4.5 * DAY
