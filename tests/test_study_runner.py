"""Tests for the study runner (repro.study.runner) and artifacts."""

import hashlib

import pytest

from repro import DeltaStudy, StudyConfig
from repro.core.periods import PeriodName
from repro.study.artifacts import StudyArtifacts


class TestMemoryOnlyRun:
    @pytest.fixture(scope="class")
    def run(self):
        config = StudyConfig.small(seed=19, job_scale=0.02)
        return DeltaStudy(config).run(None), config

    def test_no_disk_artifacts(self, run):
        artifacts, _ = run
        assert artifacts.output_dir is None
        assert artifacts.syslog_dir is None
        assert artifacts.sacct_path is None

    def test_ground_truth_present(self, run):
        artifacts, _ = run
        assert artifacts.logical_events
        assert artifacts.job_records
        assert artifacts.raw_log_lines > len(artifacts.logical_events)

    def test_utilization_sampled_in_both_periods(self, run):
        artifacts, config = run
        times = [t for t, _ in artifacts.utilization_samples]
        boundary = config.window.operational.start
        assert any(t < boundary for t in times)
        assert any(t >= boundary for t in times)
        expected = config.window.total_days * 24 / config.utilization_sample_interval_hours
        assert len(times) == pytest.approx(expected, rel=0.05)

    def test_mean_utilization_nonzero_in_op(self, run):
        artifacts, _ = run
        op = artifacts.mean_utilization(PeriodName.OPERATIONAL)
        pre = artifacts.mean_utilization(PeriodName.PRE_OPERATIONAL)
        assert op > 0
        assert op > pre  # pre-op load factor is 10%

    def test_summary_mentions_key_counts(self, run):
        artifacts, _ = run
        text = artifacts.summary()
        assert "logical errors" in text
        assert "jobs finished" in text
        assert "nodes: 8" in text

    def test_logical_counts_partition_all_events(self, run):
        artifacts, _ = run
        counts = artifacts.logical_counts()
        total = sum(
            n for period in counts.values() for n in period.values()
        )
        assert total == len(artifacts.logical_events)


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        config = StudyConfig.small(seed=23, job_scale=0.005, op_days=20)
        a = DeltaStudy(config).run(None)
        b = DeltaStudy(config).run(None)
        assert len(a.logical_events) == len(b.logical_events)
        assert len(a.job_records) == len(b.job_records)
        assert [e.time for e in a.logical_events[:100]] == [
            e.time for e in b.logical_events[:100]
        ]
        assert [r.end_time for r in a.job_records[:50]] == [
            r.end_time for r in b.job_records[:50]
        ]

    def test_different_seeds_differ(self):
        a = DeltaStudy(StudyConfig.small(seed=1, job_scale=0.005, op_days=20)).run(None)
        b = DeltaStudy(StudyConfig.small(seed=2, job_scale=0.005, op_days=20)).run(None)
        assert [e.time for e in a.logical_events[:50]] != [
            e.time for e in b.logical_events[:50]
        ]


class TestJobFeeder:
    def test_all_submitted_jobs_accounted_or_running_at_horizon(self):
        config = StudyConfig.small(seed=29, job_scale=0.02, op_days=30)
        artifacts = DeltaStudy(config).run(None)
        # Finished jobs ended within the window.
        for record in artifacts.job_records:
            assert record.end_time <= config.window.end + 1e-6
            assert record.start_time >= 0

    def test_job_ids_unique(self):
        config = StudyConfig.small(seed=29, job_scale=0.02, op_days=30)
        artifacts = DeltaStudy(config).run(None)
        ids = [r.job_id for r in artifacts.job_records]
        assert len(ids) == len(set(ids))


def _tree_digest(root):
    """sha256 over every Stage I artifact: relative path, then bytes."""
    digest = hashlib.sha256()
    for name in ("syslog", "sacct.csv", "truth.csv", "inventory.json",
                 "result.json"):
        entry = root / name
        files = sorted(entry.rglob("*")) if entry.is_dir() else [entry]
        for path in files:
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(b"\0")
                digest.update(path.read_bytes())
                digest.update(b"\0")
    return digest.hexdigest()


class TestSimulateDigests:
    """The whole ``simulate`` tree of a thinned episode run, pinned.

    The log bus, burst duplication, the day-file cut, timestamp
    rendering, accounting and ``result.json`` all feed these bytes; the
    defective episode puts most lines into a few dense days.  Change a
    digest only for a deliberate change of the artifacts, with old and
    new digests recorded in CHANGES.md.
    """

    @pytest.mark.parametrize(
        "seed,digest",
        [
            (7, "f69c46618a864fe16bf3b0aa72c0f4349a890da5fbad2d4e4ae34a96aa46e5c4"),
            (8, "39c099dc9ff55137639b2f5722731ce2221c1b49be800ddcdb71e5292d135b24"),
        ],
        ids=["episode-seed7", "episode-seed8"],
    )
    def test_digest(self, tmp_path, seed, digest):
        config = StudyConfig.small(
            seed=seed, include_episode=True, fault_scale=0.05
        )
        DeltaStudy(config).run(tmp_path)
        assert _tree_digest(tmp_path) == digest
