"""Determinism tests for the sharded parallel Stage-II pipeline.

The contract under test (see DESIGN §11): ``run_pipeline(workers=N)``
is an optimization only — for any worker count it must produce results
identical to the serial pass, including the pieces that look
order-dependent: the monotonic-timestamp watermark stitched across
shard boundaries, clock-step repair counts and their bounded sample
details, quarantine accounting, and the per-day scan-cache entries.
"""

import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro import DeltaStudy, StudyConfig
from repro.core.exceptions import ConfigurationError, PipelineInterrupted
from repro.pipeline import (
    SCAN_CACHE_DIRNAME,
    host_cores,
    resolve_workers,
    run_pipeline,
)
from repro.pipeline.shard import HitColumns, merge_scan, scan_day_file
from repro.pipeline.extract import ExtractionStats
from repro.pipeline.downtime import DowntimeExtractor
from repro.syslog.chaos import ChaosConfig, corrupt_artifacts
from repro.syslog.quarantine import REASON_CLOCK_STEP, Quarantine


def _fingerprint(result):
    """Every observable output of one pass, as comparable plain data."""
    health = result.health
    return {
        "errors": result.errors,
        "downtime": result.downtime,
        "jobs": result.jobs,
        "stats": result.extraction_stats,
        "raw_hits": result.raw_hits,
        "lines_read": health.lines_read,
        "parsed_lines": health.parsed_lines,
        "quarantined": health.quarantined,
        "repaired": health.repaired,
        "file_incidents": health.file_incidents,
        "samples": health.quarantine_samples,
        "days": (health.days_present, health.days_missing),
    }


def _assert_identical(a, b, include_samples=True):
    # Resume comparisons here pass ``include_samples=False``;
    # TestRerunEqualsUninterrupted compares whole results, samples
    # included.
    fa, fb = _fingerprint(a), _fingerprint(b)
    for key in fa:
        if key == "samples" and not include_samples:
            continue
        assert fa[key] == fb[key], f"{key} differs between passes"


@pytest.fixture(scope="module")
def corrupted_src(tmp_path_factory):
    """A chaos-corrupted small run (pristine: no checkpoint state)."""
    src = tmp_path_factory.mktemp("parallel_chaos") / "run"
    config = StudyConfig.small(
        seed=41, job_scale=0.005, op_days=25, include_episode=True
    )
    DeltaStudy(config).run(src)
    corrupt_artifacts(src, ChaosConfig.calibrated(seed=3).scaled(20.0))
    return src


@pytest.fixture(scope="module")
def corrupted_baseline(corrupted_src):
    """The serial (workers=1) reference result over the corrupted run."""
    return run_pipeline(corrupted_src, workers=1)


def _copy(src, tmp_path):
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    return dst


class TestParallelSerialIdentity:
    def test_clean_run_identity(self, tmp_path):
        config = StudyConfig.small(seed=12, job_scale=0.003, op_days=10)
        DeltaStudy(config).run(tmp_path)
        serial = run_pipeline(tmp_path, workers=1)
        parallel = run_pipeline(tmp_path, workers=3)
        _assert_identical(serial, parallel)

    def test_corrupted_run_identity(self, corrupted_src, corrupted_baseline):
        """Satellite: chaos-corrupted input through 4 workers matches
        the serial pass field for field — errors, downtime, stats,
        quarantine counts, samples, and health accounting."""
        assert corrupted_baseline.health.total_quarantined > 0
        assert corrupted_baseline.health.total_repaired > 0
        assert (
            corrupted_baseline.health.repaired.get(REASON_CLOCK_STEP, 0) > 0
        )
        parallel = run_pipeline(corrupted_src, workers=4)
        _assert_identical(corrupted_baseline, parallel)

    def test_more_workers_than_files_identity(self, tmp_path):
        config = StudyConfig.small(seed=9, job_scale=0.002, op_days=6)
        DeltaStudy(config).run(tmp_path)
        serial = run_pipeline(tmp_path, workers=1)
        oversubscribed = run_pipeline(tmp_path, workers=32)
        _assert_identical(serial, oversubscribed)

    def test_invalid_worker_count_rejected(self, tmp_path):
        (tmp_path / "syslog").mkdir()
        with pytest.raises(ConfigurationError):
            run_pipeline(tmp_path, workers=0)


class TestBoundaryClockStep:
    """The watermark-stitching rule: a clock step that crosses a day
    boundary must clamp, count, and sample identically whether the two
    days were scanned by one process or two."""

    DAY1_MAX = "2022-01-01T23:59:50.000000"

    def _write_days(self, tmp_path):
        syslog = tmp_path / "syslog"
        syslog.mkdir(parents=True)
        day1 = [
            "2022-01-01T00:00:10.000000 gpua001 kernel: benign",
            f"{self.DAY1_MAX} gpua001 kernel: NVRM: Xid "
            "(PCI:0000:07:00): 79, GPU has fallen off the bus.",
        ]
        # Day 2 opens *behind* day 1's maximum (NTP step across the
        # rotation boundary): three stepped lines, one of them an
        # analyzed XID hit, then the clock recovers.
        day2 = [
            "2022-01-01T22:00:00.000000 gpua002 kernel: stepped-1",
            "2022-01-01T22:30:00.000000 gpua002 kernel: NVRM: Xid "
            "(PCI:0000:47:00): 79, GPU has fallen off the bus.",
            "2022-01-01T23:00:00.000000 gpua002 kernel: stepped-3",
            "2022-01-02T01:00:00.000000 gpua002 kernel: recovered",
        ]
        (syslog / "syslog-2022-01-01.log").write_text(
            "\n".join(day1) + "\n", encoding="utf-8"
        )
        (syslog / "syslog-2022-01-02.log").write_text(
            "\n".join(day2) + "\n", encoding="utf-8"
        )
        return syslog

    def test_cross_boundary_clamp_identical_and_exact(self, tmp_path):
        from repro.core.timebase import parse_syslog_timestamp

        self._write_days(tmp_path)
        serial = run_pipeline(tmp_path, load_jobs=False, workers=1)
        parallel = run_pipeline(tmp_path, load_jobs=False, workers=2)
        _assert_identical(serial, parallel)

        # All three stepped day-2 lines are boundary clamps.
        assert serial.health.repaired[REASON_CLOCK_STEP] == 3
        watermark = parse_syslog_timestamp(self.DAY1_MAX)
        # The stitched hit carries the day-1 watermark, not its raw time.
        assert serial.raw_hits == 2
        hit_times = sorted(e.time for e in serial.errors)
        assert watermark in hit_times
        # Sample details record the boundary watermark as the target.
        clock_samples = [
            detail
            for reason, detail in serial.health.quarantine_samples
            if reason == REASON_CLOCK_STEP
        ]
        assert len(clock_samples) == 3
        assert all(f"clamped to {watermark:.6f}" in d for d in clock_samples)

    def test_mixed_local_and_boundary_clamps(self, tmp_path):
        """Local steps inside day 2 interleave with boundary clamps;
        order and counts must match the serial pass exactly."""
        syslog = tmp_path / "syslog"
        syslog.mkdir(parents=True)
        (syslog / "syslog-2022-01-01.log").write_text(
            "2022-01-01T20:00:00.000000 gpua001 kernel: benign\n",
            encoding="utf-8",
        )
        day2 = [
            # boundary clamp (before day-1 max)
            "2022-01-01T10:00:00.000000 gpua002 kernel: b1",
            # boundary clamp
            "2022-01-01T12:00:00.000000 gpua002 kernel: b2",
            # ahead of watermark: new running max
            "2022-01-02T08:00:00.000000 gpua002 kernel: ok",
            # local clamp (behind the new max)
            "2022-01-02T07:00:00.000000 gpua002 kernel: l1",
            "2022-01-02T09:00:00.000000 gpua002 kernel: ok2",
        ]
        (syslog / "syslog-2022-01-02.log").write_text(
            "\n".join(day2) + "\n", encoding="utf-8"
        )
        serial = run_pipeline(tmp_path, load_jobs=False, workers=1)
        parallel = run_pipeline(tmp_path, load_jobs=False, workers=2)
        _assert_identical(serial, parallel)
        assert serial.health.repaired[REASON_CLOCK_STEP] == 3
        details = [
            d
            for r, d in serial.health.quarantine_samples
            if r == REASON_CLOCK_STEP
        ]
        # Line order: two boundary clamps, then the local one.
        assert len(details) == 3
        assert details[0].startswith("gpua002")
        assert "clamped to" in details[2]


class TestShardMergeUnits:
    """Direct scan/merge invariants (no orchestrator in the way)."""

    def _scan(self, tmp_path, lines):
        path = tmp_path / "syslog-2022-01-03.log"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return scan_day_file(path)

    def test_scan_is_watermark_independent(self, tmp_path):
        scan = self._scan(
            tmp_path,
            [
                "2022-01-03T00:00:05.000000 gpua001 kernel: a",
                "2022-01-03T00:00:01.000000 gpua001 kernel: stepped",
                "2022-01-03T00:00:09.000000 gpua001 kernel: b",
            ],
        )
        assert scan.lines_read == 3
        assert scan.parsed_lines == 3
        assert scan.repaired == {REASON_CLOCK_STEP: 1}
        # Unclamped timestamps arrive sorted (running-maximum property).
        times = list(scan.unclamped_times)
        assert times == sorted(times)

    def test_merge_against_high_watermark_clamps_prefix(self, tmp_path):
        scan = self._scan(
            tmp_path,
            [
                "2022-01-03T00:00:05.000000 gpua001 kernel: a",
                "2022-01-03T00:00:09.000000 gpua001 kernel: b",
                "2022-01-03T00:00:20.000000 gpua001 kernel: c",
            ],
        )
        quarantine = Quarantine()
        stats = ExtractionStats()
        watermark = scan.unclamped_times[1] + 1.0  # between b and c
        new_wm = merge_scan(
            scan,
            watermark,
            quarantine,
            stats,
            DowntimeExtractor(),
            HitColumns(),
        )
        # a and b fall below the incoming watermark: two boundary clamps.
        assert quarantine.repaired[REASON_CLOCK_STEP] == 2
        assert new_wm == scan.unclamped_times[2]

    def test_merge_with_no_watermark_matches_local(self, tmp_path):
        scan = self._scan(
            tmp_path, ["2022-01-03T00:00:05.000000 gpua001 kernel: a"]
        )
        quarantine = Quarantine()
        new_wm = merge_scan(
            scan,
            float("-inf"),
            quarantine,
            ExtractionStats(),
            DowntimeExtractor(),
            HitColumns(),
        )
        assert quarantine.total_repaired == 0
        assert new_wm == scan.local_max


class TestCheckpointInterchange:
    """Serial and parallel scan-cache entries are the same artifact."""

    def test_checkpoint_payloads_byte_identical(
        self, corrupted_src, tmp_path
    ):
        a = _copy(corrupted_src, tmp_path / "a")
        b = _copy(corrupted_src, tmp_path / "b")
        run_pipeline(a, scan_cache=True, workers=1)
        run_pipeline(b, scan_cache=True, workers=4)
        days_a = sorted((a / SCAN_CACHE_DIRNAME).iterdir())
        days_b = sorted((b / SCAN_CACHE_DIRNAME).iterdir())
        assert [p.name for p in days_a] == [p.name for p in days_b]
        for pa, pb in zip(days_a, days_b):
            assert pa.read_bytes() == pb.read_bytes(), pa.name

    def test_parallel_interrupt_resumed_serial(
        self, corrupted_src, corrupted_baseline, tmp_path
    ):
        work = _copy(corrupted_src, tmp_path)
        with pytest.raises(PipelineInterrupted):
            run_pipeline(
                work, scan_cache=True, interrupt_after_files=4, workers=4
            )
        resumed = run_pipeline(work, scan_cache=True, workers=1)
        # Pool workers store their scans ahead of the merge position.
        assert resumed.health.resumed_files >= 4
        _assert_identical(corrupted_baseline, resumed, include_samples=False)

    def test_serial_interrupt_resumed_parallel(
        self, corrupted_src, corrupted_baseline, tmp_path
    ):
        work = _copy(corrupted_src, tmp_path)
        with pytest.raises(PipelineInterrupted):
            run_pipeline(
                work, scan_cache=True, interrupt_after_files=4, workers=1
            )
        resumed = run_pipeline(work, scan_cache=True, workers=4)
        assert resumed.health.resumed_files == 4
        _assert_identical(corrupted_baseline, resumed, include_samples=False)


class TestResumeUnderParallelism:
    """Satellite: a parallel run killed mid-campaign resumes to results
    identical to an uninterrupted serial pass."""

    def test_killed_parallel_run_resumes_identical(
        self, corrupted_src, corrupted_baseline, tmp_path
    ):
        work = _copy(corrupted_src, tmp_path)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        driver = (
            "import sys\n"
            "from repro.pipeline import run_pipeline\n"
            "run_pipeline(sys.argv[1], scan_cache=True, workers=3)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", driver, str(work)], env=env
        )
        # Kill once the run has had a chance to cache some days
        # (or let it finish — resume must be identical either way).
        cache = work / SCAN_CACHE_DIRNAME
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if any(cache.glob("*.scan")) or proc.poll() is not None:
                break
            time.sleep(0.05)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)

        resumed = run_pipeline(work, scan_cache=True, workers=3)
        _assert_identical(corrupted_baseline, resumed, include_samples=False)


class TestRerunEqualsUninterrupted:
    """A pass rerun after an interrupt equals the uninterrupted pass,
    quarantine samples included."""

    @pytest.mark.parametrize("interrupt_workers", [1, 4])
    def test_rerun_after_interrupt_equals_uninterrupted(
        self, corrupted_src, corrupted_baseline, tmp_path, interrupt_workers
    ):
        work = _copy(corrupted_src, tmp_path)
        with pytest.raises(PipelineInterrupted):
            run_pipeline(
                work,
                scan_cache=True,
                interrupt_after_files=4,
                workers=interrupt_workers,
            )
        resumed = run_pipeline(work, scan_cache=True, workers=1)
        assert resumed.health.resumed_files >= 4
        assert resumed == corrupted_baseline


def _running(pid):
    """Whether ``pid`` is a live process (an exited zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="reads process state from /proc"
)
class TestWorkersEndWithDriver:
    """Pool workers exit when their driver is SIGKILLed mid-run."""

    def test_sigkilled_driver_leaves_no_workers(self, corrupted_src, tmp_path):
        work = _copy(corrupted_src, tmp_path)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        # The parent folds one day at a time: print the pool's worker
        # PIDs at the first fold, then fold slowly enough to be killed
        # with the pool still open.
        driver = (
            "import multiprocessing, sys, time\n"
            "import repro.pipeline.run as run\n"
            "merge = run.merge_scan\n"
            "def slow_merge(*args, **kwargs):\n"
            "    pids = [p.pid for p in multiprocessing.active_children()]\n"
            "    print(' '.join(map(str, pids)), flush=True)\n"
            "    time.sleep(60)\n"
            "    return merge(*args, **kwargs)\n"
            "run.merge_scan = slow_merge\n"
            "run.run_pipeline(sys.argv[1], workers=2)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", driver, str(work)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            workers = [int(pid) for pid in proc.stdout.readline().split()]
            assert len(workers) == 2
            assert all(_running(pid) for pid in workers)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)
            proc.stdout.close()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(map(_running, workers)):
            time.sleep(0.05)
        assert not any(map(_running, workers)), workers


class TestWorkerResolution:
    def test_auto_maps_to_host_cores(self):
        cores = host_cores()
        assert cores >= 1
        assert resolve_workers("auto") == cores
        assert resolve_workers(None) == cores
        assert resolve_workers(0) == cores

    def test_explicit_counts(self):
        assert resolve_workers(3) == 3
        assert resolve_workers("2") == 2
        assert resolve_workers(-5) == 1

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers("many")


class TestParallelCli:
    def test_workers_flag(self, tmp_path, capsys):
        from repro.cli import main

        config = StudyConfig.small(seed=13, job_scale=0.002, op_days=8)
        DeltaStudy(config).run(tmp_path)
        assert main(["pipeline", str(tmp_path), "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "raw lines scanned" in out
        assert main(["pipeline", str(tmp_path), "--workers", "auto"]) == 0
        assert "raw lines scanned" in capsys.readouterr().out

    def test_bad_workers_flag(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "syslog").mkdir()
        assert main(["pipeline", str(tmp_path), "--workers", "lots"]) == 2
        assert "invalid --workers" in capsys.readouterr().err
