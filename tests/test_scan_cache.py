"""Persistent scan-cache semantics: hits, invalidation, quarantine.

The cache (`repro.pipeline.scancache`) may only ever change wall-clock
time.  These tests pin the contract: warm hits replay byte-identical
results; any drift in the day file (size, mtime), the inventory, or
the entry format forces a plain rescan; corrupt entries are renamed to
``<name>.corrupt-<n>`` and rescanned, never raised; and entries are
interchangeable between serial and parallel runs (workers write their
own entries) and between cache-enabled and cache-free passes.
"""

import os
import shutil

import pytest

from repro import DeltaStudy, StudyConfig
from repro.cli import main
from repro.pipeline import SCAN_CACHE_DIRNAME, run_pipeline
from repro.pipeline.scancache import ScanCache, VERSION
from repro.syslog.chaos import ChaosConfig, corrupt_artifacts
from repro.syslog.reader import dedupe_day_files, list_day_files


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A chaos-corrupted small corpus (worst case for round-tripping:
    quarantine events, repairs, and replacement characters all have to
    survive the cache)."""
    src = tmp_path_factory.mktemp("scan_cache") / "run"
    config = StudyConfig.small(
        seed=31, job_scale=0.003, op_days=12, include_episode=True
    )
    DeltaStudy(config).run(src)
    corrupt_artifacts(src, ChaosConfig.calibrated(seed=5).scaled(20.0))
    return src


@pytest.fixture()
def work(corpus, tmp_path):
    """A private mutable copy of the corpus for each test."""
    dst = tmp_path / "work"
    shutil.copytree(corpus, dst)
    return dst


def _day_files(artifact_dir):
    """Unique day files, as the pipeline sees them (chaos can leave
    duplicate plain/gz pairs for the same day; only one is scanned)."""
    unique, _ = dedupe_day_files(list_day_files(artifact_dir / "syslog"))
    return unique


def _cache_dir(artifact_dir):
    return artifact_dir / SCAN_CACHE_DIRNAME


def _assert_identical(a, b):
    # PipelineResult equality covers errors, downtime, jobs, stats,
    # raw_hits, health (samples included), and recovery; the scan
    # field is compare=False by design (cache state always differs).
    assert a == b


class TestWarmHits:
    def test_warm_run_identical_and_fully_cached(self, work):
        baseline = run_pipeline(work, workers=1)
        cold = run_pipeline(work, workers=1, scan_cache=True)
        warm = run_pipeline(work, workers=1, scan_cache=True)
        _assert_identical(cold, baseline)
        _assert_identical(warm, baseline)

        days = len(_day_files(work))
        assert cold.scan.cache_hits == 0
        assert cold.scan.cache_stores == days
        assert cold.scan.lines_scanned == baseline.health.lines_read
        assert warm.scan.cache_hits == days
        assert warm.scan.cache_misses == 0
        assert warm.scan.lines_from_cache == baseline.health.lines_read
        assert warm.scan.lines_scanned == 0
        # The scan phase itself must be cheaper warm than cold.
        assert (
            warm.scan.cache_load_wall_seconds
            < cold.scan.scan_wall_seconds
        )

    def test_library_default_leaves_no_cache(self, work):
        run_pipeline(work, workers=1)
        assert not _cache_dir(work).exists()

    def test_decode_ratio_reported_without_cache(self, work):
        result = run_pipeline(work, workers=1)
        assert result.scan.lines_scanned == result.health.lines_read
        assert 0.0 < result.scan.decode_ratio < 0.5


class TestInvalidation:
    def test_mtime_drift_rescans_only_that_day(self, work):
        run_pipeline(work, workers=1, scan_cache=True)
        target = _day_files(work)[0]
        st = target.stat()
        os.utime(target, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))
        warm = run_pipeline(work, workers=1, scan_cache=True)
        days = len(_day_files(work))
        assert warm.scan.cache_hits == days - 1
        assert warm.scan.cache_misses == 1
        assert warm.scan.cache_stores == 1

    def test_size_drift_rescans_and_sees_new_content(self, work):
        cold = run_pipeline(work, workers=1, scan_cache=True)
        target = _day_files(work)[-1]
        with open(target, "ab") as handle:
            handle.write(
                b"2025-03-09T23:59:59.000000 node-x kernel: NVRM: Xid "
                b"(PCI:0000:27:00): 79, appended after caching\n"
            )
        warm = run_pipeline(work, workers=1, scan_cache=True)
        fresh = run_pipeline(work, workers=1)
        _assert_identical(warm, fresh)
        assert warm.raw_hits == cold.raw_hits + 1
        assert warm.scan.cache_misses == 1

    def test_inventory_drift_invalidates_everything(self, work):
        run_pipeline(work, workers=1, scan_cache=True)
        inventory = work / "inventory.json"
        # Whitespace change: same semantics, different content hash.
        inventory.write_text(
            inventory.read_text("utf-8") + "\n", encoding="utf-8"
        )
        warm = run_pipeline(work, workers=1, scan_cache=True)
        days = len(_day_files(work))
        assert warm.scan.cache_hits == 0
        assert warm.scan.cache_misses == days

    def test_version_drift_is_stale_not_corrupt(self, work):
        # The version field sits outside the CRC, so an entry written
        # by a different format generation is recognizably *stale*
        # (silently rescanned and overwritten), never quarantined.
        run_pipeline(work, workers=1, scan_cache=True)
        entry = next(_cache_dir(work).glob("*.scan"))
        blob = bytearray(entry.read_bytes())
        blob[4:6] = (VERSION + 1).to_bytes(2, "big")
        entry.write_bytes(bytes(blob))
        warm = run_pipeline(work, workers=1, scan_cache=True)
        assert warm.scan.cache_corrupt == 0
        assert warm.scan.cache_misses == 1
        assert not list(_cache_dir(work).glob("*.corrupt-*"))

    def test_checkpoint_requires_fingerprinted_entries(self, work):
        # Entries stored by a non-checkpointing run carry no content
        # hash; a resume pass must rescan rather than trust them.
        run_pipeline(work, workers=1, scan_cache=True)
        days = len(_day_files(work))
        first = run_pipeline(
            work, workers=1, scan_cache=True, checkpoint=True
        )
        assert first.scan.cache_hits == 0
        assert first.scan.cache_misses == days
        # The checkpointing run re-stored fingerprinted entries, so a
        # second checkpointing pass hits (resume replays payloads
        # instead, which takes precedence over the scan cache).
        second = run_pipeline(
            work, workers=1, scan_cache=True, checkpoint=True
        )
        assert second.scan.cache_hits == days
        _assert_identical(first, second)


class TestCorruptionQuarantine:
    def _poison_and_rerun(self, work, mutate):
        baseline = run_pipeline(work, workers=1)
        run_pipeline(work, workers=1, scan_cache=True)
        entry = sorted(_cache_dir(work).glob("*.scan"))[0]
        mutate(entry)
        warm = run_pipeline(work, workers=1, scan_cache=True)
        _assert_identical(warm, baseline)
        days = len(_day_files(work))
        assert warm.scan.cache_corrupt == 1
        assert warm.scan.cache_misses == 1
        assert warm.scan.cache_hits == days - 1
        quarantined = list(_cache_dir(work).glob("*.corrupt-1"))
        assert len(quarantined) == 1
        # The rescan stored a fresh entry; the next pass is clean.
        again = run_pipeline(work, workers=1, scan_cache=True)
        _assert_identical(again, baseline)
        assert again.scan.cache_hits == days
        assert again.scan.cache_corrupt == 0

    def test_truncated_entry_quarantined_and_rescanned(self, work):
        def truncate(entry):
            blob = entry.read_bytes()
            entry.write_bytes(blob[: len(blob) // 2])

        self._poison_and_rerun(work, truncate)

    def test_bitflip_entry_quarantined_and_rescanned(self, work):
        def bitflip(entry):
            blob = bytearray(entry.read_bytes())
            blob[len(blob) // 2] ^= 0x40
            entry.write_bytes(bytes(blob))

        self._poison_and_rerun(work, bitflip)

    def test_garbage_entry_quarantined(self, work):
        def garbage(entry):
            entry.write_bytes(b"not a scan cache entry at all")

        self._poison_and_rerun(work, garbage)

    def test_second_corruption_gets_next_suffix(self, work):
        run_pipeline(work, workers=1, scan_cache=True)
        entry = sorted(_cache_dir(work).glob("*.scan"))[0]
        for expected in ("corrupt-1", "corrupt-2"):
            entry.write_bytes(b"garbage")
            run_pipeline(work, workers=1, scan_cache=True)
            assert (
                entry.with_name(f"{entry.name}.{expected}")
            ).exists(), expected

    def test_damage_is_kept_however_many_generations_exist(self, work):
        run_pipeline(work, workers=1, scan_cache=True)
        entry = sorted(_cache_dir(work).glob("*.scan"))[0]
        for n in range(1, 1000):
            entry.with_name(f"{entry.name}.corrupt-{n}").touch()
        entry.write_bytes(b"garbage")
        run_pipeline(work, workers=1, scan_cache=True)
        kept = entry.with_name(f"{entry.name}.corrupt-1000")
        assert kept.read_bytes() == b"garbage"


class TestSerialParallelInterchange:
    def test_parallel_writes_serial_reads(self, work):
        baseline = run_pipeline(work, workers=1)
        cold = run_pipeline(work, workers=4, scan_cache=True)
        _assert_identical(cold, baseline)
        warm = run_pipeline(work, workers=1, scan_cache=True)
        _assert_identical(warm, baseline)
        assert warm.scan.cache_hits == len(_day_files(work))

    def test_serial_writes_parallel_reads(self, work):
        baseline = run_pipeline(work, workers=1)
        run_pipeline(work, workers=1, scan_cache=True)
        warm = run_pipeline(work, workers=4, scan_cache=True)
        _assert_identical(warm, baseline)
        assert warm.scan.cache_hits == len(_day_files(work))


class TestRoundTrip:
    def test_entry_round_trips_dayscan_exactly(self, work):
        """Store → load must reproduce every DayScan field (wall
        excluded), including event tuples and float bit patterns."""
        import dataclasses

        from repro.cluster.inventory import Inventory
        from repro.pipeline.shard import DayScan, scan_day_file

        inventory = Inventory.load(work / "inventory.json")
        cache = ScanCache(_cache_dir(work), "test-key")
        for path in _day_files(work)[:3]:
            st = path.stat()
            scan = scan_day_file(path, inventory, want_fingerprint=True)
            assert cache.store(path, st, scan)
            loaded = cache.load(path, st, want_fingerprint=True)
            assert loaded is not None
            for f in dataclasses.fields(DayScan):
                if f.name == "scan_wall_seconds":
                    continue
                assert getattr(loaded, f.name) == getattr(scan, f.name), (
                    f"DayScan.{f.name} did not survive the cache round-trip"
                )
            # Event tuples must come back as tuples (the merge insorts
            # tuples among them; list/tuple comparisons would raise).
            assert all(isinstance(e, tuple) for e in loaded.events)


class TestCli:
    def test_cli_defaults_to_cache_and_flag_disables(self, work, capsys):
        assert main(["pipeline", str(work)]) == 0
        assert _cache_dir(work).exists()
        out = capsys.readouterr().out
        assert "scan cache:" in out
        shutil.rmtree(_cache_dir(work))
        assert main(["pipeline", str(work), "--no-scan-cache"]) == 0
        assert not _cache_dir(work).exists()
