"""Tests for the log-corruption chaos layer and the hardened,
resumable Stage-II pipeline (quarantine, health report, resume from
the scan cache)."""

import gzip
import shutil

import pytest

from repro import DeltaStudy, StudyConfig
from repro.core.exceptions import LogFormatError, PipelineInterrupted
from repro.core.timebase import DAY
from repro.pipeline import SCAN_CACHE_DIRNAME, run_pipeline
from repro.pipeline.health import PipelineHealthReport, day_coverage
from repro.syslog.chaos import ChaosConfig, ChaosInjector, corrupt_artifacts
from repro.syslog.quarantine import (
    FILE_DUPLICATE_DAY,
    FILE_TRUNCATED_GZIP,
    REASON_BAD_TIMESTAMP,
    REASON_CLOCK_STEP,
    REASON_ENCODING,
    REASON_MALFORMED,
    REASON_MISSING_HOST,
    REASON_TORN_WRITE,
    Quarantine,
)
from repro.syslog.reader import (
    RawLine,
    dedupe_day_files,
    iter_file_lines,
    iter_parsed_lines,
    list_day_files,
    parse_line,
    repair_monotonic,
)
from repro.syslog.records import LogRecord
from repro.syslog.writer import write_day_partitioned


def _small_corrupted_run(tmp_path, seed=41, chaos_seed=3, rate_scale=20.0):
    config = StudyConfig.small(
        seed=seed, job_scale=0.005, op_days=25, include_episode=True
    )
    artifacts = DeltaStudy(config).run(tmp_path)
    chaos = ChaosConfig.calibrated(seed=chaos_seed).scaled(rate_scale)
    report = corrupt_artifacts(tmp_path, chaos)
    return artifacts, report


class TestParseLineAdversarial:
    """Satellite: adversarial line shapes must parse or quarantine,
    never misparse."""

    def test_double_space_separator(self):
        parsed = parse_line(
            "2022-01-01T00:00:10.000000  gpua001  kernel: NVRM: ok"
        )
        assert parsed.host == "gpua001"
        assert parsed.message == "kernel: NVRM: ok"

    def test_crlf_line_ending(self):
        parsed = parse_line(
            "2022-01-01T00:00:10.000000 gpua001 kernel: hi\r\n"
        )
        assert parsed.message == "kernel: hi"

    def test_missing_hostname_rejected_not_misparsed(self):
        with pytest.raises(LogFormatError) as err:
            parse_line(
                "2022-01-01T00:00:10.000000 kernel: NVRM: Xid "
                "(PCI:0000:07:00): 79, GPU has fallen off the bus."
            )
        assert err.value.reason == REASON_MISSING_HOST

    def test_torn_write_detected(self):
        torn = (
            "2022-01-01T00:00:10.000000 gpua001 kernel: NV"
            "2022-01-01T00:00:11.000000 gpua002 kernel: NVRM: other"
        )
        with pytest.raises(LogFormatError) as err:
            parse_line(torn)
        assert err.value.reason == REASON_TORN_WRITE

    def test_truncated_prefix_reasons(self):
        with pytest.raises(LogFormatError) as err:
            parse_line("2022-01-01T00:0")
        assert err.value.reason == REASON_MALFORMED
        with pytest.raises(LogFormatError) as err:
            parse_line("2022-01-01Tzz:00:10.000000 gpua001 kernel: hi")
        assert err.value.reason == REASON_BAD_TIMESTAMP

    def test_garbage_bytes_in_message_still_parse(self):
        parsed = parse_line(
            "2022-01-01T00:00:10.000000 gpua001 kernel: a��b"
        )
        assert "�" in parsed.message


class TestDayFileListing:
    """Satellite: mixed .log/.log.gz ordering and duplicate days."""

    def _write_days(self, tmp_path, compress_flags):
        for i, compress in enumerate(compress_flags):
            write_day_partitioned(
                tmp_path,
                [
                    LogRecord(
                        time=i * DAY + 1.0, host="gpua001", message="kernel: x"
                    )
                ],
                compress=compress,
            )

    def test_mixed_forms_stay_chronological(self, tmp_path):
        self._write_days(tmp_path, [False, True, False, True])
        files = list_day_files(tmp_path)
        stems = [f.name.split(".")[0] for f in files]
        assert stems == sorted(stems)
        assert [f.name.endswith(".gz") for f in files] == [
            False,
            True,
            False,
            True,
        ]

    def test_duplicate_day_deduped_plain_preferred(self, tmp_path):
        self._write_days(tmp_path, [False])
        plain = list_day_files(tmp_path)[0]
        gz = plain.with_name(plain.name + ".gz")
        gz.write_bytes(gzip.compress(plain.read_bytes()))

        assert len(list_day_files(tmp_path)) == 2
        deduped = list_day_files(tmp_path, dedupe=True)
        assert deduped == [plain]
        unique, dupes = dedupe_day_files(list_day_files(tmp_path))
        assert unique == [plain] and dupes == [gz]

    def test_duplicate_day_not_double_counted(self, tmp_path):
        self._write_days(tmp_path, [False])
        plain = list_day_files(tmp_path)[0]
        gz = plain.with_name(plain.name + ".gz")
        gz.write_bytes(gzip.compress(plain.read_bytes()))
        quarantine = Quarantine()
        parsed = list(iter_parsed_lines(tmp_path, quarantine))
        assert len(parsed) == 1
        assert quarantine.file_incidents[FILE_DUPLICATE_DAY] == 1


class TestTolerantReader:
    def _day_file(self, tmp_path, lines, compress=False):
        name = "syslog-2022-01-01.log" + (".gz" if compress else "")
        path = tmp_path / name
        data = ("\n".join(lines) + "\n").encode("utf-8")
        path.write_bytes(gzip.compress(data) if compress else data)
        return path

    def test_malformed_lines_skipped_and_counted(self, tmp_path):
        self._day_file(
            tmp_path,
            [
                "2022-01-01T00:00:01.000000 gpua001 kernel: one",
                "garbage",
                "2022-01-01T00:00:02.000000 gpua001 kernel: two",
            ],
        )
        quarantine = Quarantine()
        parsed = list(iter_parsed_lines(tmp_path, quarantine))
        assert [p.message for p in parsed] == ["kernel: one", "kernel: two"]
        assert quarantine.total_rejected == 1
        assert quarantine.rejected[REASON_MALFORMED] == 1

    def test_malformed_lines_silently_skipped_without_quarantine(
        self, tmp_path
    ):
        self._day_file(tmp_path, ["garbage", "more garbage"])
        assert list(iter_parsed_lines(tmp_path)) == []

    def test_non_utf8_bytes_replaced_and_counted(self, tmp_path):
        path = tmp_path / "syslog-2022-01-01.log"
        path.write_bytes(
            b"2022-01-01T00:00:01.000000 gpua001 kernel: a\xf9\xfab\n"
        )
        quarantine = Quarantine()
        parsed = list(iter_parsed_lines(tmp_path, quarantine))
        assert len(parsed) == 1
        assert "�" in parsed[0].message
        assert quarantine.repaired[REASON_ENCODING] == 1

    def test_truncated_gzip_yields_partial_day(self, tmp_path):
        lines = [
            f"2022-01-01T00:00:{i:02d}.000000 gpua001 kernel: line {i}"
            for i in range(200)
        ]
        path = self._day_file(tmp_path, lines, compress=True)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])

        quarantine = Quarantine()
        got = list(iter_file_lines(path, quarantine))
        assert 0 < len(got) < 200
        assert quarantine.file_incidents[FILE_TRUNCATED_GZIP] == 1

    def test_corrupt_gzip_header_isolated_to_file(self, tmp_path):
        bad = tmp_path / "syslog-2022-01-01.log.gz"
        bad.write_bytes(b"this is not gzip data")
        self._day_file(
            tmp_path.joinpath(),  # same dir
            ["2022-01-02T00:00:01.000000 gpua001 kernel: ok"],
        )
        # Rename the good file to day 2 so both are listed.
        good = tmp_path / "syslog-2022-01-01.log"
        good.rename(tmp_path / "syslog-2022-01-02.log")
        quarantine = Quarantine()
        parsed = list(iter_parsed_lines(tmp_path, quarantine))
        assert [p.message for p in parsed] == ["kernel: ok"]
        assert sum(quarantine.file_incidents.values()) == 1

    def test_repair_monotonic_clamps_and_counts(self):
        lines = [
            RawLine(time=10.0, host="a", message="m: 1"),
            RawLine(time=5.0, host="a", message="m: 2"),
            RawLine(time=7.0, host="a", message="m: 3"),
            RawLine(time=11.0, host="a", message="m: 4"),
        ]
        quarantine = Quarantine()
        repaired = list(repair_monotonic(lines, quarantine))
        assert [r.time for r in repaired] == [10.0, 10.0, 10.0, 11.0]
        assert quarantine.repaired[REASON_CLOCK_STEP] == 2


class TestChaosInjector:
    def _write_run(self, out, seed=11):
        config = StudyConfig.small(seed=seed, job_scale=0.002, op_days=10)
        DeltaStudy(config).run(out)

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        self._write_run(a)
        self._write_run(b)
        config = ChaosConfig.calibrated(seed=7).scaled(50.0)
        report_a = ChaosInjector(config).corrupt(a / "syslog")
        report_b = ChaosInjector(config).corrupt(b / "syslog")
        assert report_a == report_b
        files_a = sorted(p.name for p in (a / "syslog").iterdir())
        files_b = sorted(p.name for p in (b / "syslog").iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (a / "syslog" / name).read_bytes() == (
                b / "syslog" / name
            ).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        self._write_run(a)
        self._write_run(b)
        ChaosInjector(ChaosConfig(seed=1).scaled(50.0)).corrupt(a / "syslog")
        ChaosInjector(ChaosConfig(seed=2).scaled(50.0)).corrupt(b / "syslog")
        names_a = sorted(p.name for p in (a / "syslog").iterdir())
        blobs_a = [(a / "syslog" / n).read_bytes() for n in names_a]
        names_b = sorted(p.name for p in (b / "syslog").iterdir())
        blobs_b = [(b / "syslog" / n).read_bytes() for n in names_b]
        assert (names_a, blobs_a) != (names_b, blobs_b)

    def test_report_counts_injections(self, tmp_path):
        _, report = _small_corrupted_run(tmp_path)
        assert report.truncated_lines > 0
        assert report.torn_writes > 0
        assert report.garbage_lines > 0
        assert report.clock_stepped_lines > 0
        assert report.gzip_truncated_files == 1
        assert report.dropped_day_files == 1
        assert report.duplicated_day_files == 1
        assert report.total_injected > 0

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(line_truncation_rate=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(gzip_truncate_fraction=0.0)

    def test_empty_directory_is_noop(self, tmp_path):
        report = ChaosInjector(ChaosConfig()).corrupt(tmp_path)
        assert report.total_injected == 0


class TestHardenedPipeline:
    def test_corrupted_run_completes_with_health(self, tmp_path):
        artifacts, report = _small_corrupted_run(tmp_path)
        result = run_pipeline(tmp_path)
        health = result.health
        assert health is not None and not health.is_clean
        # Every injected corruption type leaves a typed signal.
        assert (
            health.quarantined.get(REASON_MALFORMED, 0)
            + health.quarantined.get(REASON_BAD_TIMESTAMP, 0)
            + health.quarantined.get(REASON_MISSING_HOST, 0)
            > 0
        )
        assert health.quarantined.get(REASON_TORN_WRITE, 0) > 0
        assert health.repaired.get(REASON_ENCODING, 0) > 0
        assert health.repaired.get(REASON_CLOCK_STEP, 0) > 0
        assert health.file_incidents.get(FILE_TRUNCATED_GZIP, 0) >= 1
        assert health.file_incidents.get(FILE_DUPLICATE_DAY, 0) >= 1
        assert health.days_missing >= 1
        assert 0.8 < health.completeness < 1.0
        # Statistics survive corruption at these (20x calibrated) rates.
        assert len(result.errors) == pytest.approx(
            len(artifacts.logical_events), rel=0.05
        )

    def test_clean_run_health_is_clean(self, small_run):
        _, result = small_run
        assert result.health is not None
        assert result.health.is_clean
        assert result.health.completeness == 1.0

    def test_render_health(self, tmp_path):
        _small_corrupted_run(tmp_path)
        text = run_pipeline(tmp_path).health.render()
        assert "quarantined lines" in text
        assert "completeness" in text


class TestCheckpointResume:
    def test_interrupt_and_resume_identical(self, tmp_path):
        _small_corrupted_run(tmp_path)
        baseline = run_pipeline(tmp_path)
        with pytest.raises(PipelineInterrupted):
            run_pipeline(tmp_path, scan_cache=True, interrupt_after_files=4)
        assert list((tmp_path / SCAN_CACHE_DIRNAME).glob("*.scan"))
        resumed = run_pipeline(tmp_path, scan_cache=True)
        assert resumed.health.resumed_files == 4
        assert resumed.errors == baseline.errors
        assert resumed.downtime == baseline.downtime
        assert resumed.raw_hits == baseline.raw_hits
        assert resumed.extraction_stats == baseline.extraction_stats
        assert resumed.health.quarantined == baseline.health.quarantined
        assert resumed.health.repaired == baseline.health.repaired
        assert resumed.health.lines_read == baseline.health.lines_read

    def test_full_checkpoint_then_resume_all_replayed(self, tmp_path):
        _small_corrupted_run(tmp_path)
        first = run_pipeline(tmp_path, scan_cache=True)
        resumed = run_pipeline(tmp_path, scan_cache=True)
        assert resumed.health.resumed_files == len(
            list_day_files(tmp_path / "syslog", dedupe=True)
        )
        assert resumed.errors == first.errors

    def test_modified_file_invalidates_its_checkpoint(self, tmp_path):
        _small_corrupted_run(tmp_path)
        run_pipeline(tmp_path, scan_cache=True)
        # Append a new error-free line to one day file.
        target = next(
            p
            for p in list_day_files(tmp_path / "syslog", dedupe=True)
            if not p.name.endswith(".gz")
        )
        with open(target, "a", encoding="utf-8") as handle:
            stem = target.name.split(".")[0].split("syslog-")[1]
            handle.write(f"{stem}T23:59:59.000000 gpua001 kernel: benign\n")
        resumed = run_pipeline(tmp_path, scan_cache=True)
        assert (
            resumed.health.resumed_files
            == len(list_day_files(tmp_path / "syslog", dedupe=True)) - 1
        )

    def test_resume_without_checkpoint_runs_fresh(self, tmp_path):
        config = StudyConfig.small(seed=12, job_scale=0.002, op_days=8)
        DeltaStudy(config).run(tmp_path)
        result = run_pipeline(tmp_path, scan_cache=True)
        assert result.health.resumed_files == 0


class TestDayCoverage:
    def test_gap_detected(self):
        present, missing = day_coverage(
            ["syslog-2022-01-01", "syslog-2022-01-02", "syslog-2022-01-05"]
        )
        assert present == 3
        assert missing == 2

    def test_empty(self):
        assert day_coverage([]) == (0, 0)

    def test_report_build_fractions(self):
        report = PipelineHealthReport(
            lines_read=100,
            parsed_lines=90,
            quarantined={"malformed": 10},
            days_present=9,
            days_missing=1,
        )
        assert report.line_retention == pytest.approx(0.9)
        assert report.day_coverage_fraction == pytest.approx(0.9)
        assert report.completeness == pytest.approx(0.81)


class TestChaosCli:
    def test_chaos_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        config = StudyConfig.small(seed=13, job_scale=0.002, op_days=8)
        DeltaStudy(config).run(tmp_path)
        code = main(
            ["chaos", str(tmp_path), "--chaos-seed", "1", "--rate-scale", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos injection report" in out
        code = main(["pipeline", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "pipeline health" in out
        code = main(["pipeline", str(tmp_path)])
        assert code == 0
        assert "resumed from scan cache" in capsys.readouterr().out
