"""Tests for gzip-compressed syslog support and pipeline robustness."""

import builtins
import gzip
import io
import os
import random
import shutil
import zlib
from dataclasses import fields, replace

import pytest

from repro import DeltaStudy, StudyConfig
from repro.cluster.inventory import Inventory
from repro.core.exceptions import ConfigurationError
from repro.core.timebase import DAY
from repro.pipeline import run_pipeline
from repro.pipeline.downtime import DowntimeExtractor
from repro.pipeline.extract import ExtractionStats
from repro.pipeline.shard import DayScan, HitColumns, merge_scan, scan_day_file
from repro.stream import StreamIngest
from repro.syslog.quarantine import (
    FILE_CORRUPT,
    FILE_TRUNCATED_GZIP,
    FILE_UNREADABLE,
    Quarantine,
    QuarantineRecord,
)
from repro.syslog.reader import list_day_files, open_day_buffer, parse_line
from repro.syslog.records import LogRecord
from repro.syslog.writer import day_file_name, write_day_partitioned


def _day_bytes(count, seed, ending=b"\n", date="2022-01-01"):
    """``count`` syslog lines of one day, each beginning with its
    timestamp as generated and chaos-corrupted days do: XID hits on a
    few GPUs, noise, downtime markers, chaos byte garbage and the odd
    backwards clock step."""
    rng = random.Random(seed)
    lines = []
    for i in range(count):
        second = i * 5 if rng.random() > 0.01 else max(0, i * 5 - 300)
        stamp = (
            f"{date}T{second // 3600 % 24:02d}:{second // 60 % 60:02d}:"
            f"{second % 60:02d}.{rng.randrange(10**6):06d}"
        )
        host = f"gpua{rng.randrange(1, 6):03d}"
        kind = rng.random()
        if kind < 0.3:
            bus = rng.choice(("07", "46", "85", "C7"))
            message = (
                f"kernel: NVRM: Xid (PCI:0000:{bus}:00): "
                f"{rng.choice((31, 48, 63, 74, 79, 94, 95))}, "
                f"pid={rng.randrange(99999)}, name=python"
            ).encode()
        elif kind < 0.32:
            message = (
                f"healthcheck: node {host} out of service "
                "cause=gsp_error kind=reboot"
            ).encode()
        elif kind < 0.34:
            message = b"kernel: a\xf9\xfab garbage"
        else:
            message = f"slurmd[{rng.randrange(9999)}]: job {i} step 0".encode()
        lines.append(f"{stamp} {host} ".encode() + message)
    return ending.join(lines) + ending


def _merged(scan):
    """The quarantine a merge of ``scan`` alone leaves behind."""
    quarantine = Quarantine()
    merge_scan(
        scan,
        float("-inf"),
        quarantine,
        ExtractionStats(),
        DowntimeExtractor(),
        HitColumns(),
    )
    return quarantine


def _assert_salvaged(got, kept, incident, name, tmp_path):
    """``got`` is the scan of a plain file holding exactly the ``kept``
    bytes, plus ``incident`` recorded after the file's lines."""
    reference = tmp_path / "reference" / "syslog-2022-01-01.log"
    reference.parent.mkdir(exist_ok=True)
    reference.write_bytes(kept)
    want = scan_day_file(reference)
    for f in fields(DayScan):
        if f.name in (
            "day",
            "bytes_read",
            "lines_decoded",
            "scan_wall_seconds",
            "file_incidents",
            "events",
        ):
            continue
        assert getattr(got, f.name) == getattr(want, f.name), (name, f.name)
    assert got.file_incidents == ({incident: 1} if incident else {}), name
    got_q, want_q = _merged(got), _merged(want)
    extra = [QuarantineRecord(incident, got.day)] if incident else []
    assert got_q.samples == want_q.samples + extra, name


def _parsed(log_dir):
    """Every line of every day file of ``log_dir``, read whole and
    parsed, in day order."""
    parsed = []
    for path in list_day_files(log_dir):
        with open_day_buffer(path) as (buf, incident):
            assert incident is None
            lines = bytes(buf).decode().splitlines()
            parsed += [parse_line(line) for line in lines]
    return parsed


class TestCompressedWriterReader:
    def _records(self):
        return [
            LogRecord(time=100.0, host="gpua001", message="kernel: one"),
            LogRecord(time=DAY + 5.0, host="gpua002", message="kernel: two"),
        ]

    def test_gz_file_names(self):
        assert day_file_name(0.0, compress=True) == "syslog-2022-01-01.log.gz"

    def test_compressed_roundtrip(self, tmp_path):
        paths = write_day_partitioned(tmp_path, self._records(), compress=True)
        assert all(p.name.endswith(".log.gz") for p in paths)
        parsed = _parsed(tmp_path)
        assert [p.message for p in parsed] == ["kernel: one", "kernel: two"]

    def test_mixed_plain_and_compressed(self, tmp_path):
        write_day_partitioned(tmp_path, [self._records()[0]], compress=False)
        write_day_partitioned(tmp_path, [self._records()[1]], compress=True)
        files = list_day_files(tmp_path)
        assert len(files) == 2
        # Chronological order across forms.
        assert files[0].name.startswith("syslog-2022-01-01")
        parsed = _parsed(tmp_path)
        assert [p.host for p in parsed] == ["gpua001", "gpua002"]

    def test_compression_actually_shrinks(self, tmp_path):
        records = [
            LogRecord(time=float(i), host="gpua001", message="kernel: NVRM: x" * 5)
            for i in range(2000)
        ]
        (tmp_path / "plain").mkdir()
        (tmp_path / "gz").mkdir()
        [plain] = write_day_partitioned(tmp_path / "plain", records)
        [gz] = write_day_partitioned(tmp_path / "gz", records, compress=True)
        assert gz.stat().st_size < plain.stat().st_size / 5


class TestCompressedEndToEnd:
    def test_pipeline_over_compressed_run(self, tmp_path):
        config = replace(
            StudyConfig.small(seed=41, job_scale=0.005, op_days=20),
            compress_logs=True,
        )
        artifacts = DeltaStudy(config).run(tmp_path)
        files = list((tmp_path / "syslog").iterdir())
        assert files and all(f.name.endswith(".log.gz") for f in files)
        result = run_pipeline(tmp_path)
        assert len(result.errors) == pytest.approx(
            len(artifacts.logical_events), rel=0.03
        )


class TestPipelineRobustness:
    def test_missing_syslog_dir_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="syslog"):
            run_pipeline(tmp_path)

    def test_empty_syslog_dir_yields_empty_result(self, tmp_path):
        (tmp_path / "syslog").mkdir()
        result = run_pipeline(tmp_path)
        assert result.errors == []
        assert result.downtime == []
        assert result.jobs == []
        assert result.coalescing_reduction == 1.0

    def test_missing_inventory_falls_back_to_pci_keys(self, tmp_path):
        config = StudyConfig.small(seed=43, job_scale=0.005, op_days=15)
        artifacts = DeltaStudy(config).run(tmp_path)
        (tmp_path / "inventory.json").unlink()
        result = run_pipeline(tmp_path)
        # Errors still recovered; GPU indices unresolved but PCI-keyed
        # coalescing keeps counts intact.
        assert len(result.errors) == pytest.approx(
            len(artifacts.logical_events), rel=0.03
        )
        assert all(e.gpu_index is None for e in result.errors)

    def test_missing_sacct_tolerated(self, tmp_path):
        config = StudyConfig.small(seed=43, job_scale=0.005, op_days=15)
        DeltaStudy(config).run(tmp_path)
        (tmp_path / "sacct.csv").unlink()
        result = run_pipeline(tmp_path)
        assert result.jobs == []
        assert result.errors


def _text_salvage(archive):
    """What text-mode reading of ``archive`` yields before it raises,
    re-encoded, and the incident its exception names."""
    handle = io.TextIOWrapper(
        gzip.GzipFile(fileobj=io.BytesIO(archive)),
        encoding="utf-8",
        errors="replace",
    )
    lines = []
    incident = None
    try:
        for line in iter(handle.readline, ""):
            lines.append(line)
    except EOFError:
        incident = FILE_TRUNCATED_GZIP
    except OSError:
        incident = FILE_CORRUPT
    return "".join(lines).encode("utf-8"), incident


def _salvage_archives(ending):
    """Damaged and intact archives of days whose lines all begin with
    their timestamp: truncations at many offsets (header, deflate data
    and trailer), garbage after a member, and two members."""
    day = _day_bytes(4000, seed=len(ending), ending=ending)
    member = gzip.compress(day, mtime=0)
    yield "whole", member
    cuts = [0, 1, 9, 10, 11, 64, len(member) - 9, len(member) - 8]
    cuts += [len(member) - 4, len(member) - 1]
    cuts += [len(member) * k // 17 for k in range(1, 17)]
    for cut in cuts:
        yield f"cut at {cut}", member[:cut]
    yield "garbage after a member", member + b"this is not gzip"
    second = gzip.compress(_day_bytes(50, 9, ending, "2022-01-02"), mtime=0)
    yield "two members", member + second
    yield "two members, the second cut", member + second[: len(second) // 2]


class TestGzipSalvage:
    """A gz day keeps exactly the lines text-mode reading yields before
    the archive breaks, and records the incident its error names."""

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"])
    def test_salvage_equals_text_mode_reading(self, tmp_path, ending):
        path = tmp_path / "syslog-2022-01-01.log.gz"
        for name, archive in _salvage_archives(ending):
            path.write_bytes(archive)
            kept, incident = _text_salvage(archive)
            scan = scan_day_file(path)
            _assert_salvaged(scan, kept, incident, name, tmp_path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "syslog-2022-01-01.log.gz"
        path.write_bytes(b"this is not gzip data")
        scan = scan_day_file(path)
        _assert_salvaged(scan, b"", FILE_CORRUPT, "header", tmp_path)

    @pytest.mark.parametrize("tail", [b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98"])
    @pytest.mark.parametrize("damage", ["garbage after the member", "cut"])
    def test_lone_cr_before_a_partial_character_keeps_its_line(
        self, tmp_path, tail, damage
    ):
        """The one case where the salvage and text-mode reading differ:
        the salvaged bytes end in a lone ``\\r`` and the first bytes of
        a multi-byte character.  Text-mode reading holds both back and
        drops the ``\\r`` line; the salvage keeps it, as the follower
        keeps a plain file's complete lines.  (No generated or chaos day
        holds it: every line begins with a timestamp, and chaos garbage
        bytes 0xF8-0xFF begin no character.)"""
        lines = b"".join(
            b"2022-01-01T00:00:%02d.000000 gpua001 kernel: NVRM: Xid "
            b"(PCI:0000:07:00): 79, pid=%d, fell off the bus\n" % (i, i)
            for i in range(20)
        )
        last = b"2022-01-01T00:01:00.000000 gpua002 kernel: slurmd: done\r"
        if damage == "cut":
            deflate = zlib.compressobj(wbits=31)
            archive = deflate.compress(lines + last + tail)
            archive += deflate.flush(zlib.Z_SYNC_FLUSH)
            incident = FILE_TRUNCATED_GZIP
        else:
            archive = gzip.compress(lines + last + tail, mtime=0) + b"junk"
            incident = FILE_CORRUPT
        path = tmp_path / "syslog-2022-01-01.log.gz"
        path.write_bytes(archive)
        assert _text_salvage(archive) == (lines, incident)
        scan = scan_day_file(path)
        _assert_salvaged(scan, lines + last, incident, damage, tmp_path)


class TestGzipCorpus:
    def test_gz_corpus_equals_plain(self, tmp_path):
        """Every day gzipped: batch and stream results equal the plain
        corpus's, and no gz day decodes a line (the bytes scan reads
        the decompressed buffer)."""
        plain = tmp_path / "plain"
        config = StudyConfig.small(seed=23, job_scale=0.003, op_days=10)
        DeltaStudy(config).run(plain)
        gz = tmp_path / "gz"
        shutil.copytree(plain, gz)
        for path in list_day_files(gz / "syslog"):
            archive = path.with_name(path.name + ".gz")
            archive.write_bytes(gzip.compress(path.read_bytes(), mtime=0))
            path.unlink()
        want = run_pipeline(plain, load_jobs=False)
        assert want.errors and want.downtime
        assert run_pipeline(gz, load_jobs=False) == want
        inventory = Inventory.load(gz / "inventory.json")
        ingest = StreamIngest(gz / "syslog", inventory=inventory)
        ingest.drain()
        assert ingest.result() == want
        days = list_day_files(gz / "syslog")
        assert days and all(path.name.endswith(".gz") for path in days)
        for path in days:
            scan = scan_day_file(path, inventory)
            assert scan.lines_read > 0 and scan.lines_decoded == 0, path.name


def _flip_to_zlib_error(archive, seed):
    """``archive`` with one bit of its deflate data flipped: the first
    flip of a seeded search on which the stdlib raises ``zlib.error``."""
    rng = random.Random(seed)
    for _ in range(1000):
        damaged = bytearray(archive)
        # gzip.compress writes a 10-byte header and an 8-byte trailer.
        damaged[rng.randrange(10, len(archive) - 8)] ^= 1 << rng.randrange(8)
        try:
            gzip.GzipFile(fileobj=io.BytesIO(damaged)).read()
        except zlib.error:
            return bytes(damaged)
        except (EOFError, OSError):
            pass
    raise AssertionError("no flip raised zlib.error")


class TestCorruptDeflate:
    def test_flipped_deflate_bit_is_a_corrupt_file(self, tmp_path):
        """A gz day whose deflate data fails to decompress is one
        ``corrupt_file`` incident in batch (both worker counts) and in
        the stream, and the clean day beside it keeps its hits."""
        clean = _day_bytes(500, seed=1)
        noise = b"".join(
            b"2022-01-02T%02d:%02d:00.000000 gpua001 slurmd[7]: job %d\n"
            % (i // 60, i % 60, i)
            for i in range(1440)
        )
        archive = _flip_to_zlib_error(gzip.compress(noise, mtime=0), seed=23)
        only_clean = tmp_path / "clean" / "syslog"
        only_clean.mkdir(parents=True)
        (only_clean / "syslog-2022-01-01.log").write_bytes(clean)
        syslog = tmp_path / "run" / "syslog"
        shutil.copytree(only_clean, syslog)
        (syslog / "syslog-2022-01-02.log.gz").write_bytes(archive)

        want = run_pipeline(only_clean.parent)
        assert want.errors
        results = [run_pipeline(syslog.parent, workers=n) for n in (1, 2)]
        ingest = StreamIngest(syslog)
        ingest.drain()
        for result in results + [ingest.result()]:
            assert result.health.file_incidents == {FILE_CORRUPT: 1}
            assert result.errors == want.errors


class _Unmappable(io.BytesIO):
    """A day file that cannot be mapped (``BytesIO.fileno`` raises) and
    whose reads fail once they would pass its first ``readable`` bytes."""

    def __init__(self, data, readable):
        super().__init__(data)
        self.readable = readable

    def read(self, size=-1):
        if size is None or size < 0:
            size = len(self.getbuffer()) - self.tell()
        if self.tell() + size > self.readable:
            raise OSError(5, "Input/output error")
        return super().read(size)


class TestPlainReadFailures:
    """A plain day whose open or read fails keeps the complete lines
    read before the failure, and records the incident after them."""

    @pytest.fixture()
    def day(self, tmp_path):
        path = tmp_path / "syslog" / "syslog-2022-01-01.log"
        path.parent.mkdir()
        path.write_bytes(_day_bytes(15_000, seed=5))
        assert path.stat().st_size > 1 << 20
        return path

    def _fail_open(self, monkeypatch, path, opened):
        real_open = builtins.open

        def fake_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                if os.fspath(file) == str(path):
                    return opened()
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", fake_open)

    def test_open_fails(self, day, monkeypatch, tmp_path):
        def refuse():
            raise PermissionError(13, "Permission denied")

        self._fail_open(monkeypatch, day, refuse)
        scan = scan_day_file(day)
        monkeypatch.undo()
        _assert_salvaged(scan, b"", FILE_UNREADABLE, "open", tmp_path)

    def test_unmappable_and_first_read_fails(self, day, monkeypatch, tmp_path):
        data = day.read_bytes()
        self._fail_open(monkeypatch, day, lambda: _Unmappable(data, 0))
        scan = scan_day_file(day)
        monkeypatch.undo()
        _assert_salvaged(scan, b"", FILE_CORRUPT, "first read", tmp_path)

    def test_read_fails_after_first_mib(self, day, monkeypatch, tmp_path):
        data = day.read_bytes()
        self._fail_open(monkeypatch, day, lambda: _Unmappable(data, 1 << 20))
        scan = scan_day_file(day)
        monkeypatch.undo()
        kept = data[: data.rindex(b"\n", 0, 1 << 20) + 1]
        assert 0 < scan.lines_read < data.count(b"\n")
        _assert_salvaged(scan, kept, FILE_CORRUPT, "second read", tmp_path)
