"""Differential tests for the column log bus, the day writer and the
array timestamp formatter.

Each oracle is the per-object code the columns replaced: the writer is
checked against a literal copy of the old per-record writer (a Python
``sorted`` by ``(time, host)``, then ``LogRecord.render`` per line),
and :func:`format_syslog_timestamps` against the scalar
:func:`format_syslog_timestamp`, element for element.
"""

import gzip
import random

import numpy as np
import pytest

from repro.core import timebase
from repro.core.timebase import DAY, format_syslog_timestamp, format_syslog_timestamps
from repro.syslog import writer as writer_module
from repro.syslog.records import LogBus, LogRecord
from repro.syslog.writer import day_file_name, write_day_partitioned


def _reference_write(out_dir, records, compress=False):
    """The per-record writer, as it was before the column bus."""
    out_dir.mkdir(parents=True, exist_ok=True)
    ordered = sorted(records, key=lambda r: (r.time, r.host))
    paths = []
    current_day = None
    handle = None
    try:
        for record in ordered:
            day = int(record.time // DAY)
            if day != current_day:
                if handle is not None:
                    handle.close()
                path = out_dir / day_file_name(day * DAY, compress)
                if compress:
                    handle = gzip.open(path, "wt", encoding="utf-8")
                else:
                    handle = open(path, "w", encoding="utf-8")
                paths.append(path)
                current_day = day
            handle.write(record.render())
            handle.write("\n")
    finally:
        if handle is not None:
            handle.close()
    return paths


#: Instants on or near a day boundary.  ``86_399.9999996`` and
#: ``2 * DAY - 4e-7`` render as the next midnight but stay in the
#: earlier day's file; ``86_399.9999995`` is a hair below the tie.
_EDGE_TIMES = (
    0.0, 5e-7, 1.5e-6, 2.5e-6, 3599.9999995, 86_399.9999995,
    86_399.9999996, float(np.nextafter(DAY, 0.0)), DAY, DAY + 2.5e-6,
    2 * DAY - 4e-7, -0.5, -1e-7,
)
_HOSTS = ("gpua010", "gpua002", "gpub001", "cn001", "gpua002x")


def _random_records(seed, count):
    """Records with many (time, host) ties and equal times across hosts;
    every message is unique, so a reordered tie shows in the bytes."""
    rng = random.Random(seed)
    pool = list(_EDGE_TIMES) + [rng.uniform(-DAY, 4 * DAY) for _ in range(40)]
    records = []
    for i in range(count):
        if rng.random() < 0.6:
            time = rng.choice(pool)
        else:
            time = rng.uniform(-DAY, 4 * DAY)
        records.append(
            LogRecord(time=time, host=rng.choice(_HOSTS), message=f"kernel: m{i}")
        )
    return records


def _read(path, compress):
    if compress:
        with gzip.open(path, "rb") as handle:
            return handle.read()
    return path.read_bytes()


def _assert_same_files(new_paths, old_paths, compress):
    assert [p.name for p in new_paths] == [p.name for p in old_paths]
    for new, old in zip(new_paths, old_paths):
        assert _read(new, compress) == _read(old, compress), new.name


class TestWriterMatchesPerRecordWriter:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_random_record_sets(self, tmp_path, seed):
        records = _random_records(seed, 3000)
        new = write_day_partitioned(tmp_path / "new", records)
        old = _reference_write(tmp_path / "old", records)
        _assert_same_files(new, old, compress=False)

    def test_compressed_files_decompress_to_the_same_bytes(self, tmp_path):
        records = _random_records(5, 2000)
        new = write_day_partitioned(tmp_path / "new", records, compress=True)
        old = _reference_write(tmp_path / "old", records, compress=True)
        _assert_same_files(new, old, compress=True)

    def test_chunk_boundaries_inside_a_day(self, tmp_path, monkeypatch):
        monkeypatch.setattr(writer_module, "RENDER_CHUNK_LINES", 7)
        records = _random_records(6, 500)
        new = write_day_partitioned(tmp_path / "new", records)
        old = _reference_write(tmp_path / "old", records)
        _assert_same_files(new, old, compress=False)

    def test_ties_keep_insertion_order(self, tmp_path):
        records = [
            LogRecord(time=10.0, host="gpua002", message=f"kernel: tie {i}")
            for i in range(5)
        ] + [LogRecord(time=10.0, host="gpua001", message="kernel: first")]
        [path] = write_day_partitioned(tmp_path, records)
        lines = path.read_text().splitlines()
        assert lines[0].endswith("gpua001 kernel: first")
        assert [line.rsplit(" ", 1)[1] for line in lines[1:]] == [
            "0", "1", "2", "3", "4",
        ]

    def test_rounded_into_next_date_stays_in_its_day_file(self, tmp_path):
        records = [LogRecord(time=86_399.9999996, host="gpua001", message="m: x")]
        [path] = write_day_partitioned(tmp_path, records)
        assert path.name == "syslog-2022-01-01.log"
        assert path.read_text() == "2022-01-02T00:00:00.000000 gpua001 m: x\n"

    def test_empty_input(self, tmp_path):
        assert write_day_partitioned(tmp_path / "new", []) == []
        assert _reference_write(tmp_path / "old", []) == []
        assert list((tmp_path / "new").iterdir()) == []

    def test_bus_and_record_list_write_the_same(self, tmp_path):
        records = _random_records(7, 1000)
        bus = LogBus()
        bus.extend(records)
        from_bus = write_day_partitioned(tmp_path / "bus", bus)
        from_list = write_day_partitioned(tmp_path / "list", records)
        _assert_same_files(from_bus, from_list, compress=False)


class TestLogBusColumns:
    def test_sorted_records_match_python_sort(self):
        records = _random_records(8, 2000)
        bus = LogBus()
        bus.extend(records)
        assert bus.sorted_records() == sorted(
            records, key=lambda r: (r.time, r.host)
        )
        assert len(bus) == len(records)

    def test_emit_burst_equals_emit_loop(self):
        rng = np.random.default_rng(9)
        looped, burst = LogBus(), LogBus()
        for i in range(200):
            now = float(rng.uniform(0.0, 3 * DAY))
            host = _HOSTS[i % len(_HOSTS)]
            line = f"kernel: NVRM: burst {i}"
            offsets = np.sort(rng.uniform(0.2, 30.0, size=int(rng.poisson(4))))
            for bus in (looped, burst):
                bus.emit(now, host, line)
            for offset in offsets:
                looped.emit(now + float(offset), host, line)
            burst.emit_burst(now + offsets, host, line)
        assert len(burst) == len(looped)
        assert burst.sorted_records() == looped.sorted_records()
        for a, b in zip(burst.ordered_columns(), looped.ordered_columns()):
            assert a.tolist() == b.tolist()

    def test_emit_after_ordering(self):
        bus = LogBus()
        bus.emit(2.0, "b", "m: 2")
        assert [r.message for r in bus.sorted_records()] == ["m: 2"]
        bus.emit(1.0, "a", "m: 1")
        assert [r.message for r in bus.sorted_records()] == ["m: 1", "m: 2"]


class TestArrayFormatter:
    def test_matches_scalar_formatter(self):
        # The edges and the 10**6 seeded instants of
        # test_timebase.py::test_format_matches_strftime_reference.
        edges = [
            0.0, -0.5, -1e-7, -3600.0, -86_400.0 * 400 - 0.25,
            5e-7, 1.5e-6, 2.5e-6, 86_400.0 + 2.5e-6,
            3599.9999995, 86_399.9999995, 31_535_999.9999995,
        ]
        rng = random.Random(20220101)
        span = 1170 * timebase.DAY
        instants = edges + [rng.uniform(0.0, span) for _ in range(1_000_000)]
        got = format_syslog_timestamps(instants).tolist()
        want = [format_syslog_timestamp(t) for t in instants]
        mismatches = [
            (t, g, w) for t, g, w in zip(instants, got, want) if g != w
        ]
        assert not mismatches, mismatches[:5]

    def test_half_microsecond_ties_round_half_even(self):
        # 0.0078125 s is 7,812.5 us and 0.0234375 s is 23,437.5 us, both
        # exact in binary: ties with an even and an odd whole count.
        instants = [
            k + frac
            for k in range(-5, 6)
            for frac in (0.0078125, 0.0234375, -0.0078125, 5e-7)
        ] + [DAY * 40 + 0.0234375, 1e8 + 0.0078125]
        got = format_syslog_timestamps(instants).tolist()
        assert got == [format_syslog_timestamp(t) for t in instants]
        assert got[instants.index(0.0234375)] == "2022-01-01T00:00:00.023438"
        assert got[instants.index(0.0078125)] == "2022-01-01T00:00:00.007812"

    def test_empty_and_non_finite(self):
        assert format_syslog_timestamps([]).tolist() == []
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                format_syslog_timestamps([0.0, bad])
