"""Unit tests for the syslog substrate (records, nvrm, writer, reader,
noise)."""

import numpy as np
import pytest

from repro.core.exceptions import LogFormatError
from repro.core.periods import StudyWindow
from repro.core.timebase import DAY, HOUR
from repro.core.xid import EventClass
from repro.syslog.noise import NoiseConfig, generate_noise
from repro.syslog.nvrm import ecc_accounting_line, render_event_line, xid_line
from repro.syslog.reader import list_day_files, parse_line
from repro.syslog.records import LogBus, LogRecord
from repro.syslog.writer import day_file_name, write_day_partitioned


class TestNvrmFormats:
    def test_xid_line_shape(self):
        line = xid_line(79, "0000:C7:00", pid=1234)
        assert line == (
            "kernel: NVRM: Xid (PCI:0000:C7:00): 79, pid=1234, "
            "GPU has fallen off the bus."
        )

    @pytest.mark.parametrize(
        "xid", [13, 31, 43, 48, 63, 64, 74, 79, 94, 95, 119, 120, 122, 123]
    )
    def test_all_known_codes_render(self, xid):
        line = xid_line(xid, "0000:07:00", pid=1)
        assert f"): {xid}," in line

    def test_unknown_code_raises(self):
        with pytest.raises(KeyError):
            xid_line(999, "0000:07:00", pid=1)

    def test_ecc_accounting_line(self):
        line = ecc_accounting_line("0000:46:00")
        assert "uncorrectable ECC" in line
        assert "PCI:0000:46:00" in line
        assert "Xid" not in line

    def test_render_event_line_dispatch(self, rng):
        ecc = render_event_line(
            EventClass.UNCORRECTABLE_ECC, None, "0000:07:00", rng
        )
        assert "uncorrectable ECC" in ecc
        gsp = render_event_line(EventClass.GSP_ERROR, 119, "0000:07:00", rng)
        assert "): 119," in gsp


class TestLogBus:
    def test_emit_and_sort(self):
        bus = LogBus()
        bus.emit(20.0, "gpua002", "b")
        bus.emit(10.0, "gpua001", "a")
        bus.emit(20.0, "gpua001", "c")
        records = bus.sorted_records()
        assert [(r.time, r.host) for r in records] == [
            (10.0, "gpua001"),
            (20.0, "gpua001"),
            (20.0, "gpua002"),
        ]
        assert len(bus) == 3

    def test_render_line(self):
        record = LogRecord(time=0.5, host="gpua001", message="kernel: hello")
        assert record.render() == "2022-01-01T00:00:00.500000 gpua001 kernel: hello"


def _parse_days(log_dir):
    """``parse_line`` over every written line, in day order."""
    return [
        parse_line(line)
        for path in list_day_files(log_dir)
        for line in path.read_text().splitlines()
    ]


class TestWriterReader:
    def test_day_file_name(self):
        assert day_file_name(0.0) == "syslog-2022-01-01.log"
        assert day_file_name(DAY * 31) == "syslog-2022-02-01.log"

    def test_roundtrip(self, tmp_path):
        records = [
            LogRecord(time=100.0, host="gpua001", message="kernel: one"),
            LogRecord(time=DAY + 5.0, host="gpua002", message="kernel: two"),
            LogRecord(time=DAY + 10.0, host="gpua001", message="kernel: three"),
        ]
        paths = write_day_partitioned(tmp_path, records)
        assert len(paths) == 2
        parsed = _parse_days(tmp_path)
        assert [(p.time, p.host, p.message) for p in parsed] == [
            (100.0, "gpua001", "kernel: one"),
            (DAY + 5.0, "gpua002", "kernel: two"),
            (DAY + 10.0, "gpua001", "kernel: three"),
        ]

    def test_writer_sorts_unordered_input(self, tmp_path):
        records = [
            LogRecord(time=DAY + 1.0, host="a", message="m: late"),
            LogRecord(time=1.0, host="a", message="m: early"),
        ]
        write_day_partitioned(tmp_path, records)
        parsed = _parse_days(tmp_path)
        assert parsed[0].message == "m: early"

    def test_list_day_files_ordered(self, tmp_path):
        records = [
            LogRecord(time=i * DAY + 1.0, host="a", message="m: x") for i in range(5)
        ]
        write_day_partitioned(tmp_path, records)
        files = list_day_files(tmp_path)
        assert len(files) == 5
        assert files == sorted(files)

    def test_parse_line_malformed(self):
        with pytest.raises(LogFormatError):
            parse_line("garbage")
        with pytest.raises(LogFormatError):
            parse_line("not-a-time gpua001 kernel: hi")

    def test_parse_line_roundtrip(self):
        record = LogRecord(time=12.25, host="gpua001", message="kernel: NVRM: ok")
        parsed = parse_line(record.render())
        assert parsed.time == pytest.approx(12.25)
        assert parsed.host == "gpua001"
        assert parsed.message == "kernel: NVRM: ok"


class TestNoise:
    def test_noise_volume_and_content(self):
        window = StudyWindow.scaled(pre_days=5, op_days=25)
        config = NoiseConfig(
            benign_rate_per_node_hour=0.5, excluded_xid_rate_per_hour=2.0
        )
        records = generate_noise(
            config,
            node_names=["gpua001", "cn001"],
            gpu_node_names=["gpua001"],
            window=window,
            rng=np.random.default_rng(0),
        )
        hours = window.end / HOUR
        benign_expected = 0.5 * 2 * hours
        excluded_expected = 2.0 * hours
        assert len(records) == pytest.approx(
            benign_expected + excluded_expected, rel=0.1
        )
        excluded = [r for r in records if "Xid" in r.message]
        assert len(excluded) == pytest.approx(excluded_expected, rel=0.15)
        # Excluded-XID lines carry only codes 13/43.
        assert all(("): 13," in r.message) or ("): 43," in r.message) for r in excluded)

    def test_noise_within_window(self):
        window = StudyWindow.scaled(pre_days=2, op_days=2)
        records = generate_noise(
            NoiseConfig(),
            node_names=["gpua001"],
            gpu_node_names=["gpua001"],
            window=window,
            rng=np.random.default_rng(1),
        )
        assert all(0 <= r.time < window.end for r in records)

    def test_no_gpu_nodes_no_xid_noise(self):
        window = StudyWindow.scaled(pre_days=2, op_days=2)
        records = generate_noise(
            NoiseConfig(excluded_xid_rate_per_hour=50.0),
            node_names=["cn001"],
            gpu_node_names=[],
            window=window,
            rng=np.random.default_rng(2),
        )
        assert not any("Xid" in r.message for r in records)
