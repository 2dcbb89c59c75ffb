"""Unit tests for downtime extraction from logs (repro.pipeline.downtime)."""

import pytest

from repro.core.xid import EventClass
from repro.pipeline import run_pipeline
from repro.pipeline.downtime import DowntimeExtractor
from repro.syslog.reader import RawLine
from repro.syslog.records import LogRecord
from repro.syslog.writer import write_day_partitioned


def out_line(time, node="gpua001", cause="gsp_error", kind="reboot"):
    return RawLine(
        time=time,
        host=node,
        message=f"healthcheck: node {node} out of service cause={cause} kind={kind}",
    )


def return_line(time, node="gpua001", swap=False):
    suffix = " after gpu swap" if swap else ""
    return RawLine(
        time=time,
        host=node,
        message=f"healthcheck: node {node} returned to service{suffix}",
    )


class TestEpisodePairing:
    def test_basic_episode(self):
        extractor = DowntimeExtractor()
        extractor.feed(out_line(100.0))
        extractor.feed(return_line(3700.0))
        [record] = extractor.finish()
        assert record.node == "gpua001"
        assert record.duration == pytest.approx(3600.0)
        assert record.cause is EventClass.GSP_ERROR
        assert not record.gpu_replaced

    def test_swap_flag_parsed(self):
        extractor = DowntimeExtractor()
        extractor.feed(out_line(0.0))
        extractor.feed(return_line(100.0, swap=True))
        [record] = extractor.finish()
        assert record.gpu_replaced

    def test_interleaved_nodes(self):
        extractor = DowntimeExtractor()
        extractor.feed(out_line(0.0, node="gpua001"))
        extractor.feed(out_line(10.0, node="gpua002", cause="mmu_error"))
        extractor.feed(return_line(50.0, node="gpua002"))
        extractor.feed(return_line(100.0, node="gpua001"))
        records = extractor.finish()
        assert len(records) == 2
        by_node = {r.node: r for r in records}
        assert by_node["gpua002"].cause is EventClass.MMU_ERROR
        assert by_node["gpua001"].duration == pytest.approx(100.0)

    def test_unmatched_return_counted(self):
        extractor = DowntimeExtractor()
        extractor.feed(return_line(5.0))
        assert extractor.finish() == []
        assert extractor.stats.unmatched_returns == 1

    def test_dangling_outage_counted(self):
        extractor = DowntimeExtractor()
        extractor.feed(out_line(5.0))
        assert extractor.finish() == []
        assert extractor.stats.dangling_outages == 1

    def test_unknown_cause_tolerated(self):
        extractor = DowntimeExtractor()
        extractor.feed(out_line(0.0, cause="mystery_cause"))
        extractor.feed(return_line(10.0))
        [record] = extractor.finish()
        assert record.cause is EventClass.UNCONTAINED_MEMORY_ERROR

    def test_irrelevant_lines_ignored(self):
        extractor = DowntimeExtractor()
        extractor.feed(
            RawLine(time=0.0, host="gpua001", message="kernel: NVRM: Xid ...")
        )
        assert extractor.finish() == []


class TestDirectoryExtraction:
    def test_downtime_over_files(self, tmp_path):
        records = [
            LogRecord(
                time=100.0,
                host="gpua001",
                message="healthcheck: node gpua001 out of service cause=gsp_error kind=reboot",
            ),
            LogRecord(
                time=90_000.0,
                host="gpua001",
                message="healthcheck: node gpua001 returned to service",
            ),
        ]
        write_day_partitioned(tmp_path / "syslog", records)
        episodes = run_pipeline(tmp_path).downtime
        assert len(episodes) == 1
        assert episodes[0].duration == pytest.approx(89_900.0)
