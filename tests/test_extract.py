"""Unit tests for Stage-II extraction (repro.pipeline.extract)."""

import pytest

from repro.cluster.inventory import Inventory
from repro.cluster.topology import Cluster
from repro.core.xid import EventClass
from repro.pipeline.extract import XidExtractor
from repro.pipeline.shard import scan_day_file
from repro.syslog.reader import RawLine
from repro.syslog.records import LogRecord
from repro.syslog.writer import write_day_partitioned


def line(message: str, time: float = 10.0, host: str = "gpua001") -> RawLine:
    return RawLine(time=time, host=host, message=message)


class TestLineClassification:
    def test_xid_line_extracted(self):
        extractor = XidExtractor()
        hit = extractor.extract_line(
            line("kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, GPU has fallen off the bus.")
        )
        assert hit is not None
        assert hit.event_class is EventClass.FALLEN_OFF_BUS
        assert hit.xid == 79
        assert hit.pci_address == "0000:07:00"
        assert hit.gpu_index is None  # no inventory attached

    def test_paired_codes_map_to_one_class(self):
        extractor = XidExtractor()
        for code in (119, 120):
            hit = extractor.extract_line(
                line(f"kernel: NVRM: Xid (PCI:0000:07:00): {code}, pid=1, GSP timeout")
            )
            assert hit.event_class is EventClass.GSP_ERROR

    def test_excluded_xids_skipped_and_counted(self):
        extractor = XidExtractor()
        assert (
            extractor.extract_line(
                line("kernel: NVRM: Xid (PCI:0000:07:00): 13, pid=1, warp exception")
            )
            is None
        )
        assert (
            extractor.extract_line(
                line("kernel: NVRM: Xid (PCI:0000:07:00): 43, pid=1, reset channel")
            )
            is None
        )
        assert extractor.stats.excluded_xid_lines == 2
        assert extractor.stats.matched_lines == 0

    def test_unknown_xid_counted(self):
        extractor = XidExtractor()
        assert (
            extractor.extract_line(
                line("kernel: NVRM: Xid (PCI:0000:07:00): 32, pid=1, whatever")
            )
            is None
        )
        assert extractor.stats.unknown_xid_lines == 1

    def test_ecc_accounting_line_extracted(self):
        extractor = XidExtractor()
        hit = extractor.extract_line(
            line(
                "kernel: NVRM: GPU at PCI:0000:46:00: uncorrectable ECC "
                "error detected; volatile count incremented"
            )
        )
        assert hit is not None
        assert hit.event_class is EventClass.UNCORRECTABLE_ECC
        assert hit.xid is None

    def test_benign_lines_ignored(self):
        extractor = XidExtractor()
        assert extractor.extract_line(line("slurmd[1]: epilog complete")) is None
        assert extractor.stats.total_lines == 1
        assert extractor.stats.matched_lines == 0


class TestInventoryResolution:
    def test_pci_resolved_to_index(self, small_cluster):
        inventory = Inventory.from_cluster(small_cluster)
        extractor = XidExtractor(inventory)
        gpu = small_cluster.node("gpua001").gpu(2)
        hit = extractor.extract_line(
            line(
                f"kernel: NVRM: Xid (PCI:{gpu.pci_address}): 31, pid=1, MMU Fault",
                host="gpua001",
            )
        )
        assert hit.gpu_index == 2

    def test_unknown_pci_counted(self, small_cluster):
        inventory = Inventory.from_cluster(small_cluster)
        extractor = XidExtractor(inventory)
        hit = extractor.extract_line(
            line("kernel: NVRM: Xid (PCI:0000:FF:00): 31, pid=1, MMU Fault")
        )
        assert hit.gpu_index is None
        assert extractor.stats.unresolved_pci_lines == 1


class TestDirectoryExtraction:
    def test_extract_all_over_directory(
        self, tmp_path, small_cluster, raw_hits
    ):
        inventory = Inventory.from_cluster(small_cluster)
        gpu = small_cluster.node("gpua001").gpu(0)
        records = [
            LogRecord(
                time=100.0,
                host="gpua001",
                message=f"kernel: NVRM: Xid (PCI:{gpu.pci_address}): 74, pid=9, NVLink error",
            ),
            LogRecord(time=101.0, host="gpua001", message="slurmd[1]: noise"),
            LogRecord(
                time=86_500.0,
                host="gpua001",
                message=f"kernel: NVRM: Xid (PCI:{gpu.pci_address}): 13, pid=9, app bug",
            ),
        ]
        write_day_partitioned(tmp_path, records)
        hits = raw_hits(tmp_path, inventory)
        assert len(hits) == 1
        assert hits[0].event_class is EventClass.NVLINK_ERROR
        assert hits[0].gpu_index == 0

    def test_malformed_lines_tolerated(self, tmp_path):
        write_day_partitioned(
            tmp_path,
            [LogRecord(time=10.0, host="gpua001", message="kernel: fine")],
        )
        path = next(tmp_path.glob("*.log"))
        with open(path, "a") as handle:
            handle.write("completely broken line\n")
            handle.write(
                "2022-01-01T00:01:00.000000 gpua001 kernel: NVRM: Xid "
                "(PCI:0000:07:00): 79, pid=1, GPU has fallen off the bus.\n"
            )
        scan = scan_day_file(path)
        assert len(scan.hits) == 1
        assert scan.stats["malformed_lines"] == 1
