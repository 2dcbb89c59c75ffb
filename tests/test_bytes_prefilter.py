"""Differential tests: bytes-first scan vs the decoded reference path.

The bytes-first scanner (`repro.pipeline.bytescan`) must be
observably indistinguishable from the legacy decoded per-line path —
not just on hits but on *every* ``DayScan`` field: quarantine reasons
and their sampled events (in ``(line_idx, sub)`` order), clock-step
repairs, boundary candidates, line counts, and the streamed content
fingerprint.  ``scan_day_file(force_decode=True)`` pins the decoded
reference implementation; these tests fuzz both paths with the chaos
layer (torn lines, byte garbage, mid-UTF-8 cuts, clock steps, ``\\r``
endings, truncation) plus handcrafted adversarial lines, and demand
field-for-field equality.
"""

import dataclasses
import shutil

import pytest

from repro import DeltaStudy, StudyConfig
from repro.cluster.inventory import Inventory
from repro.pipeline.shard import DayScan, scan_day_file
from repro.syslog.chaos import ChaosConfig, corrupt_artifacts
from repro.syslog.reader import list_day_files


def _assert_scans_identical(fast: DayScan, slow: DayScan) -> None:
    """Field-for-field equality.

    Two fields are excluded by design: ``scan_wall_seconds`` (wall
    clock) and ``lines_decoded`` — the latter is the *point* of the
    bytes-first path (observability-only; the decoded reference
    decodes every line, the bytes-first path only its fallbacks), so
    it is checked as a relation instead.
    """
    for f in dataclasses.fields(DayScan):
        if f.name in ("scan_wall_seconds", "lines_decoded"):
            continue
        assert getattr(fast, f.name) == getattr(slow, f.name), (
            f"DayScan.{f.name} differs between bytes-first and decoded paths"
        )
    assert slow.lines_decoded == slow.lines_read
    assert fast.lines_decoded <= slow.lines_decoded


def _diff_corpus(artifact_dir) -> int:
    """Diff every day file through both paths; returns files checked."""
    inventory = Inventory.load(artifact_dir / "inventory.json")
    files = list_day_files(artifact_dir / "syslog")
    assert files
    for path in files:
        fast = scan_day_file(path, inventory)
        slow = scan_day_file(path, inventory, force_decode=True)
        _assert_scans_identical(fast, slow)
    return len(files)


@pytest.fixture(scope="module")
def clean_src(tmp_path_factory):
    """A small pristine corpus, shared (read-only) by every test."""
    src = tmp_path_factory.mktemp("prefilter") / "run"
    config = StudyConfig.small(
        seed=23, job_scale=0.003, op_days=10, include_episode=True
    )
    DeltaStudy(config).run(src)
    return src


class TestChaosDifferential:
    def test_clean_corpus_identical(self, clean_src):
        assert _diff_corpus(clean_src) > 0

    @pytest.mark.parametrize("chaos_seed", [3, 11, 29])
    def test_corrupted_corpus_identical(
        self, clean_src, tmp_path, chaos_seed
    ):
        """Heavy chaos (20x calibrated rates) through both paths."""
        work = tmp_path / "work"
        shutil.copytree(clean_src, work)
        corrupt_artifacts(
            work, ChaosConfig.calibrated(seed=chaos_seed).scaled(20.0)
        )
        _diff_corpus(work)

    def test_prefilter_actually_skips_decodes(self, clean_src):
        """The bytes-first path must decode a small minority of lines
        (otherwise it silently degraded to the legacy path)."""
        inventory = Inventory.load(clean_src / "inventory.json")
        files = list_day_files(clean_src / "syslog")
        read = decoded = 0
        for path in files:
            scan = scan_day_file(path, inventory)
            read += scan.lines_read
            decoded += scan.lines_decoded
        assert read > 0
        assert decoded / read < 0.5, (
            f"decode ratio {decoded / read:.2f}: prefilter not effective"
        )
        slow = scan_day_file(files[0], inventory, force_decode=True)
        assert slow.lines_decoded == slow.lines_read


class TestAdversarialLines:
    def _scan_both(self, tmp_path, payload: bytes):
        path = tmp_path / "syslog-2022-01-01.log"
        path.write_bytes(payload)
        fast = scan_day_file(path, None)
        slow = scan_day_file(path, None, force_decode=True)
        _assert_scans_identical(fast, slow)
        return fast

    def test_handcrafted_nasties(self, tmp_path):
        """Torn lines, mid-rune cuts, NUL bytes, CRLF, clock steps,
        missing hosts, excluded/unknown XIDs, ECC lines, bursts."""
        lines = [
            # Clean XID line (analyzed class).
            b"2022-01-01T00:00:01.000000 node-1 kernel: NVRM: Xid "
            b"(PCI:0000:27:00): 79, GPU has fallen off the bus.",
            # Burst repeat of the same triple.
            b"2022-01-01T00:00:01.100000 node-1 kernel: NVRM: Xid "
            b"(PCI:0000:27:00): 79, GPU has fallen off the bus.",
            # Excluded and unknown XIDs.
            b"2022-01-01T00:00:02.000000 node-1 kernel: NVRM: Xid "
            b"(PCI:0000:27:00): 13, Graphics Exception",
            b"2022-01-01T00:00:03.000000 node-1 kernel: NVRM: Xid "
            b"(PCI:0000:27:00): 999, mystery",
            # ECC accounting line.
            b"2022-01-01T00:00:04.000000 node-2 kernel: NVRM: GPU at "
            b"PCI:0000:63:00: uncorrectable ECC error",
            # Clock step backwards (repair), then recovery.
            b"2022-01-01T00:00:01.500000 node-1 late: clock stepped",
            b"2022-01-01T00:00:05.000000 node-1 ok: monotonic again",
            # Torn write: embedded second timestamp.
            b"2022-01-01T00:00:06.000000 node-1 a 2022-01-01T00:00:07"
            b".000000 node-1 b",
            # Missing host (trailing-colon host field).
            b"2022-01-01T00:00:08.000000 kernel: NVRM: Xid "
            b"(PCI:0000:27:00): 79, orphan",
            # Mid-UTF-8 cut and raw garbage.
            b"2022-01-01T00:00:09.000000 node-1 msg: caf\xc3",
            b"\x00\xff\xfe garbage " + bytes(range(32)),
            # CRLF line ending and empty lines.
            b"2022-01-01T00:00:10.000000 node-1 crlf: fine\r",
            b"",
            b"   ",
            # Double space between fields (whitespace-run tolerance).
            b"2022-01-01T00:00:11.000000 node-1  doubled: NVRM: Xid "
            b"(PCI:0000:27:00): 79, spaced",
            # Non-canonical timestamp (short fraction).
            b"2022-01-01T00:00:12.5 node-1 short: fraction",
        ]
        fast = self._scan_both(tmp_path, b"\n".join(lines) + b"\n")
        assert len(fast.hits) > 0
        assert fast.rejected or fast.repaired

    def test_truncated_final_line(self, tmp_path):
        """A file cut mid-line (no trailing newline), even mid-rune."""
        payload = (
            b"2022-01-01T00:00:01.000000 node-1 kernel: NVRM: Xid "
            b"(PCI:0000:27:00): 79, ok\n"
            b"2022-01-01T00:00:02.000000 node-1 cut mid-rune caf\xc3"
        )
        fast = self._scan_both(tmp_path, payload)
        assert fast.lines_read == 2

    def test_byte_mutation_fuzz(self, tmp_path):
        """Deterministic fuzz: random single-byte flips, deletions and
        splices over a realistic line mix, both paths per mutation."""
        import random

        rng = random.Random(1337)
        base = bytearray()
        for i in range(200):
            t = f"2022-01-01T00:{i // 60:02d}:{i % 60:02d}.{i:06d}"
            if i % 7 == 0:
                base += (
                    f"{t} node-{i % 5} kernel: NVRM: Xid "
                    f"(PCI:0000:{i % 200:02X}:00): 79, fell off\n"
                ).encode()
            elif i % 13 == 0:
                base += (
                    f"{t} node-{i % 5} kernel: NVRM: GPU at "
                    f"PCI:0000:{i % 200:02X}:00: uncorrectable ECC error\n"
                ).encode()
            else:
                base += f"{t} node-{i % 5} daemon: routine message {i}\n".encode()
        for trial in range(25):
            mutated = bytearray(base)
            for _ in range(rng.randrange(1, 6)):
                kind = rng.randrange(3)
                pos = rng.randrange(len(mutated))
                if kind == 0:
                    mutated[pos] = rng.randrange(256)
                elif kind == 1:
                    del mutated[pos : pos + rng.randrange(1, 40)]
                else:
                    mutated[pos:pos] = bytes(
                        rng.randrange(256) for _ in range(rng.randrange(1, 8))
                    )
            self._scan_both(tmp_path, bytes(mutated))
