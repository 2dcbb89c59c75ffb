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
import random
import shutil

import pytest

from repro import DeltaStudy, StudyConfig
from repro.cluster.inventory import Inventory
from repro.pipeline.downtime import DowntimeExtractor
from repro.pipeline.extract import ExtractionStats
from repro.pipeline.recovery import RecoveryExtractor
from repro.pipeline.shard import (
    DayScan,
    HitColumns,
    merge_scan,
    scan_day_file,
    scan_plain_buffer,
)
from repro.syslog.chaos import ChaosConfig, corrupt_artifacts
from repro.syslog.quarantine import Quarantine
from repro.syslog.reader import list_day_files

#: The bytes-first scanner walks a buffer in line-aligned slices of at
#: most this many bytes; the slice-edge payloads below are laid out
#: against it.
SLICE_BYTES = 256 * 1024


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

    def test_clean_corpus_decodes_no_line(self, clean_src):
        """A pristine corpus is all canonical lines, its downtime and
        recovery marker lines included: none takes the decoded lane."""
        inventory = Inventory.load(clean_src / "inventory.json")
        scans = [
            scan_day_file(path, inventory)
            for path in list_day_files(clean_src / "syslog")
        ]
        assert any(scan.downtime_lines for scan in scans)
        for scan in scans:
            assert scan.lines_read > 0
            assert scan.lines_decoded == 0, scan.day


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

    @staticmethod
    def _line(i: int, second: float) -> bytes:
        """One realistic line: XID hits in bursts, ECC, downtime and
        routine lines, with a backwards clock step every 97 lines."""
        if i % 97 == 0:
            second -= 5.0
        stamp = f"2022-01-01T{int(second) // 3600:02d}:" \
            f"{int(second) // 60 % 60:02d}:{int(second) % 60:02d}." \
            f"{int(second * 1e6) % 1_000_000:06d}"
        host = f"gpua{i % 7:03d}"
        if i % 5 < 3:
            return (
                f"{stamp} {host} kernel: NVRM: Xid (PCI:0000:"
                f"{(i // 5) % 3 * 64 + 7:02X}:00): {(79, 31, 48, 13)[i % 4]}, "
                f"pid={i}, burst line\n"
            ).encode()
        if i % 41 == 3:
            return (
                f"{stamp} {host} kernel: NVRM: GPU at PCI:0000:07:00: "
                f"uncorrectable ECC error\n"
            ).encode()
        if i % 23 == 4:
            return f"{stamp} {host} healthcheck: node {host} down\n".encode()
        return f"{stamp} {host} daemon: routine message {i}\n".encode()

    def _corpus_bytes(self, size: int) -> bytes:
        out = bytearray()
        i = 0
        while len(out) < size:
            out += self._line(i, 10.0 + i * 0.25)
            i += 1
        return bytes(out)

    def test_lines_across_slice_edges(self, tmp_path):
        """A file of several slices: lines, bursts, clock steps and
        capped samples all straddle each slice edge."""
        payload = self._corpus_bytes(3 * SLICE_BYTES + 12_345)
        for edge in range(SLICE_BYTES, len(payload), SLICE_BYTES):
            assert payload[edge - 1 : edge + 1].count(b"\n") == 0
        fast = self._scan_both(tmp_path, payload)
        assert len(fast.hits) > 0
        assert fast.downtime_lines
        assert len(fast.events) == Quarantine.DEFAULT_SAMPLE_LIMIT
        assert fast.repaired

    @pytest.mark.parametrize("ending", [b"\r\n", b"\r"])
    @pytest.mark.parametrize("shift", [0, 1, 2])
    def test_carriage_return_at_slice_edge(self, tmp_path, ending, shift):
        """A ``\\r`` as the last byte of a slice: with ``shift`` 0 and a
        CRLF ending, its ``\\n`` is the first byte of the next slice."""
        head = self._corpus_bytes(SLICE_BYTES - 400)
        filler = SLICE_BYTES - 1 - shift - len(head)
        line = (
            b"2022-01-01T09:00:00.000000 gpua001 kernel: NVRM: Xid "
            b"(PCI:0000:07:00): 79, edge "
        )
        line += b"x" * (filler - len(line))
        payload = head + line + ending + self._corpus_bytes(4_000)
        assert payload[SLICE_BYTES - 1 - shift] == 0x0D
        fast = self._scan_both(tmp_path, payload)
        assert fast.lines_read == payload.count(b"\n") + (
            0 if ending == b"\r\n" else 1
        )

    def test_line_longer_than_a_slice(self, tmp_path):
        payload = (
            self._corpus_bytes(5_000)
            + b"2022-01-01T09:00:00.000000 gpua001 kernel: NVRM: Xid "
            + b"(PCI:0000:07:00): 79, "
            + b"y" * (SLICE_BYTES + 777)
            + b"\n"
            + b"z" * (2 * SLICE_BYTES)
            + b"\n"
            + self._corpus_bytes(5_000)
        )
        fast = self._scan_both(tmp_path, payload)
        assert fast.rejected

    def test_empty_file(self, tmp_path):
        fast = self._scan_both(tmp_path, b"")
        assert fast.lines_read == 0
        assert fast.local_max is None

    @pytest.mark.parametrize(
        "payload", [b"\n", b"\n" * 3000, b"\r\n\r\r\n\n\r", b"\n\n"]
    )
    def test_blank_lines_only(self, tmp_path, payload):
        fast = self._scan_both(tmp_path, payload)
        assert fast.lines_read > 0
        assert fast.parsed_lines == 0

    # -- bursts: lines whose first 64 bytes after the timestamp repeat
    # the line before them --------------------------------------------

    #: An XID line with its host, "NVRM:", shape and "," inside the 64
    #: bytes after the timestamp (its 66 bytes continue past them).
    BURST = b"gpua001 kernel: NVRM: Xid (PCI:0000:07:00): 79, GPU has fallen off"

    @staticmethod
    def _stamp(second: float) -> bytes:
        return (
            f"2022-01-01T{int(second) // 3600:02d}:{int(second) // 60 % 60:02d}:"
            f"{int(second) % 60:02d}.{int(second * 1e6) % 1_000_000:06d}"
        ).encode()

    def _stamped(self, messages, ending=b"\n", start=10.0, step=0.25) -> bytes:
        """One line per message (host and message), ``step`` seconds
        apart but for a 5 s clock step back every seventh line."""
        return b"".join(
            self._stamp(start + i * step - (5.0 if i % 7 == 6 else 0.0))
            + b" " + message + ending
            for i, message in enumerate(messages)
        )

    @staticmethod
    def _slice_edges(payload: bytes):
        """Where the scanner cuts an LF-only payload into slices."""
        edges, start = [], 0
        while start + SLICE_BYTES < len(payload):
            start = payload.rfind(b"\n", start, start + SLICE_BYTES) + 1
            edges.append(start)
        return edges

    def test_repeats_that_differ_past_the_prefix(self, tmp_path):
        """Runs whose later lines differ from the first only after the
        64 bytes: another pid, a second "NVRM:", an odd byte, a torn
        shape, a marker.  Run heads of every kind: a hit, an excluded,
        an unknown and a malformed XID, an ECC line, a plain line and a
        first "NVRM:" that does not parse."""
        heads = [
            self.BURST,
            self.BURST.replace(b": 79,", b": 13,"),
            self.BURST.replace(b": 79,", b": 999,"),
            self.BURST.replace(b"07:00", b"0G:00"),
            b"gpua002 kernel: NVRM: GPU at PCI:0000:46:00: uncorrectable ECC error",
            b"gpua003 daemon: a routine message that runs past the sixty-four bytes",
            b"gpua004 kernel: NVRM: Xid (PCI:0000:07:00) 79 lacks its colon and comma",
        ]
        tails = [
            b" the bus.",
            b" the bus, pid=1234",
            b" the bus, pid=5678",
            b" NVRM: Xid (PCI:0000:46:00): 48, a second marker",
            b" NVRM: GPU at PCI:0000:46:00: uncorrectable ECC error",
            b" an odd \x85 byte",
            b" a\ttab",
            b" 2022-01-01T00:00:07.000000 gpua005 torn",
            b" healthcheck: node gpua001 out of service cause=x kind=reset",
            b" gangd: job 12 restarted",
            b"",
        ]
        for head in heads:
            assert len(head) >= 64
        messages = [head + tail for head in heads for tail in tails]
        fast = self._scan_both(tmp_path, self._stamped(messages))
        assert len(fast.hits) > 0
        assert fast.downtime_lines
        assert fast.lines_decoded < fast.lines_read

    @pytest.mark.parametrize("host_len", [16, 17, 23, 24, 25, 26, 60])
    def test_run_head_comma_at_or_past_the_prefix(self, tmp_path, host_len):
        """The code's "," lies ``host_len + 37 + len(code)`` bytes after
        the timestamp: inside the 64 bytes for a two-digit code up to a
        24-byte host, past them from 25 bytes on, where lines of one run
        can differ in their code (79 and 799, 48 and 481)."""
        host = (b"gpu" + b"x" * host_len)[:host_len]
        messages = [
            host + b" kernel: NVRM: Xid (PCI:0000:07:00): " + code
            + b", GPU has fallen off the bus" + tail
            for code in (b"79", b"799", b"79", b"13", b"48", b"481", b"48")
            for tail in (b".", b", pid=2", b" NVRM: Xid (PCI:0000:46:00): 31, x")
        ]
        fast = self._scan_both(tmp_path, self._stamped(messages))
        assert len(fast.hits) == 4 * 3

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"])
    def test_repeats_shorter_than_the_prefix(self, tmp_path, ending):
        """Lines whose 64 bytes after the timestamp reach into the next
        line: equal only when the next lines start alike too."""
        short = b"gpua001 kernel: NVRM: Xid (PCI:0000:07:00): 79,"
        messages = (
            [short] * 5
            + [short + b" then a tail that runs past the sixty-four bytes"]
            + [short] * 3
            + [short + b" pid=1"] * 3
            + [short.replace(b": 79,", b": 31,")] * 3
            + [b"gpua002 kernel: NVRM: GPU at PCI:0000:46:00: uncorrectable ECC error"] * 3
        )
        fast = self._scan_both(tmp_path, self._stamped(messages, ending=ending))
        assert len(fast.hits) == len(messages)
        assert fast.lines_decoded == 0

    def test_runs_cut_at_slice_edges(self, tmp_path):
        """A run of XID lines, one of ECC lines and one of marker lines
        each straddle a slice edge."""
        runs = [
            self.BURST + b" the bus.",
            b"gpua002 kernel: NVRM: GPU at PCI:0000:46:00: uncorrectable ECC error",
            b"gpua003 healthcheck: node gpua003 out of service cause=x kind=reset",
        ]
        payload = b""
        for i, message in enumerate(runs):
            payload += self._corpus_bytes((i + 1) * SLICE_BYTES - 3_000 - len(payload))
            payload += self._stamped([message] * 80, start=9_000.0 + i, step=0.001)
        payload += self._corpus_bytes(5_000)
        edges = self._slice_edges(payload)
        assert len(edges) == 3
        for edge, message in zip(edges, runs):
            before = payload.rfind(b"\n", 0, edge - 1) + 1
            after = payload.find(b"\n", edge)
            assert payload[before + 27 : edge - 1] == message
            assert payload[edge + 27 : after] == message
        fast = self._scan_both(tmp_path, payload)
        assert len(fast.hits) > 0
        assert fast.downtime_lines
        assert fast.lines_decoded == 0

    #: Marker lines: canonical ones take the array lane, the others the
    #: decoded one (no host, doubled space, non-ASCII, a tab, a torn
    #: shape, an "NVRM:" on the line); a few look like markers and are
    #: not.
    MARKER_LINES = [
        b"gpua001 healthcheck: node gpua001 out of service cause=mmu_error kind=reset",
        b"gpua001 healthcheck: node gpua001 returned to service",
        b"gpua002 gangd: job 1001 restart from checkpoint",
        b"gpua002 gangd: job 1001 recovered in 42s",
        b"gpua003 healthcheck: node gpua003 returned to service  ",
        b"gpua003 nothealthcheck: node gpua003 marker inside a word",
        b"gpua004  healthcheck: node gpua004 out of service cause=x kind=reset",
        b"healthcheck: node gpua004 returned to service",
        b"gpua005 healthcheck: node gpua005 d\xc3\xa9j\xc3\xa0 out of service",
        b"gpua005 healthcheck: node\tgpua005 returned to service",
        b"gpua006 healthcheck: node gpua006 2022-01-01T00:00:07.000000 torn",
        b"gpua006 healthcheck: node gpua006 NVRM: Xid (PCI:0000:07:00): 79, both",
        b"gpua007 kernel: NVRM: Xid (PCI:0000:07:00): 79, gangd: job 7 after it",
        b"gpua007 gangd: job 8 NVRM: GPU at PCI:0000:07:00: uncorrectable ECC error",
        b"gpua008 healthcheck:  node a doubled space is no marker",
        b"gpua008 gangd: job",
    ]

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n"])
    def test_marker_lines(self, tmp_path, ending):
        """Each marker line twice in a row, among routine lines, with
        clock steps; plus one with a malformed timestamp."""
        messages = []
        for marker in self.MARKER_LINES:
            messages += [b"gpua009 daemon: routine", marker, marker]
        payload = self._stamped(messages, ending=ending)
        payload += (
            b"2022-13-01T00:00:01.000000 gpua001 healthcheck: node gpua001 "
            b"returned to service" + ending
        )
        fast = self._scan_both(tmp_path, payload)
        assert len(fast.downtime_lines) == 2 * 11
        assert fast.hits
        assert 0 < fast.lines_decoded < fast.lines_read

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n"])
    @pytest.mark.parametrize("shift", [0, 1])
    def test_marker_lines_at_slice_edge(self, tmp_path, ending, shift):
        """A canonical marker line ends a slice (its terminator's first
        byte is the slice's last, or the one before it); marker lines
        of both lanes start the next slice."""
        head = self._corpus_bytes(SLICE_BYTES - 400)
        line = self._stamp(9_000.0) + b" gpua001 healthcheck: node gpua001 returned "
        line += b"x" * (SLICE_BYTES - 1 - shift - len(head) - len(line))
        payload = (
            head
            + line
            + ending
            + self._stamped(self.MARKER_LINES, ending=ending, start=9_001.0)
            + self._corpus_bytes(4_000)
        )
        assert payload[SLICE_BYTES - 1 - shift] == ending[0]
        fast = self._scan_both(tmp_path, payload)
        assert fast.downtime_lines


def _fold(scans):
    """Merge ``scans`` in order into fresh run-global accumulators."""
    quarantine = Quarantine()
    stats = ExtractionStats()
    downtime = DowntimeExtractor()
    recovery = RecoveryExtractor()
    hits = HitColumns()
    watermark = float("-inf")
    lines = parsed = 0
    for scan in scans:
        watermark = merge_scan(
            scan, watermark, quarantine, stats, downtime, hits, recovery
        )
        lines += scan.lines_read
        parsed += scan.parsed_lines
    return {
        "watermark": watermark,
        "lines": lines,
        "parsed": parsed,
        "rejected": dict(quarantine.rejected),
        "repaired": dict(quarantine.repaired),
        "samples": list(quarantine.samples),
        "stats": stats,
        "downtime": downtime.finish(),
        "recovery": recovery.finish(),
        "hits": hits,
    }


class TestScanPlainBuffer:
    """Folding the scans of a day file's pieces equals folding the
    scan of the whole file — the contract the stream ingest rests on."""

    @staticmethod
    def _pieces(data: bytes, rng: random.Random):
        cuts = sorted(
            {
                data.find(b"\n", rng.randrange(len(data))) + 1
                for _ in range(rng.randrange(1, 12))
            }
            - {0}
        )
        bounds = [0] + cuts + [len(data)]
        return [data[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]

    def _check(self, artifact_dir, seed):
        inventory = Inventory.load(artifact_dir / "inventory.json")
        files = [
            p
            for p in list_day_files(artifact_dir / "syslog")
            if not p.name.endswith(".gz")
        ]
        rng = random.Random(seed)
        for path in rng.sample(files, min(4, len(files))):
            data = path.read_bytes()
            whole = _fold([scan_plain_buffer(data, "", inventory)])
            for _ in range(3):
                pieces = self._pieces(data, rng)
                assert b"".join(pieces) == data
                folded = _fold(
                    [scan_plain_buffer(p, "", inventory) for p in pieces]
                )
                assert folded == whole

    def test_clean_day_files(self, clean_src):
        self._check(clean_src, seed=5)

    def test_corrupted_day_files(self, clean_src, tmp_path):
        work = tmp_path / "work"
        shutil.copytree(clean_src, work)
        corrupt_artifacts(work, ChaosConfig.calibrated(seed=7).scaled(20.0))
        self._check(work, seed=6)
