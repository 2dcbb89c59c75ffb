"""Replay-identity tests: streaming ingest must reproduce batch exactly.

The contract under test (DESIGN §12): a drained streaming pass over a
finished syslog directory — however the bytes arrived, in whatever
poll-sized pieces, with or without kill/resume in the middle — yields
the same coalesced errors, downtime episodes, quarantine accounting,
and (byte-identical) fleet-report JSON as one batch
:func:`~repro.pipeline.run.run_pipeline` pass, chaos-corrupted input
included.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import DeltaStudy, StudyConfig
from repro.cluster.inventory import Inventory
from repro.pipeline import run_pipeline
from repro.stream import StreamIngest, fleet_report, infer_stream_window
from repro.syslog.chaos import ChaosConfig, corrupt_artifacts

HEALTH_FIELDS = (
    "lines_read",
    "parsed_lines",
    "quarantined",
    "repaired",
    "file_incidents",
    "days_present",
    "days_missing",
)


def assert_identical(stream_result, batch_result, samples="exact"):
    """Field-for-field comparison of a drained stream vs a batch pass."""
    assert stream_result.errors == batch_result.errors
    assert stream_result.downtime == batch_result.downtime
    assert stream_result.raw_hits == batch_result.raw_hits
    assert vars(stream_result.extraction_stats) == vars(
        batch_result.extraction_stats
    )
    sh, bh = stream_result.health, batch_result.health
    for name in HEALTH_FIELDS:
        assert getattr(sh, name) == getattr(bh, name), name
    if samples == "exact":
        assert sh.quarantine_samples == bh.quarantine_samples
    else:
        # Live arrival order may interleave file-incident samples
        # differently; the multiset must still match.
        assert sorted(sh.quarantine_samples) == sorted(bh.quarantine_samples)


@pytest.fixture(scope="module")
def chaos_run(tmp_path_factory):
    """A chaos-corrupted artifact dir plus its batch pipeline result."""
    out = tmp_path_factory.mktemp("stream_identity") / "run"
    config = StudyConfig.small(
        seed=41, include_episode=True, job_scale=0.005, op_days=25
    )
    DeltaStudy(config).run(out)
    corrupt_artifacts(out, ChaosConfig.calibrated(seed=3).scaled(20.0))
    batch = run_pipeline(out, load_jobs=False)
    return out, batch


def _inventory(artifact_dir):
    return Inventory.load(artifact_dir / "inventory.json")


class TestStaticDirectoryIdentity:
    def test_clean_run_identity(self, small_run):
        artifacts, batch = small_run
        artifact_dir = artifacts.output_dir
        ingest = StreamIngest(
            artifact_dir / "syslog", inventory=_inventory(artifact_dir)
        )
        ingest.drain()
        result = ingest.result()
        assert result.errors == batch.errors
        assert result.downtime == batch.downtime
        assert result.raw_hits == batch.raw_hits
        assert result.health.quarantine_samples == []

    def test_chaos_run_identity(self, chaos_run):
        artifact_dir, batch = chaos_run
        ingest = StreamIngest(
            artifact_dir / "syslog", inventory=_inventory(artifact_dir)
        )
        ingest.drain()
        assert_identical(ingest.result(), batch)

    def test_fleet_report_byte_identity(self, chaos_run):
        artifact_dir, batch = chaos_run
        ingest = StreamIngest(
            artifact_dir / "syslog", inventory=_inventory(artifact_dir)
        )
        ingest.drain()
        result = ingest.result()
        window = infer_stream_window(ingest.watermark)
        stream_json = json.dumps(
            fleet_report(result.errors, result.downtime, window),
            sort_keys=True,
        )
        batch_json = json.dumps(
            fleet_report(batch.errors, batch.downtime, window),
            sort_keys=True,
        )
        assert stream_json == batch_json


class TestIncrementalReplayIdentity:
    def _replay(self, src_dir, live_dir, inventory, rng, resume_every=None):
        """Copy day files over in arbitrary byte-sized chunks, polling
        (and optionally checkpoint/restoring) between appends."""
        live_sys = live_dir / "syslog"
        live_sys.mkdir(parents=True)
        ckpt = live_dir / "ckpt"
        ckpt.mkdir()
        ingest = StreamIngest(live_sys, inventory=inventory)
        polls = 0
        files = sorted(
            (src_dir / "syslog").iterdir(),
            key=lambda p: (p.name.split(".")[0], rng.random()),
        )
        for path in files:
            data = path.read_bytes()
            if path.name.endswith(".gz"):
                (live_sys / path.name).write_bytes(data)
                ingest.poll()
                continue
            with open(live_sys / path.name, "wb") as fh:
                pos = 0
                while pos < len(data):
                    step = rng.randint(1, 200_000)
                    fh.write(data[pos : pos + step])
                    fh.flush()
                    pos += step
                    ingest.poll()
                    polls += 1
                    if resume_every and polls % resume_every == 0:
                        # Kill/resume drill: persist, discard, rebuild.
                        ingest.checkpoint(ckpt)
                        ingest = StreamIngest.resume(
                            live_sys, ckpt, inventory=inventory
                        )
        ingest.drain()
        return ingest

    def test_chunked_appends_identity(self, chaos_run, tmp_path):
        src_dir, batch = chaos_run
        ingest = self._replay(
            src_dir, tmp_path / "live", _inventory(src_dir), random.Random(7)
        )
        assert_identical(ingest.result(), batch, samples="multiset")

    def test_kill_resume_identity_no_double_counting(
        self, chaos_run, tmp_path
    ):
        src_dir, batch = chaos_run
        ingest = self._replay(
            src_dir,
            tmp_path / "live",
            _inventory(src_dir),
            random.Random(11),
            resume_every=7,
        )
        assert_identical(ingest.result(), batch, samples="multiset")

    def test_mid_utf8_checkpoint_boundary(self, tmp_path):
        """A checkpoint between polls never tears a line or a rune."""
        live = tmp_path / "syslog"
        live.mkdir()
        ingest = StreamIngest(live)
        day = live / "syslog-2022-01-01.log"
        line = "2022-01-01T00:00:00.000000 gpua001 kernel: café message\n"
        data = line.encode("utf-8")
        # Split inside the two-byte UTF-8 sequence for é.
        cut = data.index(b"\xc3") + 1
        with open(day, "wb") as fh:
            fh.write(data[:cut])
            fh.flush()
            ingest.poll()
            state = ingest.to_state()
            ingest = StreamIngest.from_state(live, state)
            fh.write(data[cut:])
            fh.flush()
        ingest.drain()
        result = ingest.result()
        assert result.health.lines_read == 1
        assert result.health.parsed_lines == 1
        assert result.health.repaired == {}


class TestCheckpointSafety:
    def test_resume_against_wrong_directory_refuses(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        StreamIngest(a).checkpoint(ckpt)
        from repro.core.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            StreamIngest.resume(b, ckpt)

    def test_resume_without_checkpoint_returns_none(self, tmp_path):
        assert StreamIngest.resume(tmp_path, tmp_path / "missing") is None

    def test_damaged_checkpoint_raises(self, tmp_path):
        from repro.core.exceptions import ConfigurationError
        from repro.stream.ingest import CHECKPOINT_FILE

        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / CHECKPOINT_FILE).write_text("{not json")
        with pytest.raises(ConfigurationError):
            StreamIngest.resume(tmp_path, ckpt)

    def test_damaged_checkpoint_quarantined_not_deleted(self, tmp_path):
        """resume_or_quarantine moves the damage aside and starts fresh."""
        from repro.stream.ingest import CHECKPOINT_FILE

        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        damage = b'{"version": 1, "follower": {"files": [{"name": "tr'
        (ckpt / CHECKPOINT_FILE).write_bytes(damage)
        ingest, quarantined = StreamIngest.resume_or_quarantine(
            tmp_path, ckpt
        )
        assert ingest is None  # caller builds from scratch
        assert quarantined is not None
        assert quarantined.name == f"{CHECKPOINT_FILE}.corrupt-1"
        assert quarantined.read_bytes() == damage  # evidence preserved
        assert not (ckpt / CHECKPOINT_FILE).exists()
        # A second damaged checkpoint gets the next quarantine slot.
        (ckpt / CHECKPOINT_FILE).write_bytes(damage)
        _, second = StreamIngest.resume_or_quarantine(tmp_path, ckpt)
        assert second.name == f"{CHECKPOINT_FILE}.corrupt-2"

    def test_resume_or_quarantine_passes_through_good_checkpoint(
        self, tmp_path
    ):
        live = tmp_path / "syslog"
        live.mkdir()
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        StreamIngest(live).checkpoint(ckpt)
        ingest, quarantined = StreamIngest.resume_or_quarantine(live, ckpt)
        assert ingest is not None
        assert quarantined is None


#: Poll/checkpoint loop run as a subprocess so the parent can SIGKILL
#: it at arbitrary byte offsets — including mid-checkpoint-write.
_CHECKPOINT_LOOP = """\
import sys, time
from pathlib import Path
from repro.cluster.inventory import Inventory
from repro.stream import StreamIngest

live, ckpt, inv = (Path(arg) for arg in sys.argv[1:4])
inventory = Inventory.load(inv)
ingest = StreamIngest.resume(live, ckpt, inventory=inventory)
if ingest is None:
    ingest = StreamIngest(live, inventory=inventory)
while True:
    ingest.poll()
    ingest.checkpoint(ckpt)
    time.sleep(0.005)
"""


class TestSigkillCheckpointAtomicity:
    """SIGKILL a live poll/checkpoint loop, repeatedly, then prove
    the survivors: resume never sees a torn checkpoint (the atomic
    writer's contract) and the final drain still matches batch (no
    duplicated or dropped lines across any number of hard kills)."""

    def _spawn(self, script, live_sys, ckpt, inventory_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [
                sys.executable,
                str(script),
                str(live_sys),
                str(ckpt),
                str(inventory_path),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )

    def test_sigkill_mid_checkpoint_loop_identity(self, chaos_run, tmp_path):
        src_dir, batch = chaos_run
        live_sys = tmp_path / "live" / "syslog"
        live_sys.mkdir(parents=True)
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        script = tmp_path / "checkpoint_loop.py"
        script.write_text(_CHECKPOINT_LOOP)
        inventory_path = src_dir / "inventory.json"

        rng = random.Random(13)
        kills = 0
        proc = self._spawn(script, live_sys, ckpt, inventory_path)
        try:
            files = sorted(
                (src_dir / "syslog").iterdir(),
                key=lambda p: p.name.split(".")[0],
            )
            for path in files:
                data = path.read_bytes()
                if path.name.endswith(".gz"):
                    (live_sys / path.name).write_bytes(data)
                    continue
                with open(live_sys / path.name, "wb") as fh:
                    pos = 0
                    while pos < len(data):
                        step = rng.randint(50_000, 400_000)
                        fh.write(data[pos : pos + step])
                        fh.flush()
                        pos += step
                        if kills < 4 and rng.random() < 0.05:
                            # Let the loop poll/checkpoint a little,
                            # then kill it wherever it happens to be.
                            time.sleep(rng.uniform(0.02, 0.1))
                            proc.kill()
                            stderr = proc.communicate()[1]
                            assert proc.returncode == -9, (
                                "checkpoint loop died on its own "
                                f"(rc={proc.returncode}): "
                                f"{stderr.decode(errors='replace')}"
                            )
                            kills += 1
                            proc = self._spawn(
                                script, live_sys, ckpt, inventory_path
                            )
        finally:
            proc.kill()
            proc.wait()
        assert kills >= 2, "kill schedule never fired; adjust seed"

        # Resume from whatever checkpoint survived the last SIGKILL:
        # it must parse (atomicity) and must not double- or
        # under-count a single line (identity).
        ingest = StreamIngest.resume(
            live_sys, ckpt, inventory=_inventory(src_dir)
        )
        if ingest is None:
            ingest = StreamIngest(live_sys, inventory=_inventory(src_dir))
        ingest.drain()
        assert_identical(ingest.result(), batch, samples="multiset")


class TestServiceResumeIdentity:
    def test_service_kill_resume_matches_batch(self, chaos_run, tmp_path):
        """Drive the full service through a kill/resume cycle."""
        from repro.stream import MultiTenantService, TenantSpec

        src_dir, batch = chaos_run
        live = tmp_path / "live"
        live_sys = live / "syslog"
        live_sys.mkdir(parents=True)
        shutil.copy(src_dir / "inventory.json", live / "inventory.json")
        ckpt = tmp_path / "ckpt"
        days = sorted(
            (src_dir / "syslog").iterdir(), key=lambda p: p.name.split(".")[0]
        )
        half = len(days) // 2
        for path in days[:half]:
            shutil.copy(path, live_sys / path.name)

        # First service instance: ingest the first half, then "die"
        # after a checkpoint (simulating SIGKILL between polls).
        first = MultiTenantService(
            [TenantSpec("default", live, checkpoint_dir=ckpt)],
            port=None,
            poll_interval=0.01,
        ).runtimes[0]
        first.poll_once()
        first.checkpoint()

        for path in days[half:]:
            shutil.copy(path, live_sys / path.name)
        second = MultiTenantService(
            [TenantSpec("default", live, checkpoint_dir=ckpt)],
            port=None,
            resume=True,
            once=True,
            poll_interval=0.01,
        )
        assert second.run(install_signals=False) == 0
        ingest = second.runtimes[0].core.ingest
        result = ingest.result()
        assert_identical(result, batch, samples="multiset")
        # No double counting across the restart.
        assert ingest.lines_read == batch.health.lines_read
