"""Online estimators and alerts on a real corpus, poll by poll.

A tenant folds each poll's completed errors into its
:class:`~repro.stream.estimators.FleetEstimators` and
:class:`~repro.stream.alerts.AlertEngine`.  The reference here feeds
the very same errors, in completion order, through ``observe_error``
one at a time.  The seed-7 ``small`` corpus (the benchmark's ``serve``
input) is revealed in pieces that cut day files mid-line, and after
every poll the online snapshot, the alert-engine snapshot and the
alerts fired must equal the per-error path's, and all the snapshots
together must hash to what the per-error observers once produced.  A
core rebuilt from a checkpoint must show the same estimators as the
live core it replaces.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import DeltaStudy, StudyConfig
from repro.obs import MetricsRegistry
from repro.stream import AlertEngine, FleetEstimators, TenantRuntime, TenantSpec

#: Polls over the whole corpus (the drain comes after them).
STEPS = 40

#: sha256 over every poll's estimator and alert-engine snapshots, as
#: the per-error observers (``observe_error`` per completed error, in
#: completion order) produced them on this corpus and schedule.
SNAPSHOTS_SHA256 = "96d838b03860144dbf04b6190ce6cedec7a246ca76375e2380af2c5b2b350b87"


@pytest.fixture(scope="module")
def seed7(tmp_path_factory):
    """``repro simulate --preset small --seed 7 --job-scale 0.01``."""
    out = tmp_path_factory.mktemp("seed7") / "run"
    config = StudyConfig.small(seed=7, include_episode=True, job_scale=0.01)
    DeltaStudy(config).run(out)
    return out


class _Reveal:
    """Copies a corpus into a followed directory a byte range at a time.

    Day files are created in order, and each is complete before the
    next one appears, as a rotating syslog writes them.
    """

    def __init__(self, source: Path, live: Path) -> None:
        self.files = [
            (path.name, path.read_bytes())
            for path in sorted((source / "syslog").glob("syslog-*.log"))
        ]
        self.total = sum(len(blob) for _, blob in self.files)
        self.live = live / "syslog"
        self.live.mkdir(parents=True)
        (live / "inventory.json").write_bytes(
            (source / "inventory.json").read_bytes()
        )
        self.index = self.offset = self.written = 0

    def upto(self, target: int) -> None:
        while self.written < target:
            name, blob = self.files[self.index]
            end = min(len(blob), self.offset + target - self.written)
            with open(self.live / name, "ab") as handle:
                handle.write(blob[self.offset:end])
            self.written += end - self.offset
            self.offset = end
            if end == len(blob):
                self.index, self.offset = self.index + 1, 0


class _Reference:
    """The per-error path, fed each poll's completed errors in order."""

    def __init__(self) -> None:
        self.estimators = FleetEstimators()
        self.alerts = AlertEngine()

    def fold(self, errors, watermark):
        for error in errors:
            self.estimators.observe_error(error)
            self.alerts.observe_error(error)
        self.estimators.advance(watermark)
        return self.alerts.evaluate(watermark)


def _spy(ingest, name, outcomes):
    """Record every outcome ``ingest.<name>()`` returns."""
    method = getattr(ingest, name)

    def spy(*args, **kwargs):
        outcome = method(*args, **kwargs)
        outcomes.append(outcome)
        return outcome

    setattr(ingest, name, spy)


def _runtime(live: Path, tmp_path: Path) -> TenantRuntime:
    spec = TenantSpec(
        name="seed7", follow_dir=live, checkpoint_dir=tmp_path / "ckpt"
    )
    return TenantRuntime(spec, MetricsRegistry())


def test_every_poll_matches_the_per_error_path(seed7, tmp_path):
    live = tmp_path / "live"
    reveal = _Reveal(seed7, live)
    runtime = _runtime(live, tmp_path)
    core = runtime.core
    reference = _Reference()
    outcomes = []
    digest = hashlib.sha256()
    _spy(core.ingest, "poll", outcomes)
    for step in range(STEPS + 1):
        final = step == STEPS
        if final:
            del core.ingest.poll
            _spy(core.ingest, "drain", outcomes)
        else:
            reveal.upto(reveal.total * (step + 1) // STEPS)
        fired_before = len(core.alerts.history)
        runtime.poll_once(final=final)
        (outcome,) = outcomes
        outcomes.clear()
        fired = reference.fold(list(outcome.completed), core.ingest.watermark)
        assert runtime.core is core
        assert core.alerts.history[fired_before:] == fired, step
        assert core.estimators.snapshot() == reference.estimators.snapshot(), step
        assert core.alerts.snapshot() == reference.alerts.snapshot(), step
        snapshots = [reference.estimators.snapshot(), reference.alerts.snapshot()]
        digest.update(json.dumps(snapshots, sort_keys=True).encode())
    assert core.ingest.drained
    assert digest.hexdigest() == SNAPSHOTS_SHA256
    assert reference.estimators.total_errors == len(core.ingest.errors()) > 20000
    assert len(reference.alerts.history) > 0


def test_rebuilt_core_matches_the_live_core(seed7, tmp_path):
    live = tmp_path / "live"
    reveal = _Reveal(seed7, live)
    runtime = _runtime(live, tmp_path)
    for step in range(3):
        reveal.upto(reveal.total * (step + 1) // 5)
        runtime.poll_once()
    assert runtime.checkpoint() is not None
    before = runtime.core
    assert before.ingest.coalescer.open_groups > 0
    runtime.rebuild()
    after = runtime.core
    assert after is not before
    assert after.ingest.watermark == before.ingest.watermark
    assert after.estimators.snapshot() == before.estimators.snapshot()
    assert after.alerts.active_count() == before.alerts.active_count()
    assert after.ingest.errors() == before.ingest.errors()
