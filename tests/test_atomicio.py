"""File modes of atomically written artifacts.

An atomic write creates a temporary file and renames it over the
destination, so the temporary file's mode becomes the artifact's.  It
must be created like any other file, with the process umask deciding
its mode, not a fixed 0600: another account that can read a corpus
must be able to read its inventory and replay its scan cache.
"""

import os
import stat
from contextlib import contextmanager

import pytest

from repro.core.atomicio import atomic_write_json
from repro.pipeline import SCAN_CACHE_DIRNAME, run_pipeline
from repro.study import DeltaStudy, StudyConfig


@contextmanager
def umask(mask: int):
    previous = os.umask(mask)
    try:
        yield
    finally:
        os.umask(previous)


def mode(path) -> int:
    return stat.S_IMODE(path.stat().st_mode)


class TestModesFollowUmask:
    @pytest.mark.parametrize("mask, expected", [(0o022, 0o644), (0o077, 0o600)])
    def test_atomic_write_json(self, tmp_path, mask, expected):
        path = tmp_path / "doc.json"
        with umask(mask):
            atomic_write_json(path, {"a": 1})
            atomic_write_json(path, {"a": 2})
        assert mode(path) == expected
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_study_artifacts_and_scan_cache_entries(self, tmp_path):
        out = tmp_path / "run"
        config = StudyConfig.small(seed=11, pre_days=1.0, op_days=5.0, job_scale=0.01)
        with umask(0o022):
            DeltaStudy(config).run(out)
            result = run_pipeline(out, workers=1, scan_cache=True)
        entries = sorted((out / SCAN_CACHE_DIRNAME).iterdir())
        assert entries and len(entries) == result.scan.cache_stores
        written = [out / "inventory.json", out / "result.json", *entries]
        assert {p.name: mode(p) for p in written} == {p.name: 0o644 for p in written}
