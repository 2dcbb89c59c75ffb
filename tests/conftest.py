"""Shared fixtures for the test suite.

The expensive fixture is ``small_run``: one complete small-scale study
simulation with on-disk artifacts, shared across the whole session.
Tests that need different configurations build their own runs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro import Cluster, DeltaStudy, StudyConfig
from repro.pipeline import HitColumns, run_pipeline, scan_day_file
from repro.sim.rng import RngRegistry
from repro.syslog.reader import list_day_files


@pytest.fixture()
def rng() -> np.random.Generator:
    """A deterministic generator for unit tests."""
    return np.random.default_rng(12345)


@pytest.fixture()
def rngs() -> RngRegistry:
    """A deterministic stream registry."""
    return RngRegistry(seed=12345)


@pytest.fixture()
def small_cluster() -> Cluster:
    """A small cluster with both node flavours."""
    return Cluster.small(four_way=4, eight_way=1, cpu=2)


@pytest.fixture(scope="session")
def raw_hits():
    """``raw_hits(syslog_dir, inventory=None)``: a directory's error hits
    before coalescing, as Stage II folds them — every deduplicated day
    scanned, its hits clamped to the watermark of the days before it."""

    def fold(syslog_dir: Path, inventory=None):
        hits = HitColumns()
        watermark = float("-inf")
        for path in list_day_files(syslog_dir, dedupe=True):
            scan = scan_day_file(path, inventory)
            hits.extend_clamped(scan.hits, watermark)
            if scan.local_max is not None:
                watermark = max(watermark, scan.local_max)
        return hits.to_hits()

    return fold


@pytest.fixture(scope="session")
def small_run(tmp_path_factory: pytest.TempPathFactory):
    """One complete small study run with on-disk artifacts.

    Returns ``(artifacts, pipeline_result)``; sessions share it, so
    tests must not mutate the returned objects.
    """
    out = tmp_path_factory.mktemp("small_run")
    config = StudyConfig.small(seed=42, include_episode=True, job_scale=0.03)
    artifacts = DeltaStudy(config).run(out)
    result = run_pipeline(out)
    return artifacts, result
