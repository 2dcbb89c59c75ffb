"""Differential tests: ``coalesce_columns`` against the boxed reference.

``coalesce_columns`` coalesces a columnar hit store without building an
``ErrorHit`` per raw line; ``coalesce(cols.to_hits(), ...)`` is the
reference it must equal list for list — same errors, same fields, same
order, including the tie order between errors that share a first time
(completions in push order, then flushed groups, then one stable time
sort).  The columns below are seeded random streams built to hit every
tie the ordering rule has to break.
"""

import random

import pytest

from repro.core.xid import EventClass
from repro.pipeline.coalesce import WindowMode, coalesce, coalesce_columns
from repro.pipeline.shard import HitColumns

NODES = ("gpua001", "gpua002", "gpub010")
PCIS = ("0000:07:00", "0000:46:00", "0000:85:00")
CLASSES = (EventClass.MMU_ERROR, EventClass.NVLINK_ERROR, EventClass.DBE)
XIDS = (31, 48, 74, -1)

MODES = (WindowMode.TUMBLING, WindowMode.SLIDING)
WINDOWS = (0.0, 30.0)


def _random_columns(seed: int, n: int, jitter: bool = False) -> HitColumns:
    """``n`` hits in non-decreasing time order, in bursts.

    Steps of zero give equal times within and across keys, steps of
    exactly 30 s land on a tumbling boundary, and about one hit in
    five has an unresolved GPU (``-1``), so it is keyed by its PCI
    address.  With ``jitter`` a few steps go back by less than the
    coalescer's 1e-9 s ordering tolerance.
    """
    rng = random.Random(seed)
    cols = HitColumns()
    t = 1000.0
    for _ in range(n):
        step = rng.choice((0.0, 0.0, 0.5, 7.5, 29.999, 30.0, 30.0, 45.0, 400.0))
        t += step
        if jitter and rng.random() < 0.1:
            t -= 4e-10
        cols.append_fields(
            t,
            rng.choice(NODES),
            rng.choice((0, 1, 2, 3, -1)),
            rng.choice(PCIS),
            rng.choice(CLASSES).value,
            rng.choice(XIDS),
        )
    return cols


def _columns(rows) -> HitColumns:
    cols = HitColumns()
    for t, node, gpu, pci, cls, xid in rows:
        cols.append_fields(t, node, gpu, pci, cls.value, xid)
    return cols


def _assert_matches_reference(cols, window, mode):
    expected = coalesce(cols.to_hits(), window, mode)
    assert coalesce_columns(cols, window, mode) == expected
    return expected


class TestAgainstReference:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("seed", range(6))
    def test_random_bursts(self, seed, window, mode):
        cols = _random_columns(seed, 400)
        errors = _assert_matches_reference(cols, window, mode)
        assert errors

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("window", WINDOWS)
    def test_steps_back_within_tolerance(self, window, mode):
        cols = _random_columns(99, 400, jitter=True)
        _assert_matches_reference(cols, window, mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("window", WINDOWS)
    def test_empty(self, window, mode):
        assert coalesce_columns(HitColumns(), window, mode) == []

    @pytest.mark.parametrize("mode", MODES)
    def test_completed_and_flushed_groups_share_a_first_time(self, mode):
        mmu = EventClass.MMU_ERROR
        cols = _columns(
            [
                # Key B opens at 0 and is flushed at the end.
                (0.0, "gpua002", 1, "0000:46:00", mmu, 31),
                # Key A opens at 0; its hit at 30 completes that group.
                (0.0, "gpua001", 0, "0000:07:00", mmu, 31),
                (30.0, "gpua001", 0, "0000:07:00", mmu, 31),
                # Two unresolved GPUs on one node, keyed by PCI.
                (30.0, "gpua001", -1, "0000:85:00", mmu, 31),
                (30.0, "gpua001", -1, "0000:46:00", mmu, 48),
                (60.0, "gpua001", -1, "0000:85:00", mmu, 31),
            ]
        )
        errors = _assert_matches_reference(cols, 30.0, mode)
        assert [e.time for e in errors] == sorted(e.time for e in errors)

    @pytest.mark.parametrize("mode", MODES)
    def test_unresolved_gpus_keyed_by_pci(self, mode):
        mmu = EventClass.MMU_ERROR
        cols = _columns(
            [
                (0.0, "gpua001", -1, "0000:07:00", mmu, 31),
                (1.0, "gpua001", -1, "0000:46:00", mmu, 31),
                (2.0, "gpua001", -1, "0000:07:00", mmu, 31),
                (3.0, "gpua001", 0, "0000:07:00", mmu, 31),
            ]
        )
        errors = _assert_matches_reference(cols, 30.0, mode)
        assert len(errors) == 3


class TestOrdering:
    @pytest.mark.parametrize("mode", MODES)
    def test_out_of_order_error_text(self, mode):
        mmu = EventClass.MMU_ERROR
        cols = _columns(
            [
                (10.0, "gpua001", 0, "0000:07:00", mmu, 31),
                (12.5, "gpua002", 1, "0000:46:00", mmu, 31),
                (12.0, "gpua001", 0, "0000:07:00", mmu, 31),
            ]
        )
        with pytest.raises(ValueError) as reference:
            coalesce(cols.to_hits(), 30.0, mode)
        with pytest.raises(ValueError) as columnar:
            coalesce_columns(cols, 30.0, mode)
        assert str(columnar.value) == str(reference.value)
        assert str(columnar.value) == "hits out of order: 12.0 after 12.5"

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="window must be non-negative"):
            coalesce_columns(HitColumns(), -1.0)
