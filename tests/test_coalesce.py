"""Unit + property tests for error coalescing (repro.pipeline.coalesce)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.xid import EventClass
from repro.pipeline.coalesce import ErrorCoalescer, WindowMode, coalesce
from repro.pipeline.extract import ErrorHit


def hit(time, node="gpua001", gpu=0, event=EventClass.MMU_ERROR, xid=31):
    return ErrorHit(
        time=time,
        node=node,
        gpu_index=gpu,
        pci_address="0000:07:00",
        event_class=event,
        xid=xid,
    )


class TestTumblingWindow:
    def test_duplicates_within_window_merge(self):
        errors = coalesce([hit(0.0), hit(5.0), hit(29.9)], window_seconds=30.0)
        assert len(errors) == 1
        assert errors[0].raw_line_count == 3
        assert errors[0].time == 0.0
        assert errors[0].last_time == pytest.approx(29.9)

    def test_hit_after_window_opens_new_error(self):
        errors = coalesce([hit(0.0), hit(30.0)], window_seconds=30.0)
        assert len(errors) == 2

    def test_window_anchored_at_first_hit(self):
        # 0, 25, 50: tumbling merges (0,25), then 50 opens a new error.
        errors = coalesce([hit(0.0), hit(25.0), hit(50.0)], window_seconds=30.0)
        assert len(errors) == 2
        assert errors[0].raw_line_count == 2

    def test_persistent_stream_counts_one_per_window(self):
        # A hit every 10 s for 10 minutes: tumbling yields 1 per 30 s.
        hits = [hit(t) for t in range(0, 600, 10)]
        errors = coalesce(hits, window_seconds=30.0)
        assert len(errors) == 20


class TestSlidingWindow:
    def test_persistent_stream_collapses_to_one(self):
        hits = [hit(float(t)) for t in range(0, 600, 10)]
        errors = coalesce(hits, window_seconds=30.0, mode=WindowMode.SLIDING)
        assert len(errors) == 1
        assert errors[0].raw_line_count == 60

    def test_gap_larger_than_window_splits(self):
        errors = coalesce(
            [hit(0.0), hit(20.0), hit(100.0)],
            window_seconds=30.0,
            mode=WindowMode.SLIDING,
        )
        assert len(errors) == 2


class TestIdentity:
    def test_different_gpus_not_merged(self):
        errors = coalesce([hit(0.0, gpu=0), hit(1.0, gpu=1)])
        assert len(errors) == 2

    def test_different_nodes_not_merged(self):
        errors = coalesce([hit(0.0, node="gpua001"), hit(1.0, node="gpua002")])
        assert len(errors) == 2

    def test_different_classes_not_merged(self):
        errors = coalesce(
            [
                hit(0.0, event=EventClass.MMU_ERROR, xid=31),
                hit(1.0, event=EventClass.NVLINK_ERROR, xid=74),
            ]
        )
        assert len(errors) == 2

    def test_unresolved_gpu_falls_back_to_pci(self):
        a = ErrorHit(0.0, "gpua001", None, "0000:07:00", EventClass.MMU_ERROR, 31)
        b = ErrorHit(1.0, "gpua001", None, "0000:46:00", EventClass.MMU_ERROR, 31)
        c = ErrorHit(2.0, "gpua001", None, "0000:07:00", EventClass.MMU_ERROR, 31)
        errors = coalesce([a, b, c])
        assert len(errors) == 2  # two PCI addresses → two errors


class TestStreamingApi:
    def test_push_returns_completed_groups(self):
        coalescer = ErrorCoalescer(window_seconds=30.0)
        assert coalescer.push(hit(0.0)) is None
        assert coalescer.push(hit(10.0)) is None
        done = coalescer.push(hit(40.0))
        assert done is not None and done.raw_line_count == 2
        remaining = coalescer.flush()
        assert len(remaining) == 1

    def test_out_of_order_input_rejected(self):
        coalescer = ErrorCoalescer()
        coalescer.push(hit(10.0))
        with pytest.raises(ValueError, match="out of order"):
            coalescer.push(hit(5.0))

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            ErrorCoalescer(window_seconds=-1.0)


class TestZeroWindow:
    def test_zero_window_counts_every_hit(self):
        hits = [hit(float(t)) for t in (0, 0.5, 1, 1.5)]
        errors = coalesce(hits, window_seconds=0.0)
        assert len(errors) == 4


@st.composite
def hit_streams(draw):
    times = draw(
        st.lists(
            st.floats(min_value=0, max_value=5000, allow_nan=False),
            min_size=1,
            max_size=60,
        )
    )
    gpus = draw(
        st.lists(st.integers(min_value=0, max_value=2), min_size=len(times), max_size=len(times))
    )
    return sorted(
        (hit(t, gpu=g) for t, g in zip(times, gpus)), key=lambda h: h.time
    )


class TestProperties:
    @given(hit_streams())
    @settings(max_examples=80)
    def test_raw_lines_conserved(self, hits):
        errors = coalesce(hits, window_seconds=30.0)
        assert sum(e.raw_line_count for e in errors) == len(hits)

    @given(hit_streams())
    @settings(max_examples=80)
    def test_more_coalescing_with_larger_window(self, hits):
        small = coalesce(hits, window_seconds=5.0)
        large = coalesce(hits, window_seconds=300.0)
        assert len(large) <= len(small)

    @given(hit_streams())
    @settings(max_examples=80)
    def test_output_sorted_and_within_input_range(self, hits):
        errors = coalesce(hits, window_seconds=30.0)
        times = [e.time for e in errors]
        assert times == sorted(times)
        if hits:
            assert times[0] >= hits[0].time

    @given(hit_streams())
    @settings(max_examples=50)
    def test_sliding_never_more_groups_than_tumbling(self, hits):
        tumbling = coalesce(hits, window_seconds=30.0, mode=WindowMode.TUMBLING)
        sliding = coalesce(hits, window_seconds=30.0, mode=WindowMode.SLIDING)
        assert len(sliding) <= len(tumbling)
