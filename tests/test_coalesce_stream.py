"""Differential tests: the watermark-evicting coalescer against the batch
reference.

:class:`~repro.pipeline.coalesce.StreamingCoalescer` carries its open
and evicted groups from one call to the next, while
``coalesce(hits, ...)`` sees the whole stream at once.  However the
stream is cut — empty, one-row and long chunks, each interning its own
string ids as an ingest chunk does — evicted at each chunk's last time
and round-tripped through its JSON checkpoint, the drained stream must
equal the reference list for list, tie order included.
"""

import json
import random

import pytest

from repro.core.xid import EventClass
from repro.pipeline.coalesce import StreamingCoalescer, WindowMode, coalesce
from repro.pipeline.extract import ErrorHit
from repro.pipeline.shard import HitColumns

NODES = ("gpua001", "gpua002", "gpub010")
PCIS = ("0000:07:00", "0000:46:00", "0000:85:00")
CLASSES = (EventClass.MMU_ERROR, EventClass.NVLINK_ERROR, EventClass.DBE)
XIDS = (31, 48, 74, None)

MODES = (WindowMode.TUMBLING, WindowMode.SLIDING)
WINDOWS = (0.0, 30.0)

#: Chunk lengths: empty and one-row chunks are as common as long ones.
CHUNK_SIZES = (0, 0, 1, 1, 1, 2, 5, 17, 60)


def _random_hits(seed, n, jitter=False):
    """``n`` hits in non-decreasing time order, in bursts.

    Steps of zero tie times within and across keys; steps of exactly
    30 s land on a tumbling boundary (and, at Δt 0, every equal time
    does).  About one hit in five has an unresolved GPU and is keyed
    by its PCI address.  With ``jitter`` a tenth of the steps go back
    by less than the 1e-9 s ordering tolerance.
    """
    rng = random.Random(seed)
    t = 1000.0
    hits = []
    for _ in range(n):
        t += rng.choice((0.0, 0.0, 0.5, 7.5, 29.999, 30.0, 30.0, 45.0, 400.0))
        if jitter and rng.random() < 0.1:
            t -= 4e-10
        hits.append(
            ErrorHit(
                t,
                rng.choice(NODES),
                rng.choice((0, 1, 2, 3, None)),
                rng.choice(PCIS),
                rng.choice(CLASSES),
                rng.choice(XIDS),
            )
        )
    return hits


def _columns(hits):
    cols = HitColumns()
    for hit in hits:
        cols.append_hit(hit)
    return cols


def _round_trip(streaming):
    """Rebuild ``streaming`` from its checkpoint, through JSON text."""
    state = streaming.to_state()
    text = json.dumps(state)
    rebuilt = StreamingCoalescer.from_state(json.loads(text))
    assert rebuilt.to_state() == state
    assert json.dumps(rebuilt.to_state()) == text
    return rebuilt


def _stream(hits, window, mode, seed):
    """Push ``hits`` in random chunks, evicting at each chunk's last
    time and round-tripping the checkpoint every few chunks."""
    rng = random.Random(seed)
    streaming = StreamingCoalescer(window, mode)
    pos = chunk = 0
    while pos < len(hits):
        end = min(len(hits), pos + rng.choice(CHUNK_SIZES))
        streaming.push_columns(_columns(hits[pos:end]))
        if end:
            streaming.evict(hits[end - 1].time)
        if chunk % 3 == 2:
            streaming = _round_trip(streaming)
        pos, chunk = end, chunk + 1
    streaming.drain()
    return streaming


class TestChunkedStreamEqualsBatch:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("seed", range(8))
    def test_random_chunks(self, seed, window, mode):
        hits = _random_hits(seed, 300)
        streaming = _stream(hits, window, mode, seed)
        expected = coalesce(hits, window, mode)
        assert streaming.errors() == expected
        assert streaming.completed_count == len(expected)
        assert streaming.open_groups == 0

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("seed", range(3))
    def test_steps_back_within_tolerance(self, seed, window, mode):
        hits = _random_hits(100 + seed, 300, jitter=True)
        assert any(b.time < a.time for a, b in zip(hits, hits[1:]))
        streaming = _stream(hits, window, mode, seed)
        assert streaming.errors() == coalesce(hits, window, mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("window", WINDOWS)
    def test_whole_stream_in_one_chunk(self, window, mode):
        hits = _random_hits(7, 400)
        streaming = StreamingCoalescer(window, mode)
        streaming.push_columns(_columns(hits))
        streaming.drain()
        assert streaming.errors() == coalesce(hits, window, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_ties_on_the_window_boundary(self, mode):
        mmu = EventClass.MMU_ERROR
        rows = [
            (0.0, "gpua002", 1, "0000:46:00"),
            (0.0, "gpua001", 0, "0000:07:00"),
            (0.0, "gpua001", None, "0000:85:00"),
            # Exactly on the tumbling boundary of all three groups.
            (30.0, "gpua001", 0, "0000:07:00"),
            (30.0, "gpua001", None, "0000:85:00"),
            (30.0, "gpua002", 1, "0000:46:00"),
            (60.0, "gpua001", None, "0000:85:00"),
        ]
        hits = [ErrorHit(t, n, g, p, mmu, 31) for t, n, g, p in rows]
        for cut in range(len(hits) + 1):
            streaming = StreamingCoalescer(30.0, mode)
            for part in (hits[:cut], hits[cut:]):
                streaming.push_columns(_columns(part))
                if part:
                    streaming.evict(part[-1].time)
                streaming = _round_trip(streaming)
            streaming.drain()
            assert streaming.errors() == coalesce(hits, 30.0, mode), cut

    def test_out_of_order_across_chunks(self):
        streaming = StreamingCoalescer(30.0)
        streaming.push_columns(_columns(_random_hits(1, 5)))
        late = ErrorHit(50.0, "gpua001", 0, "0000:07:00", EventClass.DBE, 48)
        with pytest.raises(ValueError) as caught:
            streaming.push_columns(_columns([late]))
        assert str(caught.value).startswith("hits out of order: 50.0 after ")


MMU, DBE, NVL = EventClass.MMU_ERROR, EventClass.DBE, EventClass.NVLINK_ERROR

#: Pushed (an ``ErrorHit``) or evicted at the last pushed time (``None``)
#: to reach :data:`V1_STATE`.
V1_BEFORE = [
    ErrorHit(0.0, "gpua001", 0, "0000:07:00", MMU, 31),
    ErrorHit(0.0, "gpua002", None, "0000:46:00", MMU, 31),
    ErrorHit(10.0, "gpua001", 0, "0000:07:00", MMU, 31),
    ErrorHit(35.0, "gpua001", 0, "0000:07:00", MMU, 31),
    ErrorHit(35.0, "gpua003", 1, "0000:85:00", DBE, 48),
    None,
    ErrorHit(40.0, "gpua002", None, "0000:46:00", MMU, 31),
    ErrorHit(70.0, "gpua003", 1, "0000:85:00", DBE, 48),
    None,
    ErrorHit(71.0, "gpua004", None, "0000:85:00", NVL, None),
    ErrorHit(80.0, "gpua003", 1, "0000:85:00", DBE, 48),
    None,
]

#: The hits after the checkpoint: one resolves a pending rank, two
#: complete open groups; drain flushes the other pending group.
V1_AFTER = [
    ErrorHit(100.0, "gpua001", 0, "0000:07:00", MMU, 31),
    ErrorHit(100.0, "gpua003", 1, "0000:85:00", DBE, 48),
    ErrorHit(101.0, "gpua004", None, "0000:85:00", NVL, None),
]

#: A version-1 coalescer checkpoint, as written after :data:`V1_BEFORE`
#: by the per-hit stream coalescer: two open groups (one keyed by PCI),
#: two evicted groups whose ranks are still pending, and three errors
#: completed by a push.
V1_STATE = {
    "window_seconds": 30.0,
    "mode": "tumbling",
    "pushes": 9,
    "last_time": 80.0,
    "drained": False,
    "key_order": [
        [["gpua001", 0, "mmu_error"], 0],
        [["gpua002", "0000:46:00", "mmu_error"], 1],
        [["gpua003", 1, "dbe"], 2],
        [["gpua004", "0000:85:00", "nvlink_error"], 3],
    ],
    "open": [
        [["gpua003", 1, "dbe"], [70.0, "gpua003", 1, "0000:85:00", "dbe", 48], 80.0, 2],
        [
            ["gpua004", "0000:85:00", "nvlink_error"],
            [71.0, "gpua004", None, "0000:85:00", "nvlink_error", None],
            71.0,
            1,
        ],
    ],
    "pending": [
        [["gpua001", 0, "mmu_error"], 3],
        [["gpua002", "0000:46:00", "mmu_error"], 4],
    ],
    "emitted": [
        [[0.0, "gpua001", 0, "mmu_error", 31, 2, 10.0], 0, 4],
        [[0.0, "gpua002", None, "mmu_error", 31, 1, 0.0], 0, 6],
        [[35.0, "gpua003", 1, "dbe", 48, 1, 35.0], 0, 7],
        [[35.0, "gpua001", 0, "mmu_error", 31, 1, 35.0], None, None],
        [[40.0, "gpua002", None, "mmu_error", 31, 1, 40.0], None, None],
    ],
}


class TestCheckpointV1:
    def _reference(self):
        hits = [hit for hit in V1_BEFORE if hit is not None] + V1_AFTER
        return coalesce(hits, 30.0)

    def test_loads_and_round_trips_unchanged(self):
        state = json.loads(json.dumps(V1_STATE))
        streaming = StreamingCoalescer.from_state(state)
        assert streaming.to_state() == V1_STATE
        assert streaming.open_groups == 2
        assert streaming.completed_count == 5

    def test_drains_to_the_reference(self):
        streaming = StreamingCoalescer.from_state(json.loads(json.dumps(V1_STATE)))
        streaming.push_columns(_columns(V1_AFTER))
        streaming.drain()
        assert streaming.errors() == self._reference()

    def test_one_hit_pushes_drain_to_the_reference(self):
        streaming = StreamingCoalescer.from_state(json.loads(json.dumps(V1_STATE)))
        for hit in V1_AFTER:
            streaming.push(hit)
        streaming.drain()
        assert streaming.errors() == self._reference()

    def test_same_pushes_write_the_same_document(self):
        streaming = StreamingCoalescer(30.0)
        last = None
        for hit in V1_BEFORE:
            if hit is None:
                streaming.evict(last)
            else:
                streaming.push(hit)
                last = hit.time
        assert streaming.to_state() == V1_STATE
