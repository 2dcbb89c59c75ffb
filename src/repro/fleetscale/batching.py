"""Slice-driven per-node event batching (DESIGN §17, invariant 2).

The DES injector schedules one heap entry per logical error — a
100k-GPU, three-year campaign would push hundreds of millions of
entries.  The fleet path instead runs a *slice driver*: a single
recurring engine event that, once per time slice, samples every onset
landing in the slice, groups the expanded events by (architecture,
node), and bulk-pushes **one engine entry per node batch** via
:meth:`~repro.sim.engine.Engine.schedule_batch`.

Heap-depth invariant: at any instant the heap holds at most one driver
entry plus one entry per node that has events in the current slice —
bounded by ``nodes + 1``, independent of event volume and campaign
length.  Events whose episode expansion spills past the slice end stay
in their onset's batch (truncated at the window end), so spill never
creates extra entries.

Batch entries fire at the batch's earliest event time; statistics are
attributed by per-event timestamps, so period attribution is exact
even when a batch spans the period boundary.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..core.arch import Architecture
from ..core.periods import StudyWindow
from ..sim.engine import Engine
from .accumulator import FleetAccumulator
from .fleet import FleetSpec
from .sampling import SliceEvents, ThinnedFleetSampler


def group_by_node(
    spec_sub, events: SliceEvents
) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """Split one slice's columnar events into per-node batches.

    Yields ``(node_ordinal, times, class_idx)`` with the within-node
    time order preserved (the slice arrays arrive time-sorted and the
    grouping sort is stable).
    """
    node_ord, _, _ = spec_sub.locate_many(events.gpu_ordinal)
    order = np.argsort(node_ord, kind="stable")
    sorted_nodes = node_ord[order]
    times = events.times[order]
    class_idx = events.class_idx[order]
    boundaries = np.nonzero(np.diff(sorted_nodes))[0] + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(sorted_nodes)]))
    for node, lo, hi in zip(
        sorted_nodes[starts].tolist(), starts.tolist(), ends.tolist()
    ):
        yield node, times[lo:hi], class_idx[lo:hi]


class SliceDriver:
    """Recurring engine event that batches one slice at a time."""

    def __init__(
        self,
        engine: Engine,
        spec: FleetSpec,
        samplers: Dict[Architecture, ThinnedFleetSampler],
        accumulator: FleetAccumulator,
        window: StudyWindow,
        slice_seconds: float,
    ) -> None:
        if slice_seconds <= 0:
            raise ValueError("slice_seconds must be positive")
        self._engine = engine
        self._spec = spec
        self._samplers = samplers
        self._accumulator = accumulator
        self._window = window
        self._slice = float(slice_seconds)
        #: Observability: max heap depth seen right after a slice is
        #: scheduled — the bounded-heap invariant's witness.
        self.heap_high_water = 0
        self.slices_run = 0
        self.batches_scheduled = 0

    def start(self) -> None:
        """Arm the driver at the window start."""
        self._engine.schedule(
            self._window.start,
            self._make_slice_callback(self._window.start),
            priority=-1,
            label="fleetscale.slice",
        )

    def _make_slice_callback(self, t0: float):
        def run_slice() -> None:
            self._run_slice(t0)

        return run_slice

    def _run_slice(self, t0: float) -> None:
        # Every batch of the previous slice fired before this tick.
        self._accumulator.fold()
        t1 = min(t0 + self._slice, self._window.end)
        for arch in sorted(self._samplers, key=lambda a: a.value):
            sampler = self._samplers[arch]
            events = sampler.sample_slice(t0, t1)
            if not len(events):
                continue
            sub = self._spec.subfleets[arch]
            queue = self._accumulator.queue(arch)
            entries: List[Tuple[float, object]] = [
                (
                    # Spilled episode repeats keep the batch in its
                    # onset slice; never schedule behind the clock.
                    max(float(times[0]), t0),
                    partial(queue, (node, times, class_idx)),
                )
                for node, times, class_idx in group_by_node(sub, events)
            ]
            self.batches_scheduled += self._engine.schedule_batch(
                entries, label=f"fleetscale.batch.{arch.value}"
            )
        if t1 < self._window.end:
            self._engine.schedule(
                t1,
                self._make_slice_callback(t1),
                priority=-1,
                label="fleetscale.slice",
            )
        self.slices_run += 1
        self.heap_high_water = max(
            self.heap_high_water, self._engine.pending_events
        )
