"""Superposition-and-thinning fault sampling for fleet campaigns.

The DES injector (:mod:`repro.faults.injector`) pre-draws every onset
of every fault process and schedules each as its own heap entry — fine
at 448 GPUs, hopeless at 100k.  Here the per-class arrival processes
of one architecture are **superposed** into a single aggregate Poisson
process (rates add), sampled slice by slice, and each drawn arrival is
**thinned** back to its component class by a categorical draw with
probabilities proportional to the component rates; the struck GPU is
assigned uniformly at draw time.  Only O(classes × architectures)
generator states are ever live, and a GPU exists in memory only for
the instant an event lands on it.

Correctness (DESIGN §17): for independent Poisson processes with rates
``λ_i``, the superposition is Poisson with rate ``Σλ_i`` and each
arrival is independently of class ``i`` with probability ``λ_i/Σλ_i``
— so the slice-sampled per-class streams are distributionally
identical to the injector's per-class streams, and uniform GPU
assignment matches :data:`TargetPolicy.UNIFORM_GPU`.  Episode repeats,
memory-chain branches, and NVLink multi-GPU manifestation are then
expanded per onset exactly as the mechanistic models do, so expected
logical-error counts per Table I row match the calibrated targets.

Determinism: every draw comes from named
:class:`~repro.sim.rng.RngRegistry` streams
(``fleetscale.<arch>.arrivals`` / ``…expand``), and the slice
boundaries are fixed by the campaign configuration — two runs with
the same seed produce byte-identical event streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.periods import PeriodName, StudyWindow
from ..core.xid import EventClass
from ..faults.config import FaultSuiteConfig
from ..sim.rng import RngRegistry
from .fleet import SubFleet

#: Stable event-class ordering for columnar class indices.
CLASS_LIST: Tuple[EventClass, ...] = tuple(EventClass)
CLASS_INDEX: Dict[EventClass, int] = {c: i for i, c in enumerate(CLASS_LIST)}


@dataclass
class SliceEvents:
    """One slice's logical errors for one architecture, columnar.

    Sorted by time.  ``gpu_ordinal`` is architecture-local; the
    batcher resolves ordinals to nodes.
    """

    times: np.ndarray  # float64 seconds
    class_idx: np.ndarray  # int16 index into CLASS_LIST
    gpu_ordinal: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class _Component:
    """One thinned component: a fault family's aggregate onset process."""

    kind: str  # "simple" | "memory" | "nvlink"
    event_class: Optional[EventClass]
    pre_rate_per_s: float
    op_rate_per_s: float

    def rate_for(self, period: PeriodName) -> float:
        if period is PeriodName.PRE_OPERATIONAL:
            return self.pre_rate_per_s
        return self.op_rate_per_s


def kill_probabilities(suite: FaultSuiteConfig) -> Dict[EventClass, float]:
    """P(job fails | job encountered the error), per Table I row.

    Derived from the suite's calibrated impact policies: simple
    classes carry their :class:`ImpactPolicy` kill probability;
    containment outcomes kill the touching processes by construction;
    NVLink failures are masked by CRC retry before the link-fatal
    draw.  Pure accounting rows (RRE, DBE, uncorrectable-ECC) do not
    kill on their own — their lethality is carried by the containment
    rows, avoiding double counting.
    """
    probs: Dict[EventClass, float] = {c: 0.0 for c in CLASS_LIST}
    for cfg in suite.simple_faults:
        probs[cfg.event_class] = cfg.impact.kill_probability
    probs[EventClass.CONTAINED_MEMORY_ERROR] = 1.0
    probs[EventClass.UNCONTAINED_MEMORY_ERROR] = 1.0
    link = suite.nvlink.link_model
    masked = link.retry_success_probability if link.crc_retry_enabled else 0.0
    probs[EventClass.NVLINK_ERROR] = (
        (1.0 - masked) * suite.nvlink.link_fatal_probability
    )
    return probs


class ThinnedFleetSampler:
    """Slice-wise thinned sampler for one architecture's sub-fleet.

    Args:
        sub: the architecture's fleet slice.
        suite: fault suite whose counts target this sub-fleet's
            aggregate (pre-scaled by the caller).
        window: study window.
        rngs: the campaign's RNG registry; streams are namespaced
            ``fleetscale.<arch>.*``.
    """

    def __init__(
        self,
        sub: SubFleet,
        suite: FaultSuiteConfig,
        window: StudyWindow,
        rngs: RngRegistry,
    ) -> None:
        self._sub = sub
        self._suite = suite
        self._window = window
        prefix = f"fleetscale.{sub.arch.value}"
        self._rng_arrivals = rngs.stream(f"{prefix}.arrivals")
        self._rng_expand = rngs.stream(f"{prefix}.expand")
        self._components = self._build_components()

    # -- rate derivation ------------------------------------------------

    def _build_components(self) -> List[_Component]:
        components: List[_Component] = []
        window = self._window
        coupling = self._suite.utilization_coupling
        for cfg in self._suite.simple_faults:
            pre, op = cfg.onset_rates_per_hour(window)
            if coupling is not None and cfg.event_class in coupling.coupled_classes:
                pre = coupling.derive_pre_op_rate(op)
            components.append(
                _Component("simple", cfg.event_class, pre / 3600.0, op / 3600.0)
            )
        pre, op = self._suite.memory_chain.onset_rates_per_hour(window)
        components.append(_Component("memory", None, pre / 3600.0, op / 3600.0))
        nv = self._suite.nvlink
        divisor = self._expected_nvlink_manifest() * nv.episode.mean_errors
        pre = nv.pre_op_count / divisor / window.pre_operational.duration_hours
        op = nv.op_count / divisor / window.operational.duration_hours
        components.append(_Component("nvlink", None, pre / 3600.0, op / 3600.0))
        return components

    def _expected_nvlink_manifest(self) -> float:
        """Node-mix-weighted mean manifestation size (as the injector)."""
        link = self._suite.nvlink.link_model
        p = link.extra_spread_probability
        total = 0.0
        for group in self._sub.groups:
            extra_slots = group.gpus_per_node - 2
            expected_extra = sum(p**k for k in range(1, extra_slots + 1))
            multi = 2.0 + expected_extra
            size = (
                (1.0 - link.multi_gpu_probability) * 1.0
                + link.multi_gpu_probability * multi
            )
            total += size * group.count
        return total / self._sub.node_count

    def expected_counts(self) -> Dict[PeriodName, Dict[EventClass, float]]:
        """Expected logical errors per Table I row (validation aid).

        End-of-window episode truncation is ignored, so realized
        counts sit slightly below these for episodic classes.
        """
        out: Dict[PeriodName, Dict[EventClass, float]] = {}
        chain = self._suite.memory_chain
        for period in PeriodName:
            counts = {c: 0.0 for c in CLASS_LIST}
            for cfg in self._suite.simple_faults:
                target = (
                    cfg.pre_op_count
                    if period is PeriodName.PRE_OPERATIONAL
                    else cfg.op_count
                )
                counts[cfg.event_class] = target
            params = chain.params_for(period)
            unc = params.uncorrectable_count
            rec = params.recovery
            counts[EventClass.UNCORRECTABLE_ECC] = unc
            counts[EventClass.DBE] = unc * rec.dbe_xid_probability
            if rec.remapping_enabled:
                counts[EventClass.ROW_REMAP_FAILURE] = (
                    unc * params.remap_failure_probability
                )
                counts[EventClass.ROW_REMAP_EVENT] = unc * (
                    1.0 - params.remap_failure_probability
                )
            touch = rec.active_touch_probability
            contain = (
                rec.containment_success_probability
                if rec.containment_enabled
                else 0.0
            )
            counts[EventClass.CONTAINED_MEMORY_ERROR] = unc * touch * contain
            counts[EventClass.UNCONTAINED_MEMORY_ERROR] = unc * touch * (
                1.0 - contain
            )
            counts[EventClass.NVLINK_ERROR] = (
                self._suite.nvlink.pre_op_count
                if period is PeriodName.PRE_OPERATIONAL
                else self._suite.nvlink.op_count
            )
            out[period] = counts
        return out

    # -- slice sampling -------------------------------------------------

    def sample_slice(self, t0: float, t1: float) -> SliceEvents:
        """Draw every logical error whose *onset* lands in ``[t0, t1)``.

        Episode repeats and manifestation expansions of those onsets
        may extend past ``t1`` (they are truncated at the window end),
        mirroring the injector's behaviour.
        """
        times: List[np.ndarray] = []
        classes: List[np.ndarray] = []
        gpus: List[np.ndarray] = []

        for period in self._window:
            lo = max(t0, period.start)
            hi = min(t1, period.end)
            if hi <= lo:
                continue
            rates = np.array(
                [c.rate_for(period.name) for c in self._components]
            )
            total = float(rates.sum())
            if total <= 0:
                continue
            n = int(self._rng_arrivals.poisson(total * (hi - lo)))
            if n == 0:
                continue
            onset_times = np.sort(self._rng_arrivals.uniform(lo, hi, size=n))
            comp_idx = self._rng_arrivals.choice(
                len(self._components), size=n, p=rates / total
            )
            onset_gpus = self._rng_arrivals.integers(
                0, self._sub.gpu_count, size=n, dtype=np.int64
            )
            for ci, component in enumerate(self._components):
                mask = comp_idx == ci
                if not mask.any():
                    continue
                sub_times = onset_times[mask]
                sub_gpus = onset_gpus[mask]
                t, c, g = self._expand(
                    component, period.name, sub_times, sub_gpus
                )
                times.append(t)
                classes.append(c)
                gpus.append(g)

        if not times:
            empty = np.empty(0)
            return SliceEvents(
                empty, np.empty(0, np.int16), np.empty(0, np.int64)
            )
        all_times = np.concatenate(times)
        order = np.argsort(all_times, kind="stable")
        return SliceEvents(
            all_times[order],
            np.concatenate(classes)[order],
            np.concatenate(gpus)[order],
        )

    # -- per-family expansion -------------------------------------------

    def _expand(
        self,
        component: _Component,
        period: PeriodName,
        onsets: np.ndarray,
        gpu_ordinals: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if component.kind == "simple":
            assert component.event_class is not None
            cfg = self._suite.fault_for(component.event_class)
            return self._expand_episodic(
                CLASS_INDEX[cfg.event_class],
                cfg.episode.mean_extra_errors,
                cfg.episode.mean_duration_hours,
                cfg.episode.min_gap_seconds,
                onsets,
                gpu_ordinals,
            )
        if component.kind == "memory":
            return self._expand_memory(period, onsets, gpu_ordinals)
        return self._expand_nvlink(onsets, gpu_ordinals)

    def _expand_episodic(
        self,
        class_idx: int,
        mean_extra: float,
        mean_duration_hours: float,
        min_gap_s: float,
        onsets: np.ndarray,
        gpu_ordinals: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Onset events plus per-onset episode repeats on the same GPU."""
        rng = self._rng_expand
        times = [onsets]
        gpus = [gpu_ordinals]
        if mean_extra > 0:
            counts = rng.poisson(mean_extra, size=len(onsets))
            struck = np.nonzero(counts)[0]
            counts = counts[struck]
            durations = np.empty(len(counts))
            unit = [np.empty(0)]
            for i, count in enumerate(counts.tolist()):
                durations[i] = rng.standard_exponential()
                unit.append(rng.random(count))
            repeat_times, keep = episode_repeats(
                onsets[struck],
                counts,
                _raw_offsets(durations, mean_duration_hours, counts, unit),
                min_gap_s,
                self._window.end,
            )
            times.append(repeat_times[keep])
            gpus.append(np.repeat(gpu_ordinals[struck], counts)[keep])
        all_times = np.concatenate(times)
        all_gpus = np.concatenate(gpus)
        return (
            all_times,
            np.full(len(all_times), class_idx, dtype=np.int16),
            all_gpus,
        )

    def _expand_memory(
        self, period: PeriodName, onsets: np.ndarray, gpu_ordinals: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the uncorrectable-ECC chain's branches, vectorized.

        Each onset always logs the aggregate accounting row, then
        branch outcomes add their own rows at the same instant and on
        the same GPU — matching
        :meth:`repro.gpu.memory.MemoryRecoveryModel.process_uncorrectable`
        in distribution (the fleet path has no per-GPU spare-row state,
        so remap failures come from the calibrated per-period
        probability alone).
        """
        rng = self._rng_expand
        params = self._suite.memory_chain.params_for(period)
        rec = params.recovery
        n = len(onsets)
        times = [onsets]
        classes = [np.full(n, CLASS_INDEX[EventClass.UNCORRECTABLE_ECC], np.int16)]
        gpus = [gpu_ordinals]

        def branch(mask: np.ndarray, event_class: EventClass) -> None:
            if mask.any():
                times.append(onsets[mask])
                classes.append(
                    np.full(int(mask.sum()), CLASS_INDEX[event_class], np.int16)
                )
                gpus.append(gpu_ordinals[mask])

        branch(rng.random(n) < rec.dbe_xid_probability, EventClass.DBE)
        if rec.remapping_enabled:
            failed = rng.random(n) < params.remap_failure_probability
            branch(failed, EventClass.ROW_REMAP_FAILURE)
            branch(~failed, EventClass.ROW_REMAP_EVENT)
        touched = rng.random(n) < rec.active_touch_probability
        if rec.containment_enabled:
            contained = touched & (
                rng.random(n) < rec.containment_success_probability
            )
        else:
            contained = np.zeros(n, dtype=bool)
        branch(contained, EventClass.CONTAINED_MEMORY_ERROR)
        branch(touched & ~contained, EventClass.UNCONTAINED_MEMORY_ERROR)
        return (
            np.concatenate(times),
            np.concatenate(classes),
            np.concatenate(gpus),
        )

    def _expand_nvlink(
        self, onsets: np.ndarray, gpu_ordinals: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Multi-GPU manifestation plus episode repeats per onset.

        Onset after onset, each instant (the onset, then its kept
        repeats) lists the onset's affected GPUs: the struck GPU, then
        the drawn peers.
        """
        rng = self._rng_expand
        link = self._suite.nvlink.link_model
        shape = self._suite.nvlink.episode
        n = len(onsets)
        _, gpu_idx, node_gpus = self._sub.locate_many(gpu_ordinals)
        multi = rng.random(n) < link.multi_gpu_probability
        # The draws stay per onset and in order: permutation, the
        # spread draws, then Poisson, exponential and uniform repeats.
        slots = [np.empty(0, dtype=np.int64)]  # drawn peer slots
        n_peers = np.zeros(n, dtype=np.int64)
        counts = np.zeros(n, dtype=np.int64)  # repeats per onset
        durations = np.zeros(n)
        unit = [np.empty(0)]
        for i in range(n):
            if multi[i]:
                peer_slots = int(node_gpus[i]) - 1
                order = rng.permutation(peer_slots)
                extra = 1
                while (
                    extra < peer_slots
                    and rng.random() < link.extra_spread_probability
                ):
                    extra += 1
                slots.append(order[:extra])
                n_peers[i] = len(slots[-1])
            if shape.mean_extra_errors > 0:
                count = int(rng.poisson(shape.mean_extra_errors))
                if count:
                    counts[i] = count
                    durations[i] = rng.standard_exponential()
                    unit.append(rng.random(count))
        # Peer slot k skips the struck GPU's own index on its node.
        slot = np.concatenate(slots)
        owner = np.repeat(np.arange(n), n_peers)
        peers = gpu_ordinals[owner] - gpu_idx[owner]
        peers += slot + (slot >= gpu_idx[owner])
        affected = _heads_then_tails(gpu_ordinals, peers, n_peers)
        struck = np.nonzero(counts)[0]
        repeat_times, keep = episode_repeats(
            onsets[struck],
            counts[struck],
            _raw_offsets(
                durations[struck],
                shape.mean_duration_hours,
                counts[struck],
                unit,
            ),
            shape.min_gap_seconds,
            self._window.end,
        )
        n_kept = np.bincount(
            np.repeat(struck, counts[struck])[keep], minlength=n
        )
        instants = _heads_then_tails(onsets, repeat_times[keep], n_kept)
        # Each instant lists its onset's affected GPUs.
        size = 1 + n_peers
        onset_of = np.repeat(np.arange(n), 1 + n_kept)
        all_times = np.repeat(instants, size[onset_of])
        block = _ragged_arange((np.cumsum(size) - size)[onset_of], size[onset_of])
        return (
            all_times,
            np.full(
                len(all_times), CLASS_INDEX[EventClass.NVLINK_ERROR], np.int16
            ),
            affected[block],
        )


def episode_repeats(
    onsets: np.ndarray,
    counts: np.ndarray,
    raw: np.ndarray,
    min_gap_s: float,
    end: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Episode repeat instants of consecutive onsets, and which are kept.

    ``raw`` holds the onsets' raw offset draws, ``counts[i] >= 1`` of
    them for onset ``i``.  Each onset's offsets are sorted, then spaced
    by ``o[k] = max(raw[k], o[k-1] + min_gap_s)`` with ``o[-1] = 0``,
    and its repeats stop at the first instant at or past ``end``.

    The spacing is one whole-array step, repeated until nothing
    changes: after ``p`` steps the first ``p`` offsets of every onset
    are final, and a step that changes nothing has reached the rule's
    only solution.  Each step runs the rule's own float operations, so
    the instants are identical bit for bit to spacing one offset at a
    time.  Spaced offsets never decrease, so the stop is ``t < end``.
    """
    onset = np.repeat(np.arange(len(counts)), counts)
    raw = raw[np.lexsort((raw, onset))]
    starts = np.zeros(len(raw), dtype=bool)
    starts[np.cumsum(counts) - counts] = True
    offsets = raw
    prev = np.empty_like(raw)
    while True:
        prev[1:] = offsets[:-1]
        prev[starts] = 0.0
        spaced = np.maximum(raw, prev + min_gap_s)
        if np.array_equal(spaced, offsets):
            break
        offsets = spaced
    times = np.repeat(onsets, counts) + offsets
    return times, times < end


def _raw_offsets(
    durations: np.ndarray,
    mean_duration_hours: float,
    counts: np.ndarray,
    unit: List[np.ndarray],
) -> np.ndarray:
    """Raw repeat offsets from per-onset standard draws.

    Each onset with ``counts[i]`` repeats drew one standard exponential
    and ``counts[i]`` standard uniforms.  numpy's
    ``exponential(scale)`` is ``scale * standard_exponential()`` and
    ``uniform(0, h, n)`` is ``0 + h * random(n)``, from the same
    generator words, so scaling here gives the values the
    per-onset ``uniform(0, max(exponential(scale), 1), n)`` would,
    bit for bit.
    """
    spans = np.maximum(durations * (mean_duration_hours * 3600.0), 1.0)
    return np.repeat(spans, counts) * np.concatenate(unit)


def _heads_then_tails(
    heads: np.ndarray, tails: np.ndarray, tail_counts: np.ndarray
) -> np.ndarray:
    """``heads[i]`` then its ``tail_counts[i]`` tails, for each ``i`` in
    turn; ``tails`` holds every item's tails, item after item."""
    sizes = 1 + tail_counts
    head = np.zeros(int(sizes.sum()), dtype=bool)
    head[np.cumsum(sizes) - sizes] = True
    out = np.empty(len(head), dtype=np.result_type(heads, tails))
    out[head] = heads
    out[~head] = tails
    return out


def _ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(start, start + length)`` for each pair, concatenated."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - (ends - lengths), lengths)
