"""Summary statistics and the compare verdict rule.

Pure functions with no dependency on the ``repro`` package, shared by
the runner (``run.py``), the workloads and the open-loop client.

* :func:`summarize` — median and quartiles exactly as the benchmark's
  spread rule reads them (``statistics.quantiles(values, n=4)``).
* :func:`percentile` — nearest-rank percentile that refuses to answer
  unless at least :data:`MIN_BEYOND` samples lie beyond it.
* :func:`verdict` — ``gain`` / ``regression`` / ``unresolved`` /
  ``unchanged`` for one (metric, workload) pair of two run sets.
* :func:`fails_more` — whether one run set failed a larger share of its
  operations than another.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10

#: Share of won pairs a gain needs (ties count for neither side).
GAIN_PAIR_SHARE = 0.9


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile, and sample count."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples")
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(summary: Dict[str, float]) -> float:
    """Interquartile range as a share of the median."""
    if summary["median"] == 0:
        return 0.0 if summary["q3"] == summary["q1"] else math.inf
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile, or ``None`` when the sample is too small.

    ``values`` may hold ``math.inf`` for failed requests: a failure
    counts as missing any latency limit, so it sorts above every real
    latency.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def fails_more(
    base: Sequence[Tuple[int, int]], head: Sequence[Tuple[int, int]]
) -> bool:
    """Whether ``head`` failed a larger share of its operations than ``base``.

    Each item is one run's ``(failed, attempted)``.  The shares pool
    every run of a side, so one failing run in ten counts.
    """

    def share(runs: Sequence[Tuple[int, int]]) -> float:
        attempted = sum(a for _, a in runs)
        return sum(f for f, _ in runs) / attempted if attempted else 0.0

    return share(head) > share(base)


def verdict(
    base: Sequence[float],
    head: Sequence[float],
    better: str,
    bound: float,
    allow_gain: bool = True,
) -> Dict[str, object]:
    """Judge ``head`` against ``base`` for one metric on one workload.

    Runs are paired in order (run *i* of each set).  The rules, first
    match wins:

    * ``gain`` — head wins at least 9 of 10 pairs and its median moved
      the better way by more than the base interquartile range; never
      when ``allow_gain`` is false (head failed more operations);
    * ``regression`` — head's median is worse than base's by more than
      ``bound`` (a share of base's median);
    * ``unresolved`` — either side's spread is wider than ``bound``,
      unless every head run reads better than every base run;
    * ``unchanged`` — otherwise.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = -1.0 if better == "lower" else 1.0
    b, h = summarize(base), summarize(head)
    pairs = list(zip(base, head))
    won = sum(1 for x, y in pairs if sign * (y - x) > 0)
    lost = sum(1 for x, y in pairs if sign * (y - x) < 0)
    moved = sign * (h["median"] - b["median"])
    base_iqr = b["q3"] - b["q1"]
    worse_by = -moved / abs(b["median"]) if b["median"] else -moved
    all_better = bool(pairs) and all(
        sign * (y - x) > 0 for x in base for y in head
    )
    if allow_gain and pairs and won >= GAIN_PAIR_SHARE * len(pairs) and moved > base_iqr:
        label = "gain"
    elif worse_by > bound:
        label = "regression"
    elif max(spread(b), spread(h)) > bound and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return {
        "verdict": label,
        "base": b,
        "head": h,
        "pairs": len(pairs),
        "won": won,
        "lost": lost,
    }
