"""Temporal error characterization: trends, burstiness, inter-arrivals.

Extends the paper's Stage-III statistics with the temporal analyses its
related work applies to GPU failure logs (Tiwari et al. HPCA'15,
Gupta et al. DSN'15):

* **Monthly error-rate series** per class — the trend view behind the
  paper's pre-op/op comparison.
* **Inter-arrival statistics** — mean/CV of gaps between consecutive
  errors of a class; a coefficient of variation far above 1 marks a
  bursty (non-Poisson) process, as hardware-fault episodes produce.
* **Exponentiality test** — a Kolmogorov–Smirnov test of inter-arrival
  times against the fitted exponential, quantifying how far each error
  class departs from a memoryless process.
* **Hour-of-day profile** — diurnal structure of error occurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.periods import PeriodName, StudyWindow
from ..core.records import ExtractedError
from ..core.timebase import DAY, HOUR
from ..core.xid import EventClass

#: Length of one analysis "month" in seconds (30 days).
MONTH = 30.0 * DAY


@dataclass(frozen=True)
class InterArrivalStats:
    """Inter-arrival statistics for one error class.

    Attributes:
        count: number of errors analyzed.
        mean_hours: mean gap between consecutive errors.
        cv: coefficient of variation of the gaps (1 for Poisson,
            >1 for bursty processes).
        ks_statistic / ks_pvalue: Kolmogorov–Smirnov test of the gaps
            against the fitted exponential distribution (``None`` with
            too few samples).
    """

    count: int
    mean_hours: Optional[float]
    cv: Optional[float]
    ks_statistic: Optional[float]
    ks_pvalue: Optional[float]

    @property
    def is_bursty(self) -> Optional[bool]:
        """True when the gap CV clearly exceeds the Poisson value."""
        if self.cv is None:
            return None
        return self.cv > 1.3


def monthly_error_series(
    errors: Sequence[ExtractedError],
    window: StudyWindow,
    event_class: Optional[EventClass] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Errors per 30-day month over the study window.

    Returns ``(month_start_days, counts)``; filtered to one class when
    ``event_class`` is given.
    """
    n_months = int(np.ceil((window.end - window.start) / MONTH))
    counts = np.zeros(n_months, dtype=int)
    for error in errors:
        if event_class is not None and error.event_class is not event_class:
            continue
        index = int((error.time - window.start) // MONTH)
        if 0 <= index < n_months:
            counts[index] += 1
    starts = np.arange(n_months) * 30.0
    return starts, counts


def inter_arrival_stats(
    errors: Sequence[ExtractedError],
    event_class: EventClass,
    period: Optional[PeriodName] = None,
    window: Optional[StudyWindow] = None,
    min_samples: int = 8,
) -> InterArrivalStats:
    """Inter-arrival statistics (system-wide) for one error class."""
    times = sorted(
        e.time
        for e in errors
        if e.event_class is event_class
        and (
            period is None
            or (window is not None and window.period_of(e.time) is period)
        )
    )
    count = len(times)
    if count < 2:
        return InterArrivalStats(count, None, None, None, None)
    gaps = np.diff(times)
    gaps = gaps[gaps > 0]
    if gaps.size < 1:
        return InterArrivalStats(count, None, None, None, None)
    mean = float(gaps.mean())
    cv = float(gaps.std() / mean) if mean > 0 else None
    ks_stat = ks_p = None
    if gaps.size >= min_samples:
        ks_stat = ks_exponential_statistic(gaps, mean)
        ks_p = kolmogorov_pvalue(ks_stat, gaps.size)
    return InterArrivalStats(
        count=count,
        mean_hours=mean / HOUR,
        cv=cv,
        ks_statistic=ks_stat,
        ks_pvalue=ks_p,
    )


def ks_exponential_statistic(samples: np.ndarray, mean: float) -> float:
    """Kolmogorov–Smirnov D of ``samples`` against Exponential(``mean``).

    The exact two-sided statistic ``max(D+, D−)`` over the sorted
    samples, with the exponential CDF ``−expm1(−x/mean)``.
    """
    x = np.sort(samples)
    cdf = -np.expm1(-x / mean)
    n = x.size
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    return float(max(d_plus, d_minus))


def kolmogorov_pvalue(statistic: float, n: int) -> float:
    """Asymptotic two-sided p-value of a KS statistic from ``n`` samples.

    Evaluates the Kolmogorov survival function at Stephens' corrected
    ``λ = (√n + 0.12 + 0.11/√n)·D``.  Below λ = 1 it takes one minus the
    Jacobi theta form of the CDF, whose terms fall fastest there; above
    it the alternating series ``2 Σ (−1)^(j−1) exp(−2 j² λ²)``.  Five
    terms of either series reach double precision on its side of 1.
    """
    root_n = math.sqrt(n)
    lam = (root_n + 0.12 + 0.11 / root_n) * statistic
    if lam <= 0.0:
        return 1.0
    if lam < 1.0:
        k = -(math.pi**2) / (8.0 * lam * lam)
        terms = sum(math.exp(k * (2 * j - 1) ** 2) for j in range(1, 6))
        return 1.0 - math.sqrt(2.0 * math.pi) / lam * terms
    return 2.0 * sum(
        (-1) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam) for j in range(1, 6)
    )


def hour_of_day_profile(
    errors: Sequence[ExtractedError],
    event_class: Optional[EventClass] = None,
) -> np.ndarray:
    """Error counts per hour-of-day (length-24 array)."""
    profile = np.zeros(24, dtype=int)
    for error in errors:
        if event_class is not None and error.event_class is not event_class:
            continue
        hour = int((error.time % DAY) // HOUR)
        profile[hour] += 1
    return profile


def burstiness_by_class(
    errors: Sequence[ExtractedError],
    window: StudyWindow,
    period: PeriodName = PeriodName.OPERATIONAL,
) -> Dict[EventClass, InterArrivalStats]:
    """Inter-arrival statistics for every class with data in a period."""
    present = {e.event_class for e in errors}
    return {
        event_class: inter_arrival_stats(
            errors, event_class, period=period, window=window
        )
        for event_class in sorted(present, key=lambda c: c.value)
    }


def trend_ratio(
    errors: Sequence[ExtractedError],
    window: StudyWindow,
    event_class: EventClass,
) -> Optional[float]:
    """Operational vs pre-operational error *rate* ratio for a class.

    >1 means the class degraded after entering production (the GSP
    story); <1 means it improved (the NVLink/memory story).
    """
    pre = sum(
        1
        for e in errors
        if e.event_class is event_class
        and window.period_of(e.time) is PeriodName.PRE_OPERATIONAL
    )
    op = sum(
        1
        for e in errors
        if e.event_class is event_class
        and window.period_of(e.time) is PeriodName.OPERATIONAL
    )
    if pre == 0:
        return None
    pre_rate = pre / window.pre_operational.duration_hours
    op_rate = op / window.operational.duration_hours
    return op_rate / pre_rate
