"""Unit tests for temporal error characterization (repro.analysis.temporal)."""

import numpy as np
import pytest

from repro.analysis.temporal import (
    burstiness_by_class,
    hour_of_day_profile,
    inter_arrival_stats,
    monthly_error_series,
    trend_ratio,
)
from repro.core.periods import PeriodName, StudyWindow
from repro.core.records import ExtractedError
from repro.core.timebase import DAY, HOUR
from repro.core.xid import EventClass


@pytest.fixture()
def window():
    return StudyWindow.scaled(pre_days=30, op_days=90)


def error(time, event=EventClass.MMU_ERROR, node="gpua001", gpu=0):
    return ExtractedError(
        time=time, node=node, gpu_index=gpu, event_class=event, xid=31
    )


class TestMonthlySeries:
    def test_counts_per_month(self, window):
        errors = [error(5 * DAY), error(6 * DAY), error(45 * DAY)]
        starts, counts = monthly_error_series(errors, window)
        assert counts[0] == 2
        assert counts[1] == 1
        assert counts.sum() == 3
        assert starts[1] == 30.0

    def test_class_filter(self, window):
        errors = [
            error(5 * DAY),
            error(6 * DAY, event=EventClass.GSP_ERROR),
        ]
        _, counts = monthly_error_series(
            errors, window, event_class=EventClass.GSP_ERROR
        )
        assert counts.sum() == 1

    def test_out_of_window_ignored(self, window):
        errors = [error(window.end + DAY)]
        _, counts = monthly_error_series(errors, window)
        assert counts.sum() == 0


class TestInterArrival:
    def test_regular_arrivals_low_cv(self, window):
        errors = [error(i * HOUR) for i in range(200)]
        stats = inter_arrival_stats(errors, EventClass.MMU_ERROR)
        assert stats.mean_hours == pytest.approx(1.0)
        assert stats.cv == pytest.approx(0.0, abs=1e-9)
        assert stats.is_bursty is False
        # Regular arrivals are decisively non-exponential.
        assert stats.ks_statistic == pytest.approx(0.6321205588285577, rel=1e-12)
        assert stats.ks_pvalue < 0.01

    def test_poisson_arrivals_cv_near_one(self, window):
        rng = np.random.default_rng(4)
        times = np.cumsum(rng.exponential(3600.0, size=3000))
        errors = [error(float(t)) for t in times]
        stats = inter_arrival_stats(errors, EventClass.MMU_ERROR)
        assert stats.cv == pytest.approx(1.0, abs=0.08)
        assert stats.ks_statistic == pytest.approx(0.01453331716218842, rel=1e-12)
        # Consistent with exponential: within 0.005 of scipy's p-value
        # from the exact KS distribution.
        assert stats.ks_pvalue == pytest.approx(0.5459130589235303, abs=0.005)

    def test_bursty_arrivals_high_cv(self, window):
        times = []
        for burst_start in range(0, 100):
            base = burst_start * DAY
            times.extend(base + np.arange(10) * 60.0)
        errors = [error(float(t)) for t in times]
        stats = inter_arrival_stats(errors, EventClass.MMU_ERROR)
        assert stats.cv > 2.0
        assert stats.ks_statistic == pytest.approx(0.8939182602307127, rel=1e-12)
        assert stats.is_bursty is True

    def test_too_few_samples(self, window):
        stats = inter_arrival_stats([error(0.0)], EventClass.MMU_ERROR)
        assert stats.count == 1
        assert stats.mean_hours is None
        assert stats.is_bursty is None

    def test_period_filter(self, window):
        errors = [error(i * HOUR) for i in range(10)]  # all pre-op
        stats = inter_arrival_stats(
            errors,
            EventClass.MMU_ERROR,
            period=PeriodName.OPERATIONAL,
            window=window,
        )
        assert stats.count == 0


class TestHourProfile:
    def test_profile_shape(self):
        errors = [error(3 * HOUR), error(DAY + 3 * HOUR), error(15 * HOUR)]
        profile = hour_of_day_profile(errors)
        assert profile.shape == (24,)
        assert profile[3] == 2
        assert profile[15] == 1
        assert profile.sum() == 3


class TestTrend:
    def test_degrading_class(self, window):
        # 30 pre-op errors in 30 days vs 900 op errors in 90 days:
        # 1/day -> 10/day = 10x degradation.
        errors = [error(i * DAY + 1.0) for i in range(30)]
        errors += [
            error(30 * DAY + i * (90 * DAY / 900)) for i in range(900)
        ]
        ratio = trend_ratio(errors, window, EventClass.MMU_ERROR)
        assert ratio == pytest.approx(10.0, rel=0.05)

    def test_no_pre_op_errors_returns_none(self, window):
        errors = [error(40 * DAY)]
        assert trend_ratio(errors, window, EventClass.MMU_ERROR) is None

    def test_burstiness_by_class_covers_present_classes(self, window):
        errors = [error(40 * DAY + i * HOUR) for i in range(20)]
        errors += [
            error(40 * DAY + i * HOUR, event=EventClass.GSP_ERROR)
            for i in range(20)
        ]
        table = burstiness_by_class(errors, window)
        assert set(table) == {EventClass.MMU_ERROR, EventClass.GSP_ERROR}
