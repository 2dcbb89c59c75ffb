"""Unit tests for repro.core.timebase."""

import random
from datetime import datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import timebase


class TestEpochConversions:
    def test_epoch_is_january_2022(self):
        assert timebase.STUDY_EPOCH == datetime(2022, 1, 1, tzinfo=timezone.utc)

    def test_zero_maps_to_epoch(self):
        assert timebase.to_datetime(0.0) == timebase.STUDY_EPOCH

    def test_one_day_later(self):
        moment = timebase.to_datetime(timebase.DAY)
        assert moment == datetime(2022, 1, 2, tzinfo=timezone.utc)

    def test_from_datetime_inverts_to_datetime(self):
        instant = 1_234_567.25
        assert timebase.from_datetime(timebase.to_datetime(instant)) == pytest.approx(
            instant
        )

    def test_naive_datetime_treated_as_utc(self):
        naive = datetime(2022, 3, 1, 12, 0, 0)
        aware = datetime(2022, 3, 1, 12, 0, 0, tzinfo=timezone.utc)
        assert timebase.from_datetime(naive) == timebase.from_datetime(aware)

    @given(st.floats(min_value=0, max_value=200 * 86400.0))
    def test_roundtrip_over_window(self, instant):
        back = timebase.from_datetime(timebase.to_datetime(instant))
        assert back == pytest.approx(instant, abs=1e-3)


class TestUnits:
    def test_unit_relations(self):
        assert timebase.MINUTE == 60 * timebase.SECOND
        assert timebase.HOUR == 60 * timebase.MINUTE
        assert timebase.DAY == 24 * timebase.HOUR
        assert timebase.YEAR == 365 * timebase.DAY

    def test_hours_helper(self):
        assert timebase.hours(7200.0) == 2.0


class TestSyslogTimestamps:
    def test_format_includes_microseconds(self):
        text = timebase.format_syslog_timestamp(0.125)
        assert text == "2022-01-01T00:00:00.125000"

    def test_parse_inverts_format(self):
        instant = 86_400.0 * 17 + 3661.5
        text = timebase.format_syslog_timestamp(instant)
        assert timebase.parse_syslog_timestamp(text) == pytest.approx(instant)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            timebase.parse_syslog_timestamp("not-a-timestamp")

    def test_format_matches_strftime_reference(self):
        def reference(sim_seconds):
            return timebase.to_datetime(sim_seconds).strftime(
                "%Y-%m-%dT%H:%M:%S.%f"
            )

        edges = [
            0.0, -0.5, -1e-7, -3600.0, -86_400.0 * 400 - 0.25,
            5e-7, 1.5e-6, 2.5e-6, 86_400.0 + 2.5e-6,
            3599.9999995, 86_399.9999995, 31_535_999.9999995,
        ]
        rng = random.Random(20220101)
        span = 1170 * timebase.DAY
        instants = edges + [rng.uniform(0.0, span) for _ in range(1_000_000)]
        mismatches = [
            (t, timebase.format_syslog_timestamp(t), reference(t))
            for t in instants
            if timebase.format_syslog_timestamp(t) != reference(t)
        ]
        assert not mismatches, mismatches[:5]


class TestSlurmTimestamps:
    def test_format_has_no_microseconds(self):
        text = timebase.format_slurm_timestamp(59.9)
        assert text == "2022-01-01T00:00:59"

    def test_parse_inverts_format_to_second(self):
        instant = 123_456.0
        text = timebase.format_slurm_timestamp(instant)
        assert timebase.parse_slurm_timestamp(text) == instant


class TestDayIndex:
    def test_first_day_is_zero(self):
        assert timebase.day_index(0.0) == 0
        assert timebase.day_index(86_399.999) == 0

    def test_day_boundary(self):
        assert timebase.day_index(86_400.0) == 1

    @given(st.integers(min_value=0, max_value=1200))
    def test_day_index_matches_division(self, day):
        assert timebase.day_index(day * timebase.DAY + 1.0) == day
