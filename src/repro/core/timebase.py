"""Time base for the Delta resilience study.

All simulation timestamps are measured in *seconds since the study epoch*
(January 1, 2022, 00:00:00 UTC), stored as floats.  This module provides
the epoch, unit constants, and conversions between simulation seconds and
wall-clock ``datetime`` objects, which are needed when rendering syslog
lines and Slurm accounting records (both carry ISO-8601 wall-clock
timestamps, exactly like the artifacts the paper consumed).
"""

from __future__ import annotations

import re
from datetime import date, datetime, timedelta, timezone

#: Study epoch: measurement begins January 2022 (paper, Section III-A).
STUDY_EPOCH = datetime(2022, 1, 1, 0, 0, 0, tzinfo=timezone.utc)

#: One second, the base unit of simulation time.
SECOND = 1.0

#: One minute in simulation seconds.
MINUTE = 60.0

#: One hour in simulation seconds.
HOUR = 3600.0

#: One day in simulation seconds.
DAY = 86400.0

#: One (365-day) year in simulation seconds.
YEAR = 365.0 * DAY


def to_datetime(sim_seconds: float) -> datetime:
    """Convert simulation seconds since :data:`STUDY_EPOCH` to a UTC datetime.

    >>> to_datetime(0.0).isoformat()
    '2022-01-01T00:00:00+00:00'
    """
    return STUDY_EPOCH + timedelta(seconds=sim_seconds)


def from_datetime(moment: datetime) -> float:
    """Convert a datetime to simulation seconds since :data:`STUDY_EPOCH`.

    Naive datetimes are interpreted as UTC, which matches how Delta's
    consolidated per-day logs are stamped.
    """
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return (moment - STUDY_EPOCH).total_seconds()


#: ``YYYY-MM-DDTHH`` of each (day, hour) since the epoch, filled on
#: demand: at most 24 entries per study day.
_HOUR_PREFIX_CACHE: dict = {}


def format_syslog_timestamp(sim_seconds: float) -> str:
    """Render a simulation time as the ISO timestamp used in syslog lines.

    Same text as ``to_datetime(sim_seconds).strftime(...)`` with
    ``%Y-%m-%dT%H:%M:%S.%f``, but cheaper: the syslog writer calls it
    once per line.  ``timedelta`` still does the exact rounding to whole
    microseconds; the date and hour come from a per-hour prefix cache
    and the rest from the ``timedelta``'s integer fields, since the
    epoch is a midnight.
    """
    delta = timedelta(seconds=sim_seconds)
    hour, rest = divmod(delta.seconds, 3600)
    key = (delta.days, hour)
    prefix = _HOUR_PREFIX_CACHE.get(key)
    if prefix is None:
        moment = STUDY_EPOCH + timedelta(days=delta.days, hours=hour)
        prefix = moment.strftime("%Y-%m-%dT%H")
        _HOUR_PREFIX_CACHE[key] = prefix
    minute, second = divmod(rest, 60)
    return "%s:%02d:%02d.%06d" % (prefix, minute, second, delta.microseconds)


#: Exact shape emitted by :func:`format_syslog_timestamp`; anything
#: else (short fractions, stray signs, unicode digits) takes the
#: ``strptime`` path so the error behaviour stays canonical.
_CANONICAL_TIMESTAMP = re.compile(
    r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{6}$", re.ASCII
)

#: Seconds-since-epoch of each date's midnight, filled on demand.  The
#: study spans ~1200 distinct days, so this stays tiny.
_MIDNIGHT_CACHE: dict = {}

_EPOCH_DATE = STUDY_EPOCH.date()


def parse_syslog_timestamp(text: str) -> float:
    """Parse a syslog ISO timestamp back into simulation seconds.

    This is the inverse of :func:`format_syslog_timestamp` and is used
    by the Stage-II extraction code when reading raw log files — the
    hottest call in the whole pipeline, invoked once per log line.  The
    canonical ``YYYY-MM-DDTHH:MM:SS.ffffff`` shape is parsed by field
    slicing with a per-date midnight cache; the arithmetic mirrors
    ``timedelta.total_seconds()`` exactly (single integer-microsecond
    division) so the fast path is bit-identical to the ``strptime``
    path.  Any deviation from the canonical shape falls back to
    ``strptime`` for identical error semantics.
    """
    if _CANONICAL_TIMESTAMP.match(text) is not None:
        day_part = text[:10]
        midnight_us = _MIDNIGHT_CACHE.get(day_part)
        if midnight_us is None:
            try:
                parsed = date.fromisoformat(day_part)
            except ValueError:
                return _parse_syslog_timestamp_slow(text)
            midnight_us = (parsed - _EPOCH_DATE).days * 86_400_000_000
            _MIDNIGHT_CACHE[day_part] = midnight_us
        hour = int(text[11:13])
        minute = int(text[14:16])
        second = int(text[17:19])
        if hour < 24 and minute < 60 and second < 60:
            micros = (
                midnight_us
                + (hour * 3600 + minute * 60 + second) * 1_000_000
                + int(text[20:])
            )
            return micros / 10**6
    return _parse_syslog_timestamp_slow(text)


def _parse_syslog_timestamp_slow(text: str) -> float:
    """The canonical ``strptime`` parse (error messages included)."""
    moment = datetime.strptime(text, "%Y-%m-%dT%H:%M:%S.%f")
    return from_datetime(moment)


def format_slurm_timestamp(sim_seconds: float) -> str:
    """Render a simulation time in Slurm's ``sacct`` timestamp format."""
    return to_datetime(sim_seconds).strftime("%Y-%m-%dT%H:%M:%S")


#: Exact shape emitted by :func:`format_slurm_timestamp` (whole
#: seconds, no fraction); anything else takes ``strptime``.
_CANONICAL_SLURM_TIMESTAMP = re.compile(
    r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}$", re.ASCII
)


def parse_slurm_timestamp(text: str) -> float:
    """Parse a Slurm ``sacct`` timestamp back into simulation seconds.

    Same structure as :func:`parse_syslog_timestamp` (accounting files
    carry three timestamps per job record, so this is warm on large
    corpora): canonical shapes parse by field slicing against the
    shared per-date midnight cache with the exact
    ``timedelta.total_seconds()`` arithmetic; anything else falls back
    to ``strptime`` for identical error semantics.
    """
    if _CANONICAL_SLURM_TIMESTAMP.match(text) is not None:
        day_part = text[:10]
        midnight_us = _MIDNIGHT_CACHE.get(day_part)
        if midnight_us is None:
            try:
                parsed = date.fromisoformat(day_part)
            except ValueError:
                return from_datetime(
                    datetime.strptime(text, "%Y-%m-%dT%H:%M:%S")
                )
            midnight_us = (parsed - _EPOCH_DATE).days * 86_400_000_000
            _MIDNIGHT_CACHE[day_part] = midnight_us
        hour = int(text[11:13])
        minute = int(text[14:16])
        second = int(text[17:19])
        if hour < 24 and minute < 60 and second < 60:
            micros = (
                midnight_us
                + (hour * 3600 + minute * 60 + second) * 1_000_000
            )
            return micros / 10**6
    moment = datetime.strptime(text, "%Y-%m-%dT%H:%M:%S")
    return from_datetime(moment)


def day_index(sim_seconds: float) -> int:
    """Return the zero-based study day an instant falls on.

    Delta consolidates system logs into one file per day (Section III-A);
    the writer uses this to pick the output file for a log line.
    """
    return int(sim_seconds // DAY)


def hours(sim_seconds: float) -> float:
    """Convert simulation seconds to hours (used by MTBE reporting)."""
    return sim_seconds / HOUR
