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

import numpy as np

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


def format_syslog_timestamp(sim_seconds: float) -> str:
    """Render a simulation time as the ISO timestamp used in syslog lines.

    The one-instant reference form.  The syslog writer renders whole
    columns with :func:`format_syslog_timestamps`, which gives the same
    text element for element.
    """
    return to_datetime(sim_seconds).strftime("%Y-%m-%dT%H:%M:%S.%f")


#: Zero-padded two- and three-digit numerals as UCS-4 code points: the
#: cells :func:`format_syslog_timestamps` fills a stamp from.
_DIGITS2 = np.array(["%02d" % i for i in range(100)]).view(np.uint32).reshape(100, 2)
_DIGITS3 = np.array(["%03d" % i for i in range(1000)]).view(np.uint32).reshape(1000, 3)
_STAMP_TEMPLATE = np.array(["0000-00-00T00:00:00.000000"]).view(np.uint32)

#: Largest magnitude :func:`format_syslog_timestamps` accepts: its
#: microsecond count must fit an int64 (datetime itself ends sooner).
_MAX_ARRAY_SECONDS = 9e12


def _timedelta_micros(sim_seconds: np.ndarray) -> np.ndarray:
    """Whole microseconds of ``timedelta(seconds=t)`` for each ``t``.

    CPython splits the float with ``modf``: the whole seconds convert
    exactly, the fraction times 10**6 is split again, and its leftover
    below one microsecond is rounded half to even on the total count.
    """
    fraction, whole = np.modf(sim_seconds)
    leftover, part = np.modf(fraction * 1e6)
    micros = whole.astype(np.int64) * 1_000_000 + part.astype(np.int64)
    micros += np.rint(leftover).astype(np.int64)
    # rint sends a tie of +-0.5 to zero, which is right for an even count.
    odd_tie = (np.abs(leftover) == 0.5) & (micros & 1 == 1)
    micros[odd_tie] += np.sign(leftover[odd_tie]).astype(np.int64)
    return micros


def format_syslog_timestamps(sim_seconds) -> np.ndarray:
    """Array form of :func:`format_syslog_timestamp`, one ``U26`` per time.

    Same text, element for element: the microseconds are rounded
    exactly as ``timedelta`` rounds them, the date comes from that
    rounded count (so ``86_399.9999996`` reads as the next day), and
    the stamp is assembled from digit tables with one ``strftime`` per
    distinct day.
    """
    times = np.ravel(np.asarray(sim_seconds, dtype=np.float64))
    if not np.all(np.abs(times) < _MAX_ARRAY_SECONDS):
        raise ValueError("syslog times must be finite and within datetime range")
    days, micros = np.divmod(_timedelta_micros(times), 86_400_000_000)
    seconds, micros = np.divmod(micros, 1_000_000)
    hours, seconds = np.divmod(seconds, 3600)
    minutes, seconds = np.divmod(seconds, 60)
    unique_days, day_of = np.unique(days, return_inverse=True)
    dates = np.array(
        [
            (STUDY_EPOCH + timedelta(days=day)).strftime("%Y-%m-%d")
            for day in unique_days.tolist()
        ],
        dtype="U10",
    )
    out = np.empty((len(times), 26), dtype=np.uint32)
    out[:] = _STAMP_TEMPLATE
    out[:, 0:10] = dates.view(np.uint32).reshape(-1, 10)[day_of]
    out[:, 11:13] = _DIGITS2[hours]
    out[:, 14:16] = _DIGITS2[minutes]
    out[:, 17:19] = _DIGITS2[seconds]
    out[:, 20:23] = _DIGITS3[micros // 1000]
    out[:, 23:26] = _DIGITS3[micros % 1000]
    return out.view("U26").ravel()


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
