"""Day-partitioned syslog writer.

Delta consolidates system logs into one file per day across all nodes
(Section III-A), typically gzip-compressing older days.  The writer
reproduces that layout::

    <out_dir>/syslog-2022-05-05.log        (plain)
    <out_dir>/syslog-2022-05-06.log.gz     (with compress=True)
    ...

Lines inside a day file are time-ordered.  The reader half
(:mod:`repro.syslog.reader`) streams both forms back transparently for
Stage-II extraction.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Iterable, List, Union

import numpy as np

from ..core.timebase import DAY, format_syslog_timestamps, to_datetime
from .records import LogBus, LogRecord

#: Lines rendered per write: bounds the text held at once, since a
#: defective-episode day alone can hold ~70k lines.
RENDER_CHUNK_LINES = 8192


def day_file_name(day_start: float, compress: bool = False) -> str:
    """File name for the day beginning at ``day_start`` seconds."""
    suffix = ".log.gz" if compress else ".log"
    return f"syslog-{to_datetime(day_start).strftime('%Y-%m-%d')}{suffix}"


def _open_day_file(path: Path, compress: bool):
    if compress:
        return gzip.open(path, "wt", encoding="utf-8")
    return open(path, "w", encoding="utf-8")


def write_day_partitioned(
    out_dir: Path,
    records: Union[LogBus, Iterable[LogRecord]],
    compress: bool = False,
) -> List[Path]:
    """Write a bus (or records) into per-day files; returns the files created.

    Lines are ordered globally first — by time, then host, ties in emit
    order — so each day file is internally ordered and files are
    produced in chronological order.  A line's file is its day
    ``time // DAY``; its text is rendered in chunks of
    :data:`RENDER_CHUNK_LINES`.  With ``compress=True`` each day file
    is gzip-compressed (the archival form of Delta's consolidated logs).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    bus = records
    if not isinstance(bus, LogBus):
        bus = LogBus()
        bus.extend(records)
    times, hosts, messages = bus.ordered_columns()
    days = times // DAY
    starts = np.flatnonzero(np.diff(days, prepend=-np.inf)).tolist()
    paths: List[Path] = []
    for lo, hi in zip(starts, starts[1:] + [len(times)]):
        path = out_dir / day_file_name(int(days[lo]) * DAY, compress)
        paths.append(path)
        with _open_day_file(path, compress) as handle:
            for start in range(lo, hi, RENDER_CHUNK_LINES):
                stop = min(start + RENDER_CHUNK_LINES, hi)
                stamps = format_syslog_timestamps(times[start:stop]).tolist()
                lines = zip(stamps, hosts[start:stop], messages[start:stop])
                handle.write("\n".join(map(" ".join, lines)))
                handle.write("\n")
    return paths
