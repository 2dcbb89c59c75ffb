"""In-memory log records and the log bus.

Every subsystem that produces log text (the NVRM driver model, slurmctld,
health checks, background noise) appends lines to a shared
:class:`LogBus`.  The bus keeps them unordered as parallel columns
(time, interned host id, message reference) and orders them once at
flush time — cheaper than keeping 10^6 lines sorted online, and
faithful to how per-day consolidated logs end up ordered on Delta.
:class:`LogRecord` is the one-line view of the same data.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..core.timebase import format_syslog_timestamp


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One raw log line before rendering.

    Attributes:
        time: simulation time (seconds).
        host: originating node name.
        message: the body after the hostname (includes the facility
            prefix, e.g. ``"kernel: NVRM: Xid ..."``).
    """

    time: float
    host: str
    message: str

    def render(self) -> str:
        """Render the full syslog line."""
        return f"{format_syslog_timestamp(self.time)} {self.host} {self.message}"


class LogBus:
    """Unordered log lines as parallel columns, ordered at flush time.

    ``time`` is a float64 column, ``host`` an id into the interned host
    names, and ``message`` a reference to the caller's string, so the
    duplicates of a burst share one string object.
    """

    def __init__(self) -> None:
        self._times = array("d")
        self._host_ids = array("q")
        self._messages: List[str] = []
        self._host_index: Dict[str, int] = {}

    def _intern(self, host: str) -> int:
        return self._host_index.setdefault(host, len(self._host_index))

    def emit(self, time: float, host: str, message: str) -> None:
        """Append one line."""
        self._times.append(time)
        self._host_ids.append(self._intern(host))
        self._messages.append(message)

    def emit_burst(self, times: np.ndarray, host: str, message: str) -> None:
        """Append one line per entry of ``times``, all with one host and
        message: the same lines as a loop of :meth:`emit`, in order."""
        times = np.ascontiguousarray(times, dtype=np.float64)
        self._times.frombytes(times.tobytes())
        self._host_ids.extend(array("q", [self._intern(host)]) * len(times))
        self._messages.extend([message] * len(times))

    def extend(self, records: Iterable[LogRecord]) -> None:
        """Append many records."""
        for record in records:
            self.emit(record.time, record.host, record.message)

    def __len__(self) -> int:
        return len(self._times)

    def ordered_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(time, host, message)`` columns in (time, host) order.

        One stable ``np.lexsort`` on time, then the rank of the host
        name, so lines equal in both keep their emit order: the order a
        stable Python sort on the ``(time, host)`` key gives.  Hosts and
        messages come back as object arrays of the bus's strings.
        """
        names = list(self._host_index)
        rank = np.empty(len(names), dtype=np.int64)
        rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(
            len(names)
        )
        times = np.frombuffer(self._times, dtype=np.float64)
        host_ids = np.frombuffer(self._host_ids, dtype=np.int64)
        order = np.lexsort((rank[host_ids], times))
        hosts = np.array(names, dtype=object)[host_ids[order]]
        messages = np.array(self._messages, dtype=object)[order]
        return times[order], hosts, messages

    def sorted_records(self) -> List[LogRecord]:
        """All records in (time, host) order; does not mutate the bus."""
        times, hosts, messages = self.ordered_columns()
        return list(map(LogRecord, times.tolist(), hosts, messages))
