"""Quarantine channel for dirty log input.

Real consolidated syslog is never clean: mid-write crashes truncate
lines, torn writes interleave two lines into one, non-UTF-8 bytes leak
in from serial consoles, NTP steps the clock backwards, and rotation
loses or replays whole day files.  The paper's pipeline survived three
years of such input; ours must too.  Instead of raising on the first
bad byte, every hardened Stage-II component routes rejected and
repaired input through a :class:`Quarantine`, which keeps per-reason
counters plus a bounded sample of offending lines for post-mortems.

Three kinds of incidents are tracked:

* **rejected lines** — dropped entirely (unparseable, torn, ...).
* **repaired lines** — kept after a lossy fix (encoding replacement,
  clock-step clamping).
* **file incidents** — whole-file problems (truncated gzip, unreadable
  file, duplicate day file skipped by deduplication).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Line could not be split into (timestamp, host, message).
REASON_MALFORMED = "malformed"
#: Timestamp field present but unparseable.
REASON_BAD_TIMESTAMP = "bad_timestamp"
#: Hostname field missing (message tag found in the host slot).
REASON_MISSING_HOST = "missing_host"
#: Two lines interleaved by a torn write (embedded second timestamp).
REASON_TORN_WRITE = "torn_write"
#: Undecodable bytes replaced with U+FFFD; line kept (repair).
REASON_ENCODING = "encoding_replaced"
#: Out-of-order timestamp clamped forward (NTP clock step; repair).
REASON_CLOCK_STEP = "clock_step"

#: Gzip day file ended before its end-of-stream marker (partial day).
FILE_TRUNCATED_GZIP = "truncated_gzip"
#: Day file unreadable mid-stream for any other reason (bad CRC, ...).
FILE_CORRUPT = "corrupt_file"
#: Day file could not be opened at all.
FILE_UNREADABLE = "unreadable_file"
#: Duplicate day file (same date, other compression form) skipped.
FILE_DUPLICATE_DAY = "duplicate_day_file"
#: Day file that appeared *after* a later day was already ingested
#: (live follow mode only; replaying it would break the watermark).
FILE_LATE_DAY = "late_day_file"


@dataclass(frozen=True)
class QuarantineRecord:
    """One sampled quarantine incident.

    Attributes:
        reason: one of the ``REASON_*`` / ``FILE_*`` constants.
        detail: the offending raw line (truncated) or file name.
        repaired: True when the input was kept after repair.
    """

    reason: str
    detail: str
    repaired: bool = False


class Quarantine:
    """Collects rejected/repaired input instead of raising.

    Args:
        sample_limit: max sampled records kept *per reason* (counters
            are always exact; samples are a bounded debugging aid).
    """

    #: Longest raw-line excerpt kept in a sample record.
    DETAIL_LIMIT = 200

    #: Default max sampled records per reason (shared with the sharded
    #: pipeline, whose per-shard event caps must match this bound).
    DEFAULT_SAMPLE_LIMIT = 10

    def __init__(self, sample_limit: int = DEFAULT_SAMPLE_LIMIT) -> None:
        self._sample_limit = sample_limit
        self.rejected: Counter = Counter()
        self.repaired: Counter = Counter()
        self.file_incidents: Counter = Counter()
        self.samples: List[QuarantineRecord] = []

    def _sample(self, reason: str, detail: str, repaired: bool) -> None:
        seen = sum(1 for r in self.samples if r.reason == reason)
        if seen < self._sample_limit:
            self.samples.append(
                QuarantineRecord(
                    reason=reason,
                    detail=detail[: self.DETAIL_LIMIT],
                    repaired=repaired,
                )
            )

    def reject(self, reason: str, line: str) -> None:
        """Record one dropped line."""
        self.rejected[reason] += 1
        self._sample(reason, line.rstrip("\n"), repaired=False)

    def repair(self, reason: str, detail: str) -> None:
        """Record one line kept after a lossy repair."""
        self.repaired[reason] += 1
        self._sample(reason, detail, repaired=True)

    def file_incident(self, reason: str, name: str) -> None:
        """Record one whole-file problem."""
        self.file_incidents[reason] += 1
        self._sample(reason, name, repaired=False)

    def record_sample(self, reason: str, detail: str, repaired: bool) -> None:
        """Append one sample *without* touching the counters.

        The sharded pipeline accounts counters in bulk via
        :meth:`restore` and replays the per-shard sample events in
        global line order through this hook, so a parallel pass
        reconstructs exactly the sample list a serial pass records.
        """
        self._sample(reason, detail, repaired=repaired)

    @property
    def total_rejected(self) -> int:
        """Lines dropped across all reasons."""
        return sum(self.rejected.values())

    @property
    def total_repaired(self) -> int:
        """Lines kept after repair across all reasons."""
        return sum(self.repaired.values())

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Current counters as plain dicts (checkpoint serialization)."""
        return {
            "rejected": dict(self.rejected),
            "repaired": dict(self.repaired),
            "file_incidents": dict(self.file_incidents),
        }

    def restore(self, counts: Dict[str, Dict[str, int]]) -> None:
        """Add counter deltas in :meth:`snapshot` form (a merged day
        scan's, or a resumed stream checkpoint's)."""
        self.rejected.update(counts.get("rejected", {}))
        self.repaired.update(counts.get("repaired", {}))
        self.file_incidents.update(counts.get("file_incidents", {}))
