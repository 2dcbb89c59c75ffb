"""Pipeline health accounting over dirty input.

A hardened pipeline that silently swallows corruption is as dangerous
as one that crashes on it: operators must be able to see *how much*
telemetry was lost or repaired before trusting the derived statistics.
:class:`PipelineHealthReport` aggregates the quarantine channel, the
file-incident log, and day-coverage accounting into one auditable
record attached to every :class:`~repro.pipeline.run.PipelineResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from typing import Dict, List, Sequence

from ..syslog.quarantine import Quarantine


def day_coverage(day_stems: Sequence[str]) -> tuple:
    """(days present, interior days missing) for ``syslog-YYYY-MM-DD`` stems.

    A rotation gap shows up as a hole between the first and last date
    actually present; days outside that range are unknowable from the
    directory alone and are not counted as missing.
    """
    dates = set()
    for stem in day_stems:
        try:
            dates.add(date.fromisoformat(stem.split("syslog-", 1)[-1]))
        except ValueError:
            continue
    if not dates:
        return 0, 0
    spanned = (max(dates) - min(dates)).days + 1
    return len(dates), spanned - len(dates)


@dataclass
class PipelineHealthReport:
    """Data-quality accounting for one Stage-II pass.

    Attributes:
        lines_read: raw lines streamed from disk (blank lines
            included).
        parsed_lines: lines surviving parse + quarantine.
        quarantined: dropped-line counts by reason code.
        repaired: repaired-line counts by reason code.
        file_incidents: whole-file incident counts by reason code.
        days_present: day files contributing lines.
        days_missing: interior rotation gaps (dates absent between the
            first and last present day).
        resumed_files: day files replayed from the scan cache rather
            than re-read from raw logs.  Host-domain, like
            ``PipelineResult.scan``: excluded from equality, because a
            warm pass must compare equal to a cold one.
        quarantine_samples: bounded sample of offending lines, as
            ``(reason, excerpt)`` pairs, for post-mortems.
    """

    lines_read: int = 0
    parsed_lines: int = 0
    quarantined: Dict[str, int] = field(default_factory=dict)
    repaired: Dict[str, int] = field(default_factory=dict)
    file_incidents: Dict[str, int] = field(default_factory=dict)
    days_present: int = 0
    days_missing: int = 0
    resumed_files: int = field(default=0, compare=False)
    quarantine_samples: List[tuple] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        quarantine: Quarantine,
        lines_read: int,
        parsed_lines: int,
        day_stems: Sequence[str],
        resumed_files: int = 0,
    ) -> "PipelineHealthReport":
        """Assemble the report from a finished pass's raw accounting."""
        present, missing = day_coverage(day_stems)
        return cls(
            lines_read=lines_read,
            parsed_lines=parsed_lines,
            quarantined=dict(quarantine.rejected),
            repaired=dict(quarantine.repaired),
            file_incidents=dict(quarantine.file_incidents),
            days_present=present,
            days_missing=missing,
            resumed_files=resumed_files,
            quarantine_samples=[
                (r.reason, r.detail) for r in quarantine.samples
            ],
        )

    @property
    def total_quarantined(self) -> int:
        """Lines dropped across all reasons."""
        return sum(self.quarantined.values())

    @property
    def total_repaired(self) -> int:
        """Lines repaired across all reasons."""
        return sum(self.repaired.values())

    @property
    def line_retention(self) -> float:
        """Fraction of non-blank scanned lines that survived parsing."""
        considered = self.parsed_lines + self.total_quarantined
        if considered == 0:
            return 1.0
        return self.parsed_lines / considered

    @property
    def day_coverage_fraction(self) -> float:
        """Fraction of the spanned date range actually present."""
        spanned = self.days_present + self.days_missing
        if spanned == 0:
            return 1.0
        return self.days_present / spanned

    @property
    def completeness(self) -> float:
        """Estimated fraction of the emitted telemetry that was analyzed.

        The product of day coverage (whole-file loss) and line
        retention (line-level loss); 1.0 on a clean run.
        """
        return self.day_coverage_fraction * self.line_retention

    @property
    def is_clean(self) -> bool:
        """True when nothing was quarantined, repaired, or lost."""
        return (
            self.total_quarantined == 0
            and self.total_repaired == 0
            and not self.file_incidents
            and self.days_missing == 0
        )

    def render(self) -> str:
        """Human-readable health summary (CLI output)."""
        lines = [
            "pipeline health:",
            f"  lines read:       {self.lines_read}",
            f"  lines parsed:     {self.parsed_lines}",
            f"  days present:     {self.days_present}"
            + (f" ({self.days_missing} missing)" if self.days_missing else ""),
            f"  completeness:     {self.completeness:.4%}",
        ]
        if self.resumed_files:
            lines.append(
                f"  resumed from scan cache: {self.resumed_files} day files"
            )
        if self.quarantined:
            lines.append(f"  quarantined lines: {self.total_quarantined}")
            for reason in sorted(self.quarantined):
                lines.append(f"    {reason:<20} {self.quarantined[reason]}")
        if self.repaired:
            lines.append(f"  repaired lines:    {self.total_repaired}")
            for reason in sorted(self.repaired):
                lines.append(f"    {reason:<20} {self.repaired[reason]}")
        if self.file_incidents:
            lines.append("  file incidents:")
            for reason in sorted(self.file_incidents):
                lines.append(f"    {reason:<20} {self.file_incidents[reason]}")
        if self.is_clean:
            lines.append("  input was clean (nothing quarantined or repaired)")
        return "\n".join(lines)
