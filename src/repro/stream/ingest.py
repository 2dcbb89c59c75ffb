"""Incremental Stage-II ingest with durable checkpoint/resume.

:class:`StreamIngest` is the batch Stage-II engine fed by a long-running
process: data arrives from a
:class:`~repro.stream.follow.DirectoryFollower` poll instead of a
batch file walk, error hits feed the watermark-evicting
:class:`~repro.pipeline.coalesce.StreamingCoalescer` instead of an
end-of-run :func:`~repro.pipeline.coalesce.coalesce_columns`, and the
whole mutable state can be serialized between polls for kill/resume.

There is no stream-side line loop.  Each chunk of complete lines the
follower hands over is scanned by the batch bytes-first scanner
(:func:`~repro.pipeline.shard.scan_plain_buffer`; a finished gz day
goes through :func:`~repro.pipeline.shard.scan_day_file` itself) and
folded by the batch :func:`~repro.pipeline.shard.merge_scan` — a poll
chunk is just a smaller shard, and the merge's watermark stitch is
exact for any contiguous split of the line stream.  So a drained
streaming pass over a finished directory reproduces the batch
:class:`~repro.pipeline.run.PipelineResult` field-for-field, quarantine
samples and chaos-corrupted input included; the replay-identity tests
in ``tests/test_stream_identity.py`` enforce this.

Checkpoints are one JSON document written atomically
(:func:`~repro.core.atomicio.atomic_write_json`) strictly *between*
polls, so every persisted offset sits on a line boundary and a killed
service resumes without dropping or double-counting a single line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..cluster.inventory import Inventory
from ..core.atomicio import atomic_write_json, quarantine_aside
from ..core.exceptions import ConfigurationError
from ..core.records import DowntimeRecord, ExtractedError
from ..pipeline.coalesce import (
    DEFAULT_WINDOW_SECONDS,
    StreamingCoalescer,
    WindowMode,
)
from ..pipeline.downtime import DowntimeExtractor
from ..pipeline.extract import ExtractionStats
from ..pipeline.health import PipelineHealthReport, day_coverage
from ..pipeline.metrics import PipelineTotals
from ..pipeline.run import PipelineResult
from ..pipeline.shard import (
    HitColumns,
    merge_scan,
    scan_day_file,
    scan_plain_buffer,
)
from ..syslog.quarantine import Quarantine
from .follow import DirectoryFollower

#: Checkpoint file name inside the checkpoint directory.
CHECKPOINT_FILE = "stream_checkpoint.json"

#: Checkpoint schema version; bump on incompatible changes.
CHECKPOINT_VERSION = 1

_NEG_INF = float("-inf")


class DamagedCheckpointError(ConfigurationError):
    """The checkpoint file exists but its content is unusable.

    Distinct from the deliberate refusals (wrong directory, wrong
    schema version) so the service layer can quarantine the damage and
    restart from scratch while still refusing to resume someone else's
    offsets.
    """


@dataclass
class PollOutcome:
    """What one ingest poll produced.

    Attributes:
        lines: raw lines ingested this poll (blanks included).
        completed: coalesced errors newly completed this poll, in
            completion order (push-completions first, then evictions) —
            the feed for online estimators and alert rules.
        drained: True when this outcome came from the final drain.
    """

    lines: int = 0
    completed: List[ExtractedError] = field(default_factory=list)
    drained: bool = False


class StreamIngest:
    """Streaming Stage-II over a growing syslog directory.

    Args:
        syslog_dir: directory of ``syslog-YYYY-MM-DD.log[.gz]`` files.
        window_seconds: coalescing Δt.
        mode: coalescing window semantics.
        inventory: optional hardware inventory for PCI→GPU resolution
            (same role as in the batch pipeline).
    """

    def __init__(
        self,
        syslog_dir: Path,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        mode: WindowMode = WindowMode.TUMBLING,
        inventory: Optional[Inventory] = None,
    ) -> None:
        self._syslog_dir = Path(syslog_dir)
        self._inventory = inventory
        self.quarantine = Quarantine()
        self.follower = DirectoryFollower(self._syslog_dir, self.quarantine)
        self._stats = ExtractionStats()
        self.coalescer = StreamingCoalescer(window_seconds, mode)
        self._downtime = DowntimeExtractor()
        self._watermark = _NEG_INF
        self._lines_read = 0
        self._parsed_lines = 0
        self._raw_hits = 0
        self._drained = False
        self._final_downtime: Optional[List[DowntimeRecord]] = None
        self._poll_completed: List[ExtractedError] = []

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    @property
    def watermark(self) -> float:
        """Largest (clamped) log timestamp ingested so far."""
        return self._watermark

    @property
    def drained(self) -> bool:
        """True after :meth:`drain` closed the stream."""
        return self._drained

    @property
    def lines_read(self) -> int:
        """Raw lines ingested (blank lines included)."""
        return self._lines_read

    @property
    def raw_hits(self) -> int:
        """Matched raw hits before coalescing."""
        return self._raw_hits

    def _consume(self, data: Union[bytes, Path]) -> int:
        """Scan and fold one follower hand-over; returns its line count.

        A chunk of complete lines (or a finished gz day) is scanned
        and merged exactly like one batch day file.  ``lines_read``
        moves after every chunk, so a supervisor watching it sees a
        long backlog poll make progress.
        """
        if isinstance(data, Path):
            scan = scan_day_file(data, self._inventory)
        else:
            scan = scan_plain_buffer(data, "", self._inventory)
        hits = HitColumns()
        self._watermark = merge_scan(
            scan,
            self._watermark,
            self.quarantine,
            self._stats,
            self._downtime,
            hits,
        )
        self._parsed_lines += scan.parsed_lines
        self._raw_hits += len(hits)
        self._poll_completed.extend(self.coalescer.push_columns(hits))
        self._lines_read += scan.lines_read
        return scan.lines_read

    def poll(self, final: bool = False) -> PollOutcome:
        """One follow-and-ingest cycle.

        Reads every newly available line, then evicts coalescing
        groups the watermark has passed.  Returns the lines consumed
        and the errors that completed (the estimator/alert feed).
        """
        if self._drained:
            return PollOutcome(drained=True)
        self._poll_completed = []
        lines = self.follower.poll(self._consume, final=final)
        completed = self._poll_completed
        self._poll_completed = []
        if self._watermark != _NEG_INF:
            completed.extend(self.coalescer.evict(self._watermark))
        return PollOutcome(lines=lines, completed=completed)

    def drain(self) -> PollOutcome:
        """End of stream: final poll, coalescer flush, downtime close.

        After draining, :meth:`result` is the batch-identical answer.
        Idempotent — a second drain is an empty outcome.
        """
        if self._drained:
            return PollOutcome(drained=True)
        outcome = self.poll(final=True)
        outcome.completed.extend(self.coalescer.drain())
        outcome.drained = True
        self._final_downtime = self._downtime.finish()
        self._drained = True
        return outcome

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def errors(self) -> List[ExtractedError]:
        """Completed errors in batch order (final after :meth:`drain`)."""
        return self.coalescer.errors()

    def downtime_records(self) -> List[DowntimeRecord]:
        """Completed downtime episodes so far, in start order."""
        if self._final_downtime is not None:
            return list(self._final_downtime)
        return self._downtime.records()

    @property
    def open_outages(self) -> int:
        """Nodes currently out of service."""
        return self._downtime.open_outages

    def health(self) -> PipelineHealthReport:
        """The live data-quality report (same builder as batch)."""
        return PipelineHealthReport.build(
            self.quarantine,
            lines_read=self._lines_read,
            parsed_lines=self._parsed_lines,
            day_stems=self.follower.day_stems(),
        )

    def result(self) -> PipelineResult:
        """The batch-shaped result of the stream (requires drain).

        Field-for-field comparable with
        :func:`~repro.pipeline.run.run_pipeline` over the same
        finished directory (with ``load_jobs=False`` — the streamer
        has no accounting CSV to load).
        """
        if not self._drained:
            raise ConfigurationError(
                "stream result requires drain(); the coalescer still "
                "holds open groups"
            )
        return PipelineResult(
            errors=self.errors(),
            downtime=self.downtime_records(),
            jobs=[],
            extraction_stats=self._stats,
            coalesce_window_seconds=self.coalescer.window_seconds,
            raw_hits=self._raw_hits,
            health=self.health(),
        )

    def totals(self) -> PipelineTotals:
        """Current cumulative accounting for shared metric publication."""
        present, missing = day_coverage(self.follower.day_stems())
        health = self.health()
        stats = self._stats
        return PipelineTotals(
            lines_read=self._lines_read,
            parsed_lines=self._parsed_lines,
            bytes_read=self.follower.stats.bytes_read,
            matched_lines=stats.matched_lines,
            excluded_xid_lines=stats.excluded_xid_lines,
            malformed_lines=stats.malformed_lines,
            raw_hits=self._raw_hits,
            coalesced_errors=self.coalescer.completed_count,
            downtime_episodes=self._downtime.stats.episodes,
            job_records=0,
            quarantined=dict(self.quarantine.rejected),
            repaired=dict(self.quarantine.repaired),
            file_incidents=dict(self.quarantine.file_incidents),
            days_present=present,
            days_missing=missing,
            completeness=health.completeness,
        )

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------

    def to_state(self) -> Dict[str, object]:
        """Full mutable state as one JSON-serializable document.

        Only valid between polls (the follower's offsets must sit on
        line boundaries).
        """
        return {
            "version": CHECKPOINT_VERSION,
            "syslog_dir": str(self._syslog_dir.resolve()),
            "window_seconds": self.coalescer.window_seconds,
            "mode": self.coalescer.mode.value,
            "watermark": (
                None if self._watermark == _NEG_INF else self._watermark
            ),
            "lines_read": self._lines_read,
            "parsed_lines": self._parsed_lines,
            "raw_hits": self._raw_hits,
            "drained": self._drained,
            "follower": self.follower.state(),
            "coalescer": self.coalescer.to_state(),
            "downtime": self._downtime.to_state(),
            "quarantine": {
                "counters": self.quarantine.snapshot(),
                "samples": [
                    [r.reason, r.detail, r.repaired]
                    for r in self.quarantine.samples
                ],
            },
            "extraction_stats": {
                name: value
                for name, value in vars(self._stats).items()
                if value
            },
        }

    def checkpoint(self, checkpoint_dir: Path) -> Path:
        """Atomically persist :meth:`to_state` under ``checkpoint_dir``."""
        path = Path(checkpoint_dir) / CHECKPOINT_FILE
        atomic_write_json(path, self.to_state())
        return path

    @classmethod
    def from_state(
        cls,
        syslog_dir: Path,
        state: Dict[str, object],
        inventory: Optional[Inventory] = None,
    ) -> "StreamIngest":
        """Rebuild an ingest from :meth:`to_state` output.

        Raises :class:`~repro.core.exceptions.ConfigurationError` on a
        version or directory mismatch — resuming someone else's
        offsets against a different log directory would silently
        corrupt every downstream figure.
        """
        if state.get("version") != CHECKPOINT_VERSION:
            raise ConfigurationError(
                f"unsupported stream checkpoint version "
                f"{state.get('version')!r} (expected {CHECKPOINT_VERSION})"
            )
        recorded = state.get("syslog_dir")
        actual = str(Path(syslog_dir).resolve())
        if recorded != actual:
            raise ConfigurationError(
                f"stream checkpoint was taken against {recorded}, not "
                f"{actual}; refusing to resume"
            )
        self = cls(
            Path(syslog_dir),
            window_seconds=float(state["window_seconds"]),  # type: ignore[arg-type]
            mode=WindowMode(state["mode"]),
            inventory=inventory,
        )
        watermark = state.get("watermark")
        self._watermark = _NEG_INF if watermark is None else float(watermark)  # type: ignore[arg-type]
        self._lines_read = int(state["lines_read"])  # type: ignore[call-overload]
        self._parsed_lines = int(state["parsed_lines"])  # type: ignore[call-overload]
        self._raw_hits = int(state["raw_hits"])  # type: ignore[call-overload]
        self._drained = bool(state["drained"])
        self.follower = DirectoryFollower.restore(
            self._syslog_dir, state["follower"], self.quarantine  # type: ignore[arg-type]
        )
        self.coalescer = StreamingCoalescer.from_state(state["coalescer"])  # type: ignore[arg-type]
        self._downtime = DowntimeExtractor.from_state(state["downtime"])  # type: ignore[arg-type]
        quarantine_state = state["quarantine"]
        self.quarantine.restore(quarantine_state["counters"])  # type: ignore[index]
        for reason, detail, repaired in quarantine_state["samples"]:  # type: ignore[index]
            self.quarantine.record_sample(reason, detail, bool(repaired))
        for name, value in state["extraction_stats"].items():  # type: ignore[union-attr]
            setattr(self._stats, name, value)
        return self

    @classmethod
    def resume(
        cls,
        syslog_dir: Path,
        checkpoint_dir: Path,
        inventory: Optional[Inventory] = None,
    ) -> Optional["StreamIngest"]:
        """Resume from a checkpoint directory, or ``None`` when absent.

        A damaged checkpoint (torn, non-JSON, or structurally invalid)
        raises :class:`DamagedCheckpointError` — the atomic writer
        makes that impossible in normal operation, so damage means
        something external happened.  The service layer catches it via
        :meth:`resume_or_quarantine`; library callers that resume
        directly keep the strict behavior.  Wrong-directory and
        wrong-version checkpoints raise the plain refusal
        (:class:`~repro.core.exceptions.ConfigurationError`) — those
        are operator mistakes, not damage.
        """
        import json

        path = Path(checkpoint_dir) / CHECKPOINT_FILE
        if not path.exists():
            return None
        try:
            state = json.loads(path.read_text("utf-8"))
        except ValueError as exc:
            raise DamagedCheckpointError(
                f"damaged stream checkpoint at {path}: {exc}"
            ) from exc
        if not isinstance(state, dict):
            raise DamagedCheckpointError(
                f"damaged stream checkpoint at {path}: not a JSON object"
            )
        try:
            return cls.from_state(syslog_dir, state, inventory=inventory)
        except ConfigurationError:
            raise  # deliberate refusal (wrong dir / version)
        except (KeyError, TypeError, ValueError) as exc:
            raise DamagedCheckpointError(
                f"damaged stream checkpoint at {path}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    @classmethod
    def resume_or_quarantine(
        cls,
        syslog_dir: Path,
        checkpoint_dir: Path,
        inventory: Optional[Inventory] = None,
    ) -> tuple:
        """Service-grade resume: damage is quarantined, not fatal.

        Returns ``(ingest, quarantined_path)`` where ``ingest`` is
        ``None`` when there was nothing usable to resume (no
        checkpoint, or a damaged one) and ``quarantined_path`` is the
        ``<name>.corrupt-<n>`` destination when damage was found.  The
        wrong-directory and wrong-version refusals still raise — they
        protect against resuming the wrong offsets, which quarantining
        would silently paper over.
        """
        try:
            return cls.resume(syslog_dir, checkpoint_dir, inventory), None
        except DamagedCheckpointError:
            quarantined = quarantine_aside(
                Path(checkpoint_dir) / CHECKPOINT_FILE
            )
            return None, quarantined
