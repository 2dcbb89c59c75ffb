"""Stage-II extraction: regex filtering of raw syslog (Fig. 1-(1)).

The extractor streams day-partitioned raw logs, pattern-matches the
NVRM XID lines and the driver's uncorrectable-ECC accounting lines,
applies the study's selection rules (only the Table I codes; XID 13
and 43 explicitly excluded), and resolves PCI bus addresses to GPU
indices through the hardware inventory.

Output is a time-ordered stream of *raw error hits* — one per matching
log line — which the coalescing stage reduces to logical errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from ..cluster.inventory import Inventory
from ..core.exceptions import LogFormatError
from ..core.xid import EventClass, classify_xid, is_excluded
from ..syslog.reader import RawLine, iter_raw_lines, parse_line

#: Literal shared by both analyzed patterns.  The per-line prefilter
#: in :meth:`XidExtractor.extract_line` and the bytes-first scanner
#: (:mod:`repro.pipeline.bytescan`) both gate on it before any regex
#: or even any UTF-8 decode runs.
NVRM_MARKER = "NVRM:"

#: Matches NVRM XID lines: ``NVRM: Xid (PCI:0000:C7:00): 79, ...``.
XID_PATTERN = re.compile(
    r"NVRM: Xid \(PCI:(?P<pci>[0-9A-Fa-f:]+)\): (?P<xid>\d+),"
)

#: Matches the driver's aggregate uncorrectable-ECC accounting line.
ECC_PATTERN = re.compile(
    r"NVRM: GPU at PCI:(?P<pci>[0-9A-Fa-f:]+): uncorrectable ECC error"
)


@dataclass(frozen=True)
class ErrorHit:
    """One raw log line that matched an analyzed error pattern.

    Attributes:
        time: line timestamp (simulation seconds).
        node: hostname field.
        gpu_index: GPU index resolved via the inventory (``None`` when
            the PCI address is not in the inventory).
        pci_address: raw PCI address from the line.
        event_class: classified event class.
        xid: the XID code (``None`` for ECC accounting lines).
    """

    time: float
    node: str
    gpu_index: Optional[int]
    pci_address: str
    event_class: EventClass
    xid: Optional[int]


@dataclass
class ExtractionStats:
    """Counters describing one extraction pass.

    Attributes:
        total_lines: raw lines scanned.
        matched_lines: lines matching an analyzed pattern.
        excluded_xid_lines: XID 13/43 lines skipped by the selection
            rule.
        unknown_xid_lines: XID codes outside the study (neither
            analyzed nor excluded).
        malformed_lines: lines that failed to parse.
        unresolved_pci_lines: matched lines whose PCI address was not
            in the inventory.
    """

    total_lines: int = 0
    matched_lines: int = 0
    excluded_xid_lines: int = 0
    unknown_xid_lines: int = 0
    malformed_lines: int = 0
    unresolved_pci_lines: int = 0


class XidExtractor:
    """Streaming extractor over raw syslog lines.

    Args:
        inventory: PCI → GPU-index resolution table (``None`` leaves
            ``gpu_index`` unresolved, falling back to PCI-keyed
            coalescing downstream).
    """

    def __init__(self, inventory: Optional[Inventory] = None) -> None:
        self._inventory = inventory
        self.stats = ExtractionStats()
        # Memoized (host, pci) -> gpu_index resolution: day files repeat
        # the same few hundred addresses millions of times.
        self._resolve_cache: dict = {}

    def extract_line(self, line: RawLine) -> Optional[ErrorHit]:
        """Classify one parsed log line; ``None`` when not analyzed.

        The hot path is guarded by literal prefilters: both analyzed
        patterns contain ``"NVRM:"``, so the overwhelming majority of
        lines skip regex matching entirely, and each precompiled
        pattern only runs when its own distinguishing literal is
        present.
        """
        self.stats.total_lines += 1
        message = line.message
        if NVRM_MARKER not in message:
            return None
        if "Xid (" in message:
            match = XID_PATTERN.search(message)
            if match is not None:
                xid = int(match.group("xid"))
                if is_excluded(xid):
                    self.stats.excluded_xid_lines += 1
                    return None
                event_class = classify_xid(xid)
                if event_class is None:
                    self.stats.unknown_xid_lines += 1
                    return None
                return self._hit(line, match.group("pci"), event_class, xid)
        if "uncorrectable ECC error" in message:
            match = ECC_PATTERN.search(message)
            if match is not None:
                return self._hit(
                    line, match.group("pci"), EventClass.UNCORRECTABLE_ECC, None
                )
        return None

    def resolve_gpu(self, host: str, pci: str) -> Optional[int]:
        """Memoized PCI → GPU-index resolution, with accounting.

        Shared by :meth:`_hit` and the bytes-first scanner
        (:mod:`repro.pipeline.bytescan`), so both paths hit the same
        memo and count unresolved addresses identically.
        """
        if self._inventory is None:
            return None
        key = (host, pci)
        try:
            gpu_index = self._resolve_cache[key]
        except KeyError:
            gpu_index = self._inventory.resolve(host, pci)
            self._resolve_cache[key] = gpu_index
        if gpu_index is None:
            self.stats.unresolved_pci_lines += 1
        return gpu_index

    def _hit(
        self,
        line: RawLine,
        pci: str,
        event_class: EventClass,
        xid: Optional[int],
    ) -> ErrorHit:
        gpu_index = self.resolve_gpu(line.host, pci)
        self.stats.matched_lines += 1
        return ErrorHit(
            time=line.time,
            node=line.host,
            gpu_index=gpu_index,
            pci_address=pci,
            event_class=event_class,
            xid=xid,
        )

    def extract_directory(self, log_dir: Path) -> Iterator[ErrorHit]:
        """Stream hits from a day-partitioned syslog directory.

        Malformed lines are counted and skipped, not fatal: tolerance
        is applied per raw line, before parsing.
        """
        for raw in iter_raw_lines(log_dir):
            if not raw.strip():
                continue
            try:
                line = parse_line(raw)
            except LogFormatError:
                self.stats.malformed_lines += 1
                continue
            hit = self.extract_line(line)
            if hit is not None:
                yield hit
