"""Syslog substrate: NVRM line formats, log bus, day-partitioned
writer/reader, benign noise, corruption chaos layer, and quarantine."""

from ..core.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".chaos": ("ChaosConfig", "ChaosInjector", "ChaosReport", "corrupt_artifacts"),
    ".noise": ("NoiseConfig", "generate_noise"),
    ".nvrm": ("ecc_accounting_line", "render_event_line", "xid_line"),
    ".quarantine": ("Quarantine", "QuarantineRecord"),
    ".reader": (
        "RawLine",
        "dedupe_day_files",
        "list_day_files",
        "parse_line",
    ),
    ".records": ("LogBus", "LogRecord"),
    ".writer": ("day_file_name", "write_day_partitioned"),
})
