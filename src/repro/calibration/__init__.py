"""Paper-derived calibration: fault-suite parameters and reference
values for comparisons."""

from ..core.lazy import lazy_exports
from . import paper

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".delta": (
        "delta_fault_suite",
        "delta_memory_chain",
        "delta_nvlink",
        "delta_simple_faults",
    ),
})
__all__.append("paper")
