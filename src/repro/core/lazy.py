"""Package re-exports resolved on first access (PEP 562).

A package ``__init__`` that re-exports names from its submodules with
``from .x import Name`` imports every submodule, and everything those
import, as soon as any one name is wanted: ``from repro.syslog import
parse_line`` would load the noise generator and, through it, the fault
models and the simulation kernel.  :func:`lazy_exports` gives a package
a module ``__getattr__`` instead, which imports only the submodule that
defines the requested name, the first time it is read, and then caches
the value in the package namespace.  Every public import path keeps
working; what an import costs follows what it uses.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for a package's re-exports.

    Args:
        package: the package's ``__name__``.
        exports: relative submodule name (``".reader"``) → the names it
            defines that the package re-exports.

    A name outside ``exports`` raises ``AttributeError``, so ``from
    package import submodule`` still falls back to importing the
    submodule.
    """
    home: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return list(home), __getattr__, __dir__
