"""Meta-tests over the public API surface.

Checks the documentation contract (every public module, class, and
function carries a docstring), that the package exports declared in
``__all__`` actually resolve, and that the entry points start without
scipy or networkx, which are not runtime dependencies.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.sim",
    "repro.cluster",
    "repro.gpu",
    "repro.faults",
    "repro.ops",
    "repro.slurm",
    "repro.workload",
    "repro.syslog",
    "repro.study",
    "repro.pipeline",
    "repro.stream",
    "repro.obs",
    "repro.loadgen",
    "repro.analysis",
    "repro.reporting",
    "repro.calibration",
]


def iter_modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                yield importlib.import_module(f"{package_name}.{info.name}")


ALL_MODULES = list(iter_modules())


class TestDocstrings:
    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=lambda m: m.__name__
    )
    def test_module_docstring(self, module):
        assert module.__doc__, f"{module.__name__} lacks a module docstring"

    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=lambda m: m.__name__
    )
    def test_public_members_documented(self, module):
        undocumented = []
        for name, member in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(member) or inspect.isfunction(member)):
                continue
            if getattr(member, "__module__", None) != module.__name__:
                continue  # re-exports are documented at their home
            if not inspect.getdoc(member):
                undocumented.append(name)
            elif inspect.isclass(member):
                for method_name, method in vars(member).items():
                    if method_name.startswith("_"):
                        continue
                    if inspect.isfunction(method) and not inspect.getdoc(method):
                        undocumented.append(f"{name}.{method_name}")
        assert not undocumented, (
            f"{module.__name__}: undocumented public members: {undocumented}"
        )


class TestExports:
    @pytest.mark.parametrize(
        "module",
        [m for m in ALL_MODULES if hasattr(m, "__all__")],
        ids=lambda m: m.__name__,
    )
    def test_all_entries_resolve(self, module):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__: {name}"

    def test_top_level_version(self):
        assert repro.__version__ == "1.0.0"


class TestRuntimeDependencies:
    """Each benchmark set-up import runs without scipy or networkx.

    A fresh interpreter shows whether an import slipped back in; this
    test process has imported far more.
    """

    @pytest.mark.parametrize(
        "modules",
        ["repro.cli", "repro.pipeline, repro.stream.ingest", "repro.fleetscale"],
    )
    def test_entry_point_imports_neither_scipy_nor_networkx(self, modules):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        probe = (
            f"import sys, {modules}\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('scipy', 'networkx')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert out.stdout.strip() == "[]"
