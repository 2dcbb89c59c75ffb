"""Meta-tests over the public API surface.

Checks the documentation contract (every public module, class, and
function carries a docstring), that the package exports declared in
``__all__`` actually resolve, that the entry points start without
scipy or networkx, which are not runtime dependencies, and that the
Stage II/III entry points never load Stage I (DESIGN §6).
"""

import importlib
import inspect
import json
import os
import pkgutil
import shutil
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


def run_fresh(code: str, cwd=None) -> str:
    """Standard output of ``code`` run in a fresh interpreter.

    A fresh interpreter shows what an entry point loads; this test
    process has imported every module during collection.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return out.stdout


class TestRuntimeDependencies:
    """Each benchmark set-up import runs without scipy or networkx."""

    @pytest.mark.parametrize(
        "modules",
        ["repro.cli", "repro.pipeline, repro.stream.ingest", "repro.fleetscale"],
    )
    def test_entry_point_imports_neither_scipy_nor_networkx(self, modules):
        probe = (
            f"import sys, {modules}\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('scipy', 'networkx')))\n"
        )
        assert run_fresh(probe).strip() == "[]"


#: Stage I (the simulator and what only a simulation runs) and the load
#: harness: modules no Stage II/III entry point may load.
STAGE_ONE = (
    "repro.sim",
    "repro.faults",
    "repro.ops",
    "repro.gpu",
    "repro.study",
    "repro.fleetscale",
    "repro.loadgen",
    "repro.workload.generator",
    "repro.workload.names",
    "repro.recovery.machine",
    "repro.slurm.scheduler",
    "repro.syslog.noise",
    "repro.syslog.records",
    "repro.syslog.writer",
    "repro.syslog.chaos",
    "repro.calibration.delta",
    "repro.calibration.hopper",
    "repro.analysis.replication",
)

#: Prints, as the last line, the Stage I modules this interpreter loaded.
_PRINT_STAGE_ONE = (
    "import json, sys\n"
    f"stage_one = {STAGE_ONE!r}\n"
    "print(json.dumps(sorted(\n"
    "    m for m in sys.modules\n"
    "    if any(m == s or m.startswith(s + '.') for s in stage_one))))\n"
)


def _stage_one_loaded(code: str, cwd=None) -> list:
    return json.loads(run_fresh(code + _PRINT_STAGE_ONE, cwd).splitlines()[-1])


@pytest.fixture(scope="module")
def artifact_copy(small_run, tmp_path_factory):
    """A private copy of the ``small_run`` artifact directory."""
    artifacts, _ = small_run
    dst = tmp_path_factory.mktemp("layering") / "run"
    shutil.copytree(artifacts.output_dir, dst)
    return dst


class TestStageLayering:
    """Imports are one-way: Stage II/III never load Stage I.

    ``pipeline``, ``report``, ``summary`` and ``stream`` read only
    on-disk artifacts, so the simulator must not be imported by them,
    by the modules they run, or by a package ``__init__`` on the way.
    """

    @pytest.mark.parametrize(
        "modules",
        [
            "repro.cli",
            "repro.pipeline, repro.stream.ingest",
            "repro.stream",
            "repro.analysis",
        ],
    )
    def test_import_loads_no_stage_one(self, modules):
        assert _stage_one_loaded(f"import {modules}\n") == []

    @pytest.mark.parametrize(
        "args",
        [
            ["pipeline", "run", "--no-scan-cache"],
            ["report", "run", "--compare"],
            ["summary", "run"],
            ["stream", "--follow", "run", "--once", "--port", "0"],
        ],
        ids=lambda args: args[0],
    )
    def test_command_loads_no_stage_one(self, args, artifact_copy):
        command = (
            "import contextlib, io\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({args!r}) == 0\n"
        )
        assert _stage_one_loaded(command, cwd=artifact_copy.parent) == []

    def test_lazy_reexports_resolve(self):
        probe = (
            "import json\n"
            "import repro\n"
            "try:\n"
            "    repro.NoSuchName\n"
            "    unknown = None\n"
            "except AttributeError as exc:\n"
            "    unknown = str(exc)\n"
            "from repro.syslog import writer\n"
            "from repro import DeltaStudy\n"
            "import repro.study.runner\n"
            "print(json.dumps({\n"
            "    'unknown': unknown,\n"
            "    'writer': writer.__name__,\n"
            "    'same': DeltaStudy is repro.study.runner.DeltaStudy,\n"
            "}))\n"
        )
        seen = json.loads(run_fresh(probe).splitlines()[-1])
        assert seen == {
            "unknown": "module 'repro' has no attribute 'NoSuchName'",
            "writer": "repro.syslog.writer",
            "same": True,
        }
