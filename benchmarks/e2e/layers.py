"""Per-layer hooks, timed from outside the program.

The benchmark rebinds the public names in :data:`HOOKS` where their
callers look them up (``repro.pipeline.run.scan_day_file``,
``repro.study.runner.write_day_partitioned``, ``repro.cli.render_table1``
…) with wrappers that open a span on a :class:`repro.obs.tracing.Tracer`
whose trace clock is ``time.perf_counter``.  Parent links come from the
tracer's own context stack; nothing under ``src/`` changes.

Each hook ``H`` yields three per-layer metrics:

* ``H.s`` — inclusive wall seconds (outermost calls only, so a hook
  that re-enters itself is not counted twice);
* ``H.self_s`` — that time minus the time covered by its direct child
  hooks;
* ``H.calls`` — the call count.

No hook wraps a per-line or per-event function, so tracing stays cheap;
per-line work shows up as its caller's self time.

Run as a script, this module is the hooked CLI: it installs the hooks,
runs ``repro.cli.main`` on the remaining arguments and writes the spans
as JSONL, so CLI commands run in their own interpreter are traced too::

    PYTHONPATH=src python benchmarks/e2e/layers.py --spans out.jsonl \\
        --workload study -- pipeline run1
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Hook:
    """One public entry point timed as a layer boundary.

    Attributes:
        name: the metric prefix (``H`` in ``H.s``).
        layer: the repro module the entry point belongs to.
        target: ``module:attribute.path`` of the name to rebind.
        workloads: workloads on which the hook must record calls.
        moves: the end-to-end metric (and workload) a change to this
            layer should move.
        aliases: other modules that hold the same object under the same
            attribute name and must be rebound too.
        after: ``(args, result) -> attrs`` evaluated inside the span.
    """

    name: str
    layer: str
    target: str
    workloads: Tuple[str, ...]
    moves: str
    aliases: Tuple[str, ...] = ()
    after: Optional[Callable[[tuple, object], dict]] = None


_STAGE3 = "study_s@study"

HOOKS: Tuple[Hook, ...] = (
    Hook("DeltaStudy.run", "study.runner", "repro.study.runner:DeltaStudy.run",
         ("study",), "study_s@study"),
    Hook("Engine.run", "sim.engine", "repro.sim.engine:Engine.run",
         ("study", "fleet"), "study_s@study, campaign_s@fleet",
         after=lambda args, _: {"events": args[0].executed_events}),
    Hook("Engine.schedule_batch", "sim.engine",
         "repro.sim.engine:Engine.schedule_batch", ("fleet",), "campaign_s@fleet"),
    Hook("FaultInjector.arm", "faults.injector",
         "repro.faults.injector:FaultInjector.arm", ("study",), "study_s@study"),
    Hook("WorkloadGenerator.generate", "workload.generator",
         "repro.workload.generator:WorkloadGenerator.generate", ("study",),
         "study_s@study"),
    Hook("generate_noise", "syslog.noise", "repro.study.runner:generate_noise",
         ("study",), "study_s@study"),
    Hook("write_day_partitioned", "syslog.writer",
         "repro.study.runner:write_day_partitioned", ("study",), "study_s@study"),
    Hook("AccountingWriter.write", "slurm.accounting",
         "repro.slurm.accounting:AccountingWriter.write", ("study",),
         "study_s@study"),
    Hook("load_records", "slurm.accounting", "repro.pipeline.run:load_records",
         ("study", "rescan", "dirty"), "pipeline_s@rescan, pipeline_warm_s@rescan"),
    Hook("run_pipeline", "pipeline.run", "repro.pipeline.run:run_pipeline",
         ("study", "rescan", "dirty"), "pipeline_s@rescan, pipeline_s@dirty",
         aliases=("repro.pipeline", "repro.cli")),
    Hook("scan_day_file", "pipeline.shard", "repro.pipeline.run:scan_day_file",
         ("study", "rescan", "dirty"), "pipeline_s@rescan, pipeline_s@dirty"),
    Hook("merge_scan", "pipeline.shard", "repro.pipeline.run:merge_scan",
         ("study", "rescan", "dirty"), "pipeline_s@rescan, pipeline_s@dirty"),
    Hook("coalesce_columns", "pipeline.coalesce",
         "repro.pipeline.run:coalesce_columns", ("study", "rescan", "dirty"),
         "pipeline_s@rescan"),
    Hook("StreamingCoalescer.drain", "pipeline.coalesce",
         "repro.pipeline.coalesce:StreamingCoalescer.drain", ("rescan", "dirty"),
         "stream_drain_s@rescan"),
    Hook("ScanCache.load", "pipeline.scancache",
         "repro.pipeline.scancache:ScanCache.load", ("study", "rescan"),
         "pipeline_warm_s@rescan"),
    # The CLI's pipeline stores from its pool workers, where no hook
    # runs, so only rescan's serial storing pass records calls.
    Hook("ScanCache.store", "pipeline.scancache",
         "repro.pipeline.scancache:ScanCache.store", ("rescan",),
         "pipeline_warm_s@rescan, study_s@study"),
    Hook("StreamIngest.drain", "stream.ingest",
         "repro.stream.ingest:StreamIngest.drain", ("rescan", "dirty"),
         "stream_drain_s@rescan, stream_drain_s@dirty"),
    Hook("DirectoryFollower.poll", "stream.follow",
         "repro.stream.follow:DirectoryFollower.poll", ("rescan", "dirty", "serve"),
         "stream_drain_s@rescan, ingest_s@serve"),
    Hook("MtbeAnalysis", "analysis", "repro.cli:MtbeAnalysis", ("study",), _STAGE3),
    Hook("JobImpactAnalysis.run", "analysis",
         "repro.analysis.job_impact:JobImpactAnalysis.run", ("study",), _STAGE3),
    Hook("JobStatistics.bucket_stats", "analysis",
         "repro.analysis.jobstats:JobStatistics.bucket_stats", ("study",), _STAGE3),
    Hook("AvailabilityAnalysis.distribution", "analysis",
         "repro.analysis.availability:AvailabilityAnalysis.distribution",
         ("study",), _STAGE3),
    Hook("build_all_reports", "reporting", "repro.cli:build_all_reports",
         ("study",), _STAGE3),
    Hook("render_table1", "reporting", "repro.cli:render_table1", ("study",), _STAGE3),
    Hook("render_table2", "reporting", "repro.cli:render_table2", ("study",), _STAGE3),
    Hook("render_table3", "reporting", "repro.cli:render_table3", ("study",), _STAGE3),
    Hook("render_figure2", "reporting", "repro.cli:render_figure2", ("study",), _STAGE3),
    Hook("FleetCampaign.run", "fleetscale",
         "repro.fleetscale.campaign:FleetCampaign.run", ("fleet",), "campaign_s@fleet"),
    Hook("ThinnedFleetSampler.sample_slice", "fleetscale",
         "repro.fleetscale.sampling:ThinnedFleetSampler.sample_slice", ("fleet",),
         "campaign_s@fleet"),
    Hook("group_by_node", "fleetscale", "repro.fleetscale.batching:group_by_node",
         ("fleet",), "campaign_s@fleet"),
)

#: Packages whose cumulative import time is reported (``import.<key>_s``).
IMPORT_KEYS = {"repro_cli": "repro.cli", "scipy": "scipy", "networkx": "networkx"}


def hooks_for(workload: str) -> Tuple[Hook, ...]:
    """The hooks a workload declares.

    Only these are installed: a hook on a name the service calls from
    its HTTP threads would share the tracer's context stack across
    threads.
    """
    return tuple(h for h in HOOKS if workload in h.workloads)


def hook_metric_names() -> List[str]:
    """Every per-layer metric name the hooks produce, in table order."""
    return [f"{h.name}.{suffix}" for h in HOOKS for suffix in ("s", "self_s", "calls")]


def _resolve(target: str) -> Tuple[object, str]:
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class LayerTracer:
    """Installs :data:`HOOKS` and keeps their spans in memory."""

    def __init__(self, hooks: Sequence[Hook] = HOOKS) -> None:
        from repro.obs.tracing import Tracer

        # Span ids derive from the seed; the pid keeps ids unique when
        # the spans of several hooked processes are merged.
        self.tracer = Tracer(seed=os.getpid(), clock=time.perf_counter)
        self._hooks = tuple(hooks)
        self._undo: List[Tuple[object, str, bool, object]] = []

    def install(self) -> "LayerTracer":
        for hook in self._hooks:
            owner, attr = _resolve(hook.target)
            original = getattr(owner, attr)
            wrapper = self._wrap(hook, original)
            owners = [owner] + [
                importlib.import_module(alias) for alias in hook.aliases
            ]
            for target in owners:
                if getattr(target, attr, None) is original:
                    had = attr in vars(target)
                    self._undo.append((target, attr, had, vars(target).get(attr)))
                    setattr(target, attr, wrapper)
        return self

    def uninstall(self) -> None:
        while self._undo:
            target, attr, had, previous = self._undo.pop()
            if had:
                setattr(target, attr, previous)
            else:
                delattr(target, attr)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, hook: Hook, fn):
        tracer = self.tracer
        name = hook.name
        after = hook.after
        if inspect.isgeneratorfunction(fn):
            return _wrap_generator(tracer, name, fn)

        def hooked(*args, **kwargs):
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
                if after is not None:
                    span.attrs.update(after(args, result))
                return result

        hooked.__wrapped__ = fn
        return hooked

    def records(self) -> List[dict]:
        return [span.to_record() for span in self.tracer.finished]

    def to_jsonl(self) -> str:
        return self.tracer.to_jsonl()


def _wrap_generator(tracer, name: str, fn):
    """Time only the generator's own steps, not its consumer's loop body.

    The span is recorded when the generator finishes, with the summed
    step time as its duration and the span open at creation as parent.
    """

    def hooked(*args, **kwargs):
        parent = tracer.current_span_id
        start = time.perf_counter()
        active = 0.0
        steps = 0
        inner = fn(*args, **kwargs)
        try:
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    active += time.perf_counter() - t0
                    return
                active += time.perf_counter() - t0
                steps += 1
                yield item
        finally:
            span = tracer.record_span(
                name, start, start + active, wall_seconds=active, steps=steps
            )
            span.parent_id = parent

    hooked.__wrapped__ = fn
    return hooked


def read_jsonl(text: str) -> List[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def layer_times(records: Iterable[dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: inclusive seconds, self seconds and call count.

    Self time is a span's duration minus the durations of its direct
    children; inclusive time counts only spans with no ancestor of the
    same name.
    """
    records = list(records)
    by_id = {r["span_id"]: r for r in records}
    child_time: Dict[str, float] = {}
    for r in records:
        if r.get("parent_id") in by_id:
            child_time[r["parent_id"]] = (
                child_time.get(r["parent_id"], 0.0) + r["end"] - r["start"]
            )
    out: Dict[str, Dict[str, float]] = {}
    for r in records:
        duration = r["end"] - r["start"]
        entry = out.setdefault(r["name"], {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["calls"] += 1
        entry["self_s"] += duration - child_time.get(r["span_id"], 0.0)
        ancestor = by_id.get(r.get("parent_id"))
        while ancestor is not None and ancestor["name"] != r["name"]:
            ancestor = by_id.get(ancestor.get("parent_id"))
        if ancestor is None:
            entry["s"] += duration
    return out


def hook_metrics(records: Iterable[dict]) -> Dict[str, float]:
    """``H.s`` / ``H.self_s`` / ``H.calls`` for every hook (0 if unseen)."""
    times = layer_times(records)
    metrics: Dict[str, float] = {}
    for hook in HOOKS:
        entry = times.get(hook.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        metrics[f"{hook.name}.s"] = entry["s"]
        metrics[f"{hook.name}.self_s"] = entry["self_s"]
        metrics[f"{hook.name}.calls"] = entry["calls"]
    return metrics


def unobserved(records: Iterable[dict], workload: str) -> List[str]:
    """Hooks declared for ``workload`` that recorded no call."""
    seen = {r["name"] for r in records}
    return [h.name for h in HOOKS if workload in h.workloads and h.name not in seen]


def attr_total(records: Iterable[dict], name: str, attr: str) -> float:
    return sum(r["attrs"].get(attr, 0) for r in records if r["name"] == name)


def write_traces(jsonl: str, stem: Path) -> Tuple[Path, Path]:
    """Write ``<stem>.jsonl`` and ``<stem>.chrome.json`` via repro's exporters."""
    from repro.obs.tracing import chrome_trace_from_jsonl

    stem.parent.mkdir(parents=True, exist_ok=True)
    jsonl_path = stem.with_name(stem.name + ".jsonl")
    chrome_path = stem.with_name(stem.name + ".chrome.json")
    jsonl_path.write_text(jsonl, encoding="utf-8")
    chrome_path.write_text(
        json.dumps(chrome_trace_from_jsonl(jsonl), sort_keys=True), encoding="utf-8"
    )
    return jsonl_path, chrome_path


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def import_times(env: Dict[str, str], module: str = "repro.cli") -> Dict[str, float]:
    """Cumulative import seconds from ``-X importtime`` in a fresh interpreter.

    ``import.<key>_s`` sums the cumulative time of every outermost
    import of that package (one whose importer is not the package).
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    totals = {key: 0.0 for key in IMPORT_KEYS}
    # importtime prints children before their parent, indented deeper,
    # so walking the rows backwards meets every importer first.
    stack: List[Tuple[int, str]] = []
    for line in reversed(proc.stderr.splitlines()):
        match = _IMPORTTIME.match(line)
        if match is None:
            continue
        name, depth = match.group(4), len(match.group(3))
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        stack.append((depth, name))
        for key, package in IMPORT_KEYS.items():
            if _within(name, package) and not _within(parent, package):
                totals[key] += int(match.group(2)) / 1e6
    return {f"import.{key}_s": value for key, value in totals.items()}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    layer_tracer = LayerTracer(hooks_for(args.workload)).install()
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        layer_tracer.uninstall()
        args.spans.write_text(layer_tracer.to_jsonl(), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
