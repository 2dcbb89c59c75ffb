"""Command-line interface: ``python -m repro <command>``.

The subcommands cover the full workflow:

* ``simulate`` — run a study and write the raw artifacts (optionally
  corrupting the emitted logs with the chaos layer via ``--corrupt``,
  or arming the gang-recovery engine via ``--recovery <preset>``).
  ``--arch {a100,hopper,mixed}`` swaps the cluster for an architecture
  preset, ``--scale N`` sizes it in GPUs, and ``--arch-sweep
  gsp=0.5,memory=2.0`` overrides the Hopper projection multipliers.
* ``fleetscale`` — run a thinned-sampling fleet campaign (10k–100k
  GPUs, multi-year) and write per-architecture Table I/II analogs
  plus ``fleet_result.json``; see DESIGN §17.
* ``chaos`` — corrupt an existing artifact directory's syslog with the
  seeded chaos injector and print what was injected.
* ``pipeline`` — run Stage-II extraction/coalescing over an artifact
  directory and print a summary plus the pipeline health report.  The
  per-day scan cache is on by default, so rerunning an interrupted
  pass resumes it: finished days are replayed, the rest scanned.
* ``report`` — run Stage-III analyses over an artifact directory and
  print the paper's tables/figures (optionally with paper comparisons).
* ``recover-sweep`` — sweep checkpoint intervals through the goodput
  model and report the optimum against the Young/Daly closed forms
  (markdown to stdout, JSON via ``--out``).
* ``experiments`` — regenerate the EXPERIMENTS.md record from fresh
  runs.
* ``obs`` — inspect telemetry artifacts: render a metrics snapshot as
  a table, or convert a span trace to Chrome ``trace_event`` JSON.
* ``study`` — run a multi-seed campaign under the fault-tolerant
  supervisor (process-isolated workers, retries, timeouts, manifest,
  ``--resume``; optionally with seeded worker chaos).
* ``stream`` — run the live fleet-health service over a growing syslog
  directory (``/healthz /metrics /v1/fleet /v1/alerts /v1/slo``).
* ``loadgen`` — drive seeded open/closed-loop load at a running
  fleet-health service and report latency quantiles, error rates, and
  the service's own SLO verdicts.

Exit codes are part of the contract (see ``repro --help``): 0 full
success, 2 configuration/usage error, 3 runtime failure, 4 partial
campaign success (degraded coverage), 130 interrupted.

Telemetry flags (``simulate``, ``pipeline``, ``report``): any of
``--metrics-out``, ``--trace-out``, ``--log-json``, or ``--obs``
enables the telemetry layer and prints a one-screen run report at the
end of the command.

Examples::

    python -m repro simulate out/ --preset small --seed 7 --corrupt
    python -m repro simulate out/ --recovery a100
    python -m repro recover-sweep --gang-nodes 4 --out sweep.json
    python -m repro simulate out/ --metrics-out m.prom --trace-out t.jsonl
    python -m repro chaos out/ --chaos-seed 3
    python -m repro pipeline out/ --obs
    python -m repro obs m.prom
    python -m repro obs t.jsonl --chrome trace.json
    python -m repro report out/ --compare
    python -m repro experiments EXPERIMENTS.md --job-scale 0.05
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from . import DeltaStudy, StudyConfig
from .core.exceptions import (
    CalibrationError,
    ConfigurationError,
    ReproError,
)
from .obs import Telemetry, chrome_trace_from_jsonl, render_run_report
from .analysis import (
    AvailabilityAnalysis,
    JobImpactAnalysis,
    JobStatistics,
    MtbeAnalysis,
)
from .pipeline import run_pipeline
from .reporting import (
    build_all_reports,
    render_figure2,
    render_table1,
    render_table2,
    render_table3,
)

_PRESETS = ("small", "delta", "delta-workload")

# ---------------------------------------------------------------------
# Exit codes — a stable contract for scripts and CI wrapping the CLI.
# ---------------------------------------------------------------------

#: Full success.
EXIT_OK = 0
#: Bad configuration or usage (also what argparse uses for bad flags).
EXIT_CONFIG_ERROR = 2
#: A runtime failure: simulation, pipeline, checkpoint, or campaign
#: error that was not a configuration problem.
EXIT_RUNTIME_ERROR = 3
#: A campaign finished but degraded: some cells permanently failed (or
#: the pass was interrupted), so aggregates cover a subset of seeds.
EXIT_PARTIAL = 4
#: Interrupted by the user (SIGINT convention: 128 + 2).
EXIT_INTERRUPTED = 130

_EXIT_CODE_DOC = """\
exit codes:
  0   success
  2   configuration or usage error (bad flags, bad preset, bad config)
  3   runtime failure (simulation/pipeline/checkpoint/campaign error)
  4   partial campaign success — some cells permanently failed or the
      pass was interrupted; aggregates cover a subset of seeds (see the
      coverage annotation in campaign_summary.json)
  130 interrupted (Ctrl-C)
"""


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the CLI's documented exit code."""
    if isinstance(exc, KeyboardInterrupt):
        return EXIT_INTERRUPTED
    if isinstance(exc, (ConfigurationError, CalibrationError)):
        return EXIT_CONFIG_ERROR
    if isinstance(exc, ReproError):
        return EXIT_RUNTIME_ERROR
    raise exc


def _build_config(preset: str, seed: int, job_scale: Optional[float]) -> StudyConfig:
    if preset == "small":
        kwargs = {} if job_scale is None else {"job_scale": job_scale}
        return StudyConfig.small(seed=seed, include_episode=True, **kwargs)
    if preset == "delta":
        kwargs = {} if job_scale is None else {"job_scale": job_scale}
        return StudyConfig.delta(seed=seed, **kwargs)
    if preset == "delta-workload":
        kwargs = {} if job_scale is None else {"job_scale": job_scale}
        return StudyConfig.delta_workload_focused(seed=seed, **kwargs)
    raise SystemExit(f"unknown preset {preset!r} (choose from {_PRESETS})")


def _ensure_parent(path_str: str) -> Path:
    """Create the parent directory of a telemetry output path."""
    path = Path(path_str)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _telemetry_from_args(
    args: argparse.Namespace,
    seed: int = 0,
    wall_clock: bool = False,
) -> Optional[Telemetry]:
    """Build a telemetry bundle when any obs flag was given.

    ``wall_clock`` installs ``time.perf_counter`` as the trace clock
    (pipeline/report commands, whose work is host-bound); ``simulate``
    leaves the default so the runner can install the simulation clock
    and keep its artifacts deterministic.
    """
    wanted = bool(
        getattr(args, "obs", False)
        or args.metrics_out
        or args.trace_out
        or args.log_json
    )
    if not wanted:
        return None
    log_stream = None
    if args.log_json:
        log_stream = open(
            _ensure_parent(args.log_json), "w", encoding="utf-8"
        )
    clock = None
    if wall_clock:
        origin = time.perf_counter()
        clock = lambda: time.perf_counter() - origin  # noqa: E731
    return Telemetry.create(seed=seed, log_stream=log_stream, clock=clock)


def _finish_telemetry(
    telemetry: Optional[Telemetry], args: argparse.Namespace
) -> None:
    """Write the requested artifacts and print the run report."""
    if telemetry is None:
        return
    if args.metrics_out:
        path = _ensure_parent(args.metrics_out)
        if path.suffix == ".json":
            path.write_text(telemetry.metrics.to_json(), encoding="utf-8")
        else:
            path.write_text(
                telemetry.metrics.render_prometheus(), encoding="utf-8"
            )
        print(f"metrics snapshot written to {path}")
    if args.trace_out:
        telemetry.tracer.write_jsonl(_ensure_parent(args.trace_out))
        print(f"trace written to {args.trace_out}")
    telemetry.close()
    print()
    print(render_run_report(telemetry))


def _parse_projection(spec: Optional[str]):
    """``--arch-sweep`` spec → HopperProjection (CalibrationError → exit 2)."""
    if spec is None:
        return None
    from .calibration.hopper import HopperProjection

    return HopperProjection.from_spec(spec)


def _arch_shape(arch: str, gpu_scale: int):
    """A DES-ready shape for an architecture preset: GPU node mix from
    :func:`repro.fleetscale.fleet.shape_for_scale` plus CPU nodes kept
    at Delta's CPU:GPU node ratio (the workload needs somewhere to put
    CPU jobs)."""
    import dataclasses

    from .cluster.topology import DELTA_A100_NODES, DELTA_CPU_NODES
    from .fleetscale.fleet import shape_for_scale

    shape = shape_for_scale(arch, gpu_scale)
    cpu = max(
        1, round(shape.gpu_node_count * DELTA_CPU_NODES / DELTA_A100_NODES)
    )
    return dataclasses.replace(shape, cpu_nodes=cpu)


def _apply_arch_options(config: StudyConfig, args: argparse.Namespace):
    """Fold ``--arch`` / ``--scale`` / ``--arch-sweep`` into the config.

    ``--arch a100`` (the default) with ``--scale`` swaps in a scaled
    A100 shape and rescales the fault suite so per-GPU rates are
    preserved (the homogeneous runner path applies the suite
    unscaled).  ``hopper`` / ``mixed`` shapes are scaled per-arch by
    the runner itself, so only the shape and projection change here.
    """
    import dataclasses

    from .cluster.topology import DELTA_A100_GPUS
    from .faults.config import scale_counts

    projection = _parse_projection(args.arch_sweep)
    if args.arch == "a100":
        if projection is not None:
            raise ConfigurationError(
                "--arch-sweep only applies to --arch hopper or --arch mixed"
            )
        if args.scale is None:
            return config
        shape = _arch_shape("a100", args.scale)
        suite = scale_counts(
            config.fault_suite, shape.gpu_count / DELTA_A100_GPUS
        )
        return dataclasses.replace(
            config, cluster_shape=shape, fault_suite=suite
        )
    scale = args.scale
    if scale is None:
        scale = DELTA_A100_GPUS if args.arch == "hopper" else 2 * DELTA_A100_GPUS
    shape = _arch_shape(args.arch, scale)
    return dataclasses.replace(
        config, cluster_shape=shape, hopper_projection=projection
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _build_config(args.preset, args.seed, args.job_scale)
    config = _apply_arch_options(config, args)
    if args.recovery is not None:
        import dataclasses

        from .recovery import RECOVERY_PRESETS

        config = dataclasses.replace(
            config, recovery=RECOVERY_PRESETS[args.recovery]
        )
    telemetry = _telemetry_from_args(args, seed=args.seed)
    artifacts = DeltaStudy(config).run(
        Path(args.output_dir), telemetry=telemetry
    )
    print(artifacts.summary())
    print(f"artifacts written to {args.output_dir}")
    if args.corrupt:
        from .syslog.chaos import ChaosConfig, corrupt_artifacts

        report = corrupt_artifacts(
            Path(args.output_dir), ChaosConfig.calibrated(seed=args.chaos_seed)
        )
        print(report.summary())
    _finish_telemetry(telemetry, args)
    return 0


def _cmd_fleetscale(args: argparse.Namespace) -> int:
    from .core.periods import StudyWindow
    from .fleetscale import FleetCampaignConfig, run_campaign

    projection = _parse_projection(args.arch_sweep)
    if projection is not None and args.arch == "a100":
        raise ConfigurationError(
            "--arch-sweep only applies to --arch hopper or --arch mixed"
        )
    if args.days is None:
        window = StudyWindow.delta_default()
    else:
        if args.days <= 0:
            raise ConfigurationError(
                f"--days must be positive, got {args.days}"
            )
        # Keep Delta's pre-operational share of the window.
        ref = StudyWindow.delta_default()
        pre_frac = ref.pre_operational.duration / (ref.end - ref.start)
        window = StudyWindow.scaled(
            pre_days=args.days * pre_frac,
            op_days=args.days * (1.0 - pre_frac),
        )
    config = FleetCampaignConfig(
        arch=args.arch,
        scale=args.scale,
        window=window,
        seed=args.seed,
        slice_days=args.slice_days,
        projection=projection,
    )
    telemetry = _telemetry_from_args(args, seed=args.seed, wall_clock=True)
    result = run_campaign(
        config,
        out_dir=Path(args.output_dir),
        metrics=telemetry.metrics if telemetry else None,
        write_inventory=args.write_inventory,
    )
    summary = result.config_summary
    host = result.host
    print(
        f"fleet: {summary['gpu_count']:,} GPUs on "
        f"{summary['node_count']:,} nodes "
        f"({', '.join(summary['architectures'])}), "
        f"{summary['total_days']:.0f} days"
    )
    print(
        f"events: {result.total_events:,} "
        f"({host['events_per_second']:,.0f}/s, "
        f"wall {host['wall_seconds']:.2f}s)"
    )
    print(
        f"host: peak RSS {host['peak_rss_mib']:.0f} MiB, "
        f"heap high-water {host['heap_high_water']:,} entries, "
        f"{host['slices_run']} slices"
    )
    print(f"artifacts written to {args.output_dir}")
    _finish_telemetry(telemetry, args)
    return EXIT_OK


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .syslog.chaos import ChaosConfig, corrupt_artifacts

    artifact_dir = Path(args.artifact_dir)
    if not artifact_dir.is_dir():
        print(f"error: no such artifact directory: {artifact_dir}", file=sys.stderr)
        return 2
    config = ChaosConfig.calibrated(seed=args.chaos_seed)
    if args.rate_scale != 1.0:
        try:
            config = config.scaled(args.rate_scale)
        except ValueError as exc:
            print(f"error: invalid --rate-scale: {exc}", file=sys.stderr)
            return 2
    report = corrupt_artifacts(artifact_dir, config)
    print(report.summary())
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from .pipeline import resolve_workers

    try:
        workers = resolve_workers(args.workers)
    except ValueError:
        print(f"error: invalid --workers: {args.workers!r}", file=sys.stderr)
        return 2
    telemetry = _telemetry_from_args(args, wall_clock=True)
    result = run_pipeline(
        Path(args.artifact_dir),
        window_seconds=args.coalesce_window,
        telemetry=telemetry,
        workers=workers,
        scan_cache=not args.no_scan_cache,
    )
    stats = result.extraction_stats
    print(f"raw lines scanned:        {stats.total_lines}")
    print(f"matched error lines:      {stats.matched_lines}")
    print(f"excluded XID 13/43 lines: {stats.excluded_xid_lines}")
    print(f"malformed lines skipped:  {stats.malformed_lines}")
    print(
        f"coalesced errors:         {len(result.errors)} "
        f"(reduction {result.coalescing_reduction:.1f}x, "
        f"dt={args.coalesce_window:.0f}s)"
    )
    print(f"downtime episodes:        {len(result.downtime)}")
    print(f"job records:              {len(result.jobs)}")
    scan = result.scan
    if scan.cache_hits or scan.cache_stores or scan.cache_corrupt:
        corrupt = (
            f", {scan.cache_corrupt} corrupt" if scan.cache_corrupt else ""
        )
        print(
            f"scan cache:               {scan.cache_hits} hits, "
            f"{scan.cache_misses} misses, "
            f"{scan.cache_stores} stores{corrupt}"
        )
    if result.recovery:
        from .pipeline import recovery_timeline_summary

        timeline = recovery_timeline_summary(result.recovery)
        print(
            f"recovery events:          {timeline['events']} "
            f"(gangs {len(timeline['incidents_by_gang'])}, "
            f"mean ETTR {timeline['mean_ettr_minutes']:.1f} min)"
        )
    if result.health is not None:
        print(result.health.render())
    _finish_telemetry(telemetry, args)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .core.periods import StudyWindow

    artifact_dir = Path(args.artifact_dir)
    telemetry = _telemetry_from_args(args, wall_clock=True)
    result = run_pipeline(
        artifact_dir,
        window_seconds=args.coalesce_window,
        telemetry=telemetry,
    )
    window = (
        StudyWindow.delta_default() if args.delta_window else _infer_window(result)
    )
    node_count = args.nodes

    mtbe = MtbeAnalysis(result.errors, window, node_count)
    print("==== Table I ====")
    print(render_table1(mtbe, include_paper=args.compare))
    impact = JobImpactAnalysis(result.errors, result.jobs, window).run()
    print("\n==== Table II ====")
    print(render_table2(impact, include_paper=args.compare))
    stats = JobStatistics(result.jobs, window)
    print("\n==== Table III ====")
    print(render_table3(stats.bucket_stats(), stats.population()))
    availability = AvailabilityAnalysis(result.downtime, window, node_count)
    print("\n==== Figure 2 ====")
    print(render_figure2(availability.distribution()))
    if args.compare:
        print("\n==== paper comparisons ====")
        for report in build_all_reports(
            result.errors, result.jobs, result.downtime, window, node_count
        ):
            print()
            print(report.render())
    _finish_telemetry(telemetry, args)
    return 0


def _cmd_recover_sweep(args: argparse.Namespace) -> int:
    from .analysis.checkpoint import calibrated_model, sweep

    model = calibrated_model(
        gang_nodes=args.gang_nodes,
        per_node_mtbe_hours=args.mtbe_hours,
        write_minutes=args.write_min,
        restore_minutes=args.restore_min,
        detect_minutes=args.detect_min,
        resched_minutes=args.resched_min,
    )
    report = sweep(model)
    print(report.render_markdown())
    if args.out:
        path = _ensure_parent(args.out)
        path.write_text(report.to_json(), encoding="utf-8")
        print(f"\nsweep report written to {path}")
    return 0


def _infer_window(result):
    """Pick an analysis window from the artifact contents."""
    from .core.periods import StudyWindow

    last = max(
        [e.time for e in result.errors]
        + [j.end_time for j in result.jobs]
        + [0.0]
    )
    if last > 400 * 86400:
        return StudyWindow.delta_default()
    total_days = max(last / 86400.0, 2.0)
    return StudyWindow.scaled(
        pre_days=total_days / 4, op_days=3 * total_days / 4
    )


def _cmd_summary(args: argparse.Namespace) -> int:
    from .reporting.summary import render_summary

    result = run_pipeline(
        Path(args.artifact_dir), window_seconds=args.coalesce_window
    )
    window = _infer_window(result)
    print(
        render_summary(
            result.errors, result.jobs, result.downtime, window, args.nodes
        )
    )
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    import tempfile
    from .reporting.experiments_md import build_experiments_markdown

    work = Path(tempfile.mkdtemp(prefix="repro-cli-experiments-"))
    config = StudyConfig.delta(seed=args.seed, job_scale=args.job_scale)
    artifacts = DeltaStudy(config).run(work)
    result = run_pipeline(work)
    workload = DeltaStudy(
        StudyConfig.delta_workload_focused(
            seed=args.seed + 1, job_scale=args.job_scale
        )
    ).run(None)
    markdown = build_experiments_markdown(
        errors=result.errors,
        jobs=result.jobs,
        downtime=result.downtime,
        workload_jobs=workload.job_records,
        window=artifacts.window,
        node_count=artifacts.node_count,
        run_description=(
            f"Generated by `python -m repro experiments` with seed "
            f"{args.seed} and job_scale {args.job_scale}."
        ),
    )
    Path(args.path).write_text(markdown, encoding="utf-8")
    print(f"wrote {args.path}")
    return 0


def _parse_seeds(spec: str) -> tuple:
    """Parse a seed list: ``7,8,9`` or an inclusive range ``7..14``."""
    spec = spec.strip()
    try:
        if ".." in spec:
            lo_text, hi_text = spec.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        return tuple(int(part) for part in spec.split(","))
    except ValueError:
        raise ConfigurationError(
            f"bad --seeds {spec!r}: use a comma list (7,8,9) or an "
            f"inclusive range (7..14)"
        )


def _cmd_study(args: argparse.Namespace) -> int:
    from .study.chaos import WorkerChaosConfig
    from .study.supervise import (
        CampaignLimits,
        CampaignSpec,
        CampaignSupervisor,
    )

    seeds = _parse_seeds(args.seeds)
    overrides = {}
    if args.job_scale is not None:
        overrides["job_scale"] = args.job_scale
    if args.fault_scale is not None:
        overrides["fault_scale"] = args.fault_scale
    if args.preset == "small":
        if args.pre_days is not None:
            overrides["pre_days"] = args.pre_days
        if args.op_days is not None:
            overrides["op_days"] = args.op_days
    elif args.pre_days is not None or args.op_days is not None:
        raise ConfigurationError(
            "--pre-days/--op-days only apply to --preset small"
        )
    chaos = None
    if args.chaos_kill or args.chaos_hang or args.chaos_garbage:
        chaos = WorkerChaosConfig(
            seed=args.chaos_seed,
            kill_probability=args.chaos_kill,
            hang_probability=args.chaos_hang,
            garbage_exit_probability=args.chaos_garbage,
            max_strikes_per_cell=args.chaos_strikes,
        )
    campaign_dir = Path(args.campaign_dir)
    spec = CampaignSpec.sweep(
        name=campaign_dir.name or "campaign",
        preset=args.preset,
        seeds=seeds,
        overrides=overrides,
        limits=CampaignLimits(
            max_workers=args.max_workers,
            timeout_seconds=args.timeout,
            max_attempts=args.max_attempts,
            backoff_base_seconds=args.backoff_base,
        ),
        checkpoint_cadence_days=args.checkpoint_days,
        chaos=chaos,
    )
    telemetry = _telemetry_from_args(args, seed=seeds[0], wall_clock=True)
    supervisor = CampaignSupervisor(spec, campaign_dir, telemetry=telemetry)
    result = supervisor.run(resume=args.resume)
    print(result.coverage.render())
    for cell_id, status in sorted(result.cell_status.items()):
        marker = "ok" if status == "done" else status
        print(f"  {cell_id}: {marker}")
    print(f"campaign manifest: {result.manifest_path}")
    print(f"campaign summary:  {result.summary_path}")
    _finish_telemetry(telemetry, args)
    if not result.coverage.complete or result.interrupted:
        print(
            "warning: degraded campaign — aggregates cover "
            f"{result.coverage.cells_completed} of "
            f"{result.coverage.cells_total} cells",
            file=sys.stderr,
        )
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from .obs.report import load_metric_rows, render_metrics_table

    path = Path(args.path)
    if not path.is_file():
        print(f"error: no such telemetry artifact: {path}", file=sys.stderr)
        return 2
    if args.chrome:
        document = chrome_trace_from_jsonl(path.read_text(encoding="utf-8"))
        _ensure_parent(args.chrome).write_text(
            json.dumps(document, sort_keys=True), encoding="utf-8"
        )
        print(
            f"wrote {args.chrome} "
            f"({len(document['traceEvents'])} trace events; open in "
            f"chrome://tracing or https://ui.perfetto.dev)"
        )
        return 0
    print(render_metrics_table(load_metric_rows(path)))
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .core.periods import StudyWindow
    from .stream import (
        ChaosController,
        GuardConfig,
        MultiTenantService,
        TenantSpec,
        build_chaos_plan,
        parse_tenant_arg,
    )

    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint DIR", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if args.tenant and args.follow:
        print(
            "error: --tenant and --follow are mutually exclusive",
            file=sys.stderr,
        )
        return EXIT_CONFIG_ERROR
    if not args.tenant and not args.follow:
        print(
            "error: one of --follow DIR or --tenant NAME=DIR is required",
            file=sys.stderr,
        )
        return EXIT_CONFIG_ERROR

    def spec(name, follow_dir, per_tenant):
        def path(flag, leaf):
            if not flag:
                return None
            return Path(flag) / leaf if per_tenant else Path(flag)

        return TenantSpec(
            name,
            follow_dir,
            window_seconds=args.coalesce_window,
            node_count=args.nodes,
            fleet_out=path(args.fleet_out, f"{name}.json"),
            alerts_out=path(args.alerts_out, f"{name}.jsonl"),
            checkpoint_dir=path(args.checkpoint, name),
        )

    if args.follow:
        # --follow DIR is the one-tenant service: its checkpoint and
        # outputs are the paths given, not per-tenant children.
        specs = [spec("default", Path(args.follow), per_tenant=False)]
    else:
        specs = [
            spec(*parse_tenant_arg(raw), per_tenant=True)
            for raw in args.tenant
        ]
    chaos = None
    if args.chaos:
        plan = build_chaos_plan(
            [s.name for s in specs],
            seed=args.chaos_seed,
            horizon_seconds=args.chaos_horizon,
        )
        chaos = ChaosController(plan)
    guard = GuardConfig(
        stall_timeout=args.stall_timeout,
        backoff_base=args.restart_backoff,
        backoff_max=max(args.restart_backoff * 16, args.restart_backoff),
        breaker_threshold=args.breaker_threshold,
        seed=args.chaos_seed,
    )
    telemetry = _telemetry_from_args(args, wall_clock=True)
    service = MultiTenantService(
        specs,
        port=None if args.port < 0 else args.port,
        resume=args.resume,
        once=args.once,
        poll_interval=args.poll_interval,
        checkpoint_interval=args.checkpoint_interval,
        guard=guard,
        idle_exit=args.idle_exit,
        window=StudyWindow.delta_default() if args.delta_window else None,
        chaos=chaos,
        telemetry=telemetry,
        max_inflight=args.max_inflight,
        request_timeout=args.request_timeout,
    )
    if service.server is not None:
        names = ",".join(s.name for s in specs)
        aliases = "/v1/fleet /v1/alerts " if len(specs) == 1 else ""
        print(
            f"fleet-health service on http://{service.server.address} "
            f"(tenants: {names}; /healthz /metrics /v1/slo {aliases}"
            "/v1/<tenant>/fleet /v1/<tenant>/alerts /v1/<tenant>/slo)",
            flush=True,
        )
    code = service.run()
    for runtime in service.runtimes:
        ingest = runtime.core.ingest
        restarts = service.supervisor.restart_counts[runtime.name]
        print(
            f"tenant {runtime.name}: {ingest.lines_read:,} lines, "
            f"drained={ingest.drained}, "
            f"restarts={sum(restarts.values())}, "
            f"quarantined={len(runtime.quarantined_checkpoints)}"
        )
        print(ingest.health().render())
    _finish_telemetry(telemetry, args)
    return code


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from .loadgen import (
        DEFAULT_ROUTES,
        AbuseConfig,
        LoadConfig,
        build_report,
        check_service,
        render_report,
        run_load,
    )

    routes = (
        tuple(part for part in args.routes.split(",") if part)
        if args.routes
        else DEFAULT_ROUTES
    )
    try:
        config = LoadConfig(
            url=args.url,
            mode=args.mode,
            pollers=args.pollers,
            duration_seconds=args.duration,
            rate=args.rate,
            seed=args.seed,
            routes=routes,
            timeout_seconds=args.timeout,
        )
        abuse = None
        if args.chaos:
            abuse = AbuseConfig(
                url=args.url,
                slow_loris=args.slow_loris,
                aborters=args.aborters,
                duration_seconds=args.duration,
                route=routes[0],
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    check_service(config)  # raises ReproError -> exit 3 via main()
    result = run_load(config, abuse=abuse)
    report = build_report(result)
    print(render_report(report))
    if args.out:
        path = _ensure_parent(args.out)
        path.write_text(
            json.dumps(report, indent=2, sort_keys=True), encoding="utf-8"
        )
        print(f"loadgen report written to {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="A100 GPU resilience study — simulator and analysis pipeline",
        epilog=_EXIT_CODE_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Telemetry flags shared by the commands that do real work.
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_group = obs_flags.add_argument_group("telemetry")
    obs_group.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write a metrics snapshot (Prometheus text, or JSON for .json)",
    )
    obs_group.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the span trace as JSONL (convert with 'repro obs')",
    )
    obs_group.add_argument(
        "--log-json", metavar="PATH", default=None,
        help="write structured JSON log records",
    )
    obs_group.add_argument(
        "--obs", action="store_true",
        help="enable telemetry and the run report without writing files",
    )

    simulate = sub.add_parser(
        "simulate", help="run a study, write artifacts", parents=[obs_flags]
    )
    simulate.add_argument("output_dir")
    simulate.add_argument("--preset", choices=_PRESETS, default="small")
    simulate.add_argument("--seed", type=int, default=2022)
    simulate.add_argument("--job-scale", type=float, default=None)
    simulate.add_argument("--corrupt", action="store_true",
                          help="corrupt the emitted logs with the chaos layer")
    simulate.add_argument("--chaos-seed", type=int, default=0,
                          help="chaos injector seed (with --corrupt)")
    from .recovery import RECOVERY_PRESETS as _recovery_presets

    simulate.add_argument(
        "--recovery", choices=sorted(_recovery_presets), default=None,
        metavar="PRESET",
        help="arm the gang-recovery engine with a named policy preset "
             f"(choices: {', '.join(sorted(_recovery_presets))})",
    )
    simulate.add_argument(
        "--arch", choices=("a100", "hopper", "mixed"), default="a100",
        help="architecture preset for the cluster (default %(default)s)",
    )
    simulate.add_argument(
        "--scale", type=int, default=None, metavar="GPUS",
        help="target GPU count for the --arch preset (default: Delta's "
             "448 for a100/hopper, 896 for mixed)",
    )
    simulate.add_argument(
        "--arch-sweep", metavar="SPEC", default=None,
        help="Hopper projection overrides as key=value pairs, e.g. "
             "'gsp=0.5,memory=2.0' (requires --arch hopper|mixed; "
             "unknown keys are a configuration error)",
    )
    simulate.set_defaults(func=_cmd_simulate)

    fleetscale = sub.add_parser(
        "fleetscale",
        help="thinned-sampling fleet campaign (10k-100k GPUs, multi-year)",
        parents=[obs_flags],
        epilog=_EXIT_CODE_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    fleetscale.add_argument("output_dir",
                            help="artifact directory (fleet_result.json, "
                                 "table1_<arch>.txt, table2_<arch>.txt)")
    fleetscale.add_argument(
        "--arch", choices=("a100", "hopper", "mixed"), default="a100",
        help="architecture preset (default %(default)s)",
    )
    fleetscale.add_argument(
        "--scale", type=int, default=10_000, metavar="GPUS",
        help="target GPU count (default %(default)s)",
    )
    fleetscale.add_argument(
        "--days", type=float, default=None,
        help="campaign length in days, split pre-op/op at Delta's ratio "
             "(default: the full 1170-day window)",
    )
    fleetscale.add_argument("--seed", type=int, default=2022)
    fleetscale.add_argument(
        "--slice-days", type=float, default=30.0,
        help="sampling/batching slice length (default %(default)s)",
    )
    fleetscale.add_argument(
        "--arch-sweep", metavar="SPEC", default=None,
        help="Hopper projection overrides, e.g. 'gsp=0.5,memory=2.0' "
             "(requires --arch hopper|mixed)",
    )
    fleetscale.add_argument(
        "--write-inventory", action="store_true",
        help="also stream the fleet inventory.json (safe at 100k GPUs)",
    )
    fleetscale.set_defaults(func=_cmd_fleetscale)

    chaos = sub.add_parser(
        "chaos", help="corrupt an artifact dir's syslog (chaos layer)"
    )
    chaos.add_argument("artifact_dir")
    chaos.add_argument("--chaos-seed", type=int, default=0)
    chaos.add_argument("--rate-scale", type=float, default=1.0,
                       help="multiplier on the calibrated per-line rates")
    chaos.set_defaults(func=_cmd_chaos)

    pipeline = sub.add_parser(
        "pipeline", help="Stage-II over an artifact dir", parents=[obs_flags]
    )
    pipeline.add_argument("artifact_dir")
    pipeline.add_argument("--coalesce-window", type=float, default=30.0)
    pipeline.add_argument("--workers", default="auto",
                          help="shard-scan process count: an integer, or "
                               "'auto' for one per available core "
                               "(results are identical for any value)")
    pipeline.add_argument("--no-scan-cache", action="store_true",
                          help="disable the persistent per-day scan cache "
                               "(.pipeline_scan_cache/), which also lets a "
                               "rerun resume an interrupted pass; results "
                               "are identical either way, only slower")
    pipeline.set_defaults(func=_cmd_pipeline)

    report = sub.add_parser(
        "report", help="Stage-III tables and figures", parents=[obs_flags]
    )
    report.add_argument("artifact_dir")
    report.add_argument("--coalesce-window", type=float, default=30.0)
    report.add_argument("--nodes", type=int, default=106,
                        help="A100 node count (per-node MTBE multiplier)")
    report.add_argument("--compare", action="store_true",
                        help="include paper values and comparison reports")
    report.add_argument("--delta-window", action="store_true",
                        help="force the 1170-day Delta study window")
    report.set_defaults(func=_cmd_report)

    recover_sweep = sub.add_parser(
        "recover-sweep",
        help="checkpoint-interval goodput sweep vs the Young/Daly optima",
    )
    recover_sweep.add_argument(
        "--gang-nodes", type=int, default=2,
        help="gang size in nodes (job-level MTBF = per-node MTBE / n)",
    )
    recover_sweep.add_argument(
        "--mtbe-hours", type=float, default=None,
        help="per-node MTBE in hours (default: the paper's calibrated "
             "operational-period value)",
    )
    recover_sweep.add_argument("--write-min", type=float, default=4.0,
                               help="checkpoint write cost (minutes)")
    recover_sweep.add_argument("--restore-min", type=float, default=10.0,
                               help="checkpoint restore cost (minutes)")
    recover_sweep.add_argument("--detect-min", type=float, default=2.0,
                               help="expected detection latency (minutes)")
    recover_sweep.add_argument("--resched-min", type=float, default=5.0,
                               help="expected drain+reschedule time (minutes)")
    recover_sweep.add_argument("--out", metavar="PATH", default=None,
                               help="also write the sweep report as JSON")
    recover_sweep.set_defaults(func=_cmd_recover_sweep)

    summary = sub.add_parser("summary", help="one-page study summary")
    summary.add_argument("artifact_dir")
    summary.add_argument("--nodes", type=int, default=106)
    summary.add_argument("--coalesce-window", type=float, default=30.0)
    summary.set_defaults(func=_cmd_summary)

    experiments = sub.add_parser(
        "experiments", help="regenerate the EXPERIMENTS.md record"
    )
    experiments.add_argument("path", nargs="?", default="EXPERIMENTS.md")
    experiments.add_argument("--seed", type=int, default=2022)
    experiments.add_argument("--job-scale", type=float, default=0.05)
    experiments.set_defaults(func=_cmd_experiments)

    study = sub.add_parser(
        "study",
        help="run a multi-seed campaign under the fault-tolerant supervisor",
        parents=[obs_flags],
        epilog=_EXIT_CODE_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    study.add_argument("campaign_dir",
                       help="campaign directory (manifest, cells/, summary)")
    study.add_argument("--preset", choices=_PRESETS, default="small")
    study.add_argument("--seeds", default="2022..2025",
                       help="seed sweep: comma list (7,8,9) or range (7..14)")
    study.add_argument("--job-scale", type=float, default=None)
    study.add_argument("--fault-scale", type=float, default=None)
    study.add_argument("--pre-days", type=float, default=None,
                       help="pre-production days (small preset only)")
    study.add_argument("--op-days", type=float, default=None,
                       help="production days (small preset only)")
    study.add_argument("--max-workers", type=int, default=4,
                       help="concurrent worker subprocesses")
    study.add_argument("--timeout", type=float, default=600.0,
                       help="per-attempt wall-clock timeout (seconds)")
    study.add_argument("--max-attempts", type=int, default=3,
                       help="attempts per cell before it is marked failed")
    study.add_argument("--backoff-base", type=float, default=0.5,
                       help="base retry backoff (seconds, exponential)")
    study.add_argument("--checkpoint-days", type=float, default=None,
                       help="engine checkpoint cadence in sim days "
                            "(enables per-cell checkpointed resume)")
    study.add_argument("--resume", action="store_true",
                       help="resume: skip done cells, re-queue failed ones")
    study.add_argument("--chaos-kill", type=float, default=0.0,
                       help="probability a worker attempt SIGKILLs itself")
    study.add_argument("--chaos-hang", type=float, default=0.0,
                       help="probability a worker attempt hangs forever")
    study.add_argument("--chaos-garbage", type=float, default=0.0,
                       help="probability of a garbage exit with no result")
    study.add_argument("--chaos-seed", type=int, default=0,
                       help="seed for the worker chaos plans")
    study.add_argument("--chaos-strikes", type=int, default=1,
                       help="max sabotaged attempts per cell")
    study.set_defaults(func=_cmd_study)

    obs = sub.add_parser(
        "obs", help="inspect telemetry artifacts (metrics table, trace export)"
    )
    obs.add_argument(
        "path", help="a --metrics-out snapshot (table) or --trace-out JSONL"
    )
    obs.add_argument(
        "--chrome", metavar="OUT", default=None,
        help="convert the span JSONL at PATH to Chrome trace_event JSON",
    )
    obs.set_defaults(func=_cmd_obs)

    stream = sub.add_parser(
        "stream",
        help="live fleet-health service over a growing syslog directory",
        parents=[obs_flags],
        epilog=(
            "graceful shutdown:\n"
            "  SIGTERM/SIGINT stop the follow loop after the in-flight\n"
            "  poll, persist a final checkpoint, flush --fleet-out, and\n"
            "  exit 0 (the expected daemon exit path, not an error).\n\n"
            + _EXIT_CODE_DOC
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    stream.add_argument(
        "--follow", metavar="DIR", default=None,
        help="artifact dir (containing syslog/) or the syslog dir itself, "
             "served as the one tenant 'default' at /v1/fleet and "
             "/v1/alerts (and /v1/default/*)",
    )
    stream.add_argument(
        "--tenant", metavar="NAME=DIR", action="append", default=[],
        help="serve this tenant's directory at /v1/NAME/* (repeatable; "
             "with --checkpoint, each tenant checkpoints to "
             "CHECKPOINT/NAME)",
    )
    stream.add_argument(
        "--port", type=int, default=8787,
        help="HTTP port for /healthz /metrics /v1/fleet /v1/alerts "
             "(0 = ephemeral, -1 = no server)",
    )
    stream.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="directory for the durable resume state (stream offsets, "
             "coalescer, quarantine)",
    )
    stream.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint DIR when a checkpoint exists",
    )
    stream.add_argument(
        "--once", action="store_true",
        help="ingest everything on disk, drain, write outputs, exit",
    )
    stream.add_argument("--poll-interval", type=float, default=1.0,
                        metavar="SECONDS")
    stream.add_argument("--checkpoint-interval", type=float, default=10.0,
                        metavar="SECONDS")
    stream.add_argument("--coalesce-window", type=float, default=30.0)
    stream.add_argument("--nodes", type=int, default=106,
                        help="fleet size for per-node MTBE scaling")
    stream.add_argument(
        "--delta-window", action="store_true",
        help="use the full Delta study window for every fleet report "
             "instead of inferring one from the watermark",
    )
    stream.add_argument(
        "--idle-exit", type=float, default=None, metavar="SECONDS",
        help="drain and exit cleanly after this long without new lines",
    )
    stream.add_argument(
        "--fleet-out", metavar="PATH", default=None,
        help="write the final fleet snapshot JSON here on exit "
             "(with --tenant: a directory receiving <name>.json files)",
    )
    stream.add_argument(
        "--alerts-out", metavar="PATH", default=None,
        help="append fired alerts to this JSON-lines file "
             "(with --tenant: a directory receiving <name>.jsonl files)",
    )
    overload = stream.add_argument_group("overload control")
    overload.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="shed requests beyond N concurrent with 429 + Retry-After "
             "(default: unbounded)",
    )
    overload.add_argument(
        "--request-timeout", type=float, default=None, metavar="SECONDS",
        help="per-connection read/write deadline — drops slow-loris "
             "clients (default: none)",
    )
    guard_group = stream.add_argument_group("supervision")
    guard_group.add_argument(
        "--stall-timeout", type=float, default=15.0, metavar="SECONDS",
        help="time an ingest worker may go without completing a poll "
             "or reading a line before it is replaced "
             "(default %(default)s)",
    )
    guard_group.add_argument(
        "--restart-backoff", type=float, default=0.5, metavar="SECONDS",
        help="base restart delay, doubling per consecutive failure "
             "(default %(default)s)",
    )
    guard_group.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="consecutive failures that open the circuit breaker "
             "(default %(default)s)",
    )
    chaos_group = stream.add_argument_group("chaos")
    chaos_group.add_argument(
        "--chaos", action="store_true",
        help="inject a seeded fault plan (ingest kills, torn "
             "checkpoints, follower I/O errors) while serving",
    )
    chaos_group.add_argument(
        "--chaos-seed", type=int, default=0,
        help="fault-plan seed (also seeds restart-backoff jitter)",
    )
    chaos_group.add_argument(
        "--chaos-horizon", type=float, default=10.0, metavar="SECONDS",
        help="window over which the fault plan is spread "
             "(default %(default)s)",
    )
    stream.set_defaults(func=_cmd_stream)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive load at a running fleet-health service and report "
             "latency quantiles, error rates, and SLO verdicts",
        epilog=_EXIT_CODE_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    loadgen.add_argument(
        "--url", default="http://127.0.0.1:8787",
        help="service base URL (default %(default)s)",
    )
    loadgen.add_argument(
        "--mode", choices=("closed", "open"), default="closed",
        help="closed: N concurrent pollers; open: Poisson arrivals "
             "at --rate req/s (default %(default)s)",
    )
    loadgen.add_argument("--pollers", type=int, default=64,
                         help="worker thread count (default %(default)s)")
    loadgen.add_argument("--duration", type=float, default=10.0,
                         metavar="SECONDS",
                         help="load duration (default %(default)s)")
    loadgen.add_argument("--rate", type=float, default=200.0,
                         help="open-loop offered rate, req/s "
                              "(default %(default)s)")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="route-choice and arrival-schedule seed")
    loadgen.add_argument(
        "--routes", default=None, metavar="CSV",
        help="comma-separated route list (default /v1/fleet,/v1/alerts)",
    )
    loadgen.add_argument("--timeout", type=float, default=10.0,
                         metavar="SECONDS",
                         help="per-request socket timeout")
    loadgen.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the repro-loadgen-v1 JSON report here",
    )
    abuse_group = loadgen.add_argument_group("abusive clients")
    abuse_group.add_argument(
        "--chaos", action="store_true",
        help="run abusive clients (slow-loris + mid-body aborts) "
             "concurrently with the honest load",
    )
    abuse_group.add_argument(
        "--slow-loris", type=int, default=2, metavar="N",
        help="slow-loris header-trickling clients (default %(default)s)",
    )
    abuse_group.add_argument(
        "--aborters", type=int, default=2, metavar="N",
        help="connect-then-slam clients (default %(default)s)",
    )
    loadgen.set_defaults(func=_cmd_loadgen)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KeyboardInterrupt, ReproError) as exc:
        code = exit_code_for(exc)
        if isinstance(exc, KeyboardInterrupt):
            print("interrupted", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
