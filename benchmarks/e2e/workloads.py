"""The five end-to-end workloads; each run is one fresh child process.

Usage (``run.py`` starts this; the program sees only generated inputs)::

    PYTHONPATH=src python benchmarks/e2e/workloads.py --workload rescan \\
        --seed 7 --trace 0 --result out.json

Set-up is :data:`SETUPS` fresh interpreters, one after another, each
importing the modules the workload runs; ``setup_s`` is their median.
The corpus workloads then generate their input once with ``repro
simulate --preset small --seed S --job-scale 0.01`` (~267k syslog lines
in 80 day files), in a CLI subprocess so its memory never counts toward
the workload's peak RSS.  That is input, like the seed, and no metric
of these workloads times it; ``study`` times ``repro simulate`` itself.

Every workload does a fixed amount of work (the passes its function
makes and the ``*_PHASE_S`` constants), so every run and every commit
measures the same work.

Every ledger time is reported at the reference host speed (see
:meth:`Run.timed`).  Every pass is checked against a reference,
failures count toward the run's ``failed`` total, and a digest of the
outputs is reported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import client as loadclient  # noqa: E402
import layers  # noqa: E402
from stats import percentile  # noqa: E402

#: Set-ups per run, one after another; ``setup_s`` is their median.
SETUPS = 3
#: What each workload's set-up imports in a fresh interpreter: the
#: modules its first timed operation runs (``serve`` and ``study`` start
#: the CLI).
SETUP_IMPORTS = {
    "study": "repro.cli",
    "rescan": "repro.pipeline, repro.stream.ingest",
    "dirty": "repro.pipeline, repro.stream.ingest",
    "serve": "repro.cli",
    "fleet": "repro.fleetscale",
}
#: Per-command timeout for subprocesses (the whole run must end in 180 s).
SUBPROCESS_TIMEOUT = 150.0

CORPUS_ARGS = ("--preset", "small", "--job-scale", "0.01")
CHAOS_RATE_SCALE = "50"

#: serve: phase lengths (s), offered read rates (req/s), append rate
#: (lines/s) and chunk (s).
READ_PHASE_S = 2.0
MIXED_PHASE_S = 5.0
READ_RATE = 500.0
MIXED_READ_RATE = 250.0
APPEND_RATE = 400.0
APPEND_CHUNK_S = 0.05
ROUTES = ("/v1/fleet", "/v1/alerts")

#: fleet: the campaign every run makes.
FLEET_ARCH = "mixed"
FLEET_GPUS = 40_000
FLEET_DAYS = 365.0

#: The host-speed probe: a fixed pure-Python loop, timed PROBE_REPS times.
PROBE_ITERATIONS = 100_000
PROBE_REPS = 5
#: The probe's wall at the reference host speed.  Every ledger time is
#: reported as if the host ran at this speed.
REFERENCE_PROBE_S = 0.006


def child_env() -> Dict[str, str]:
    """Environment for every subprocess: ``src`` on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _mib(kilobytes: float) -> float:
    return kilobytes / 1024.0


def own_peak_rss_mib() -> float:
    """This process's resident-set high-water mark (children excluded)."""
    return _mib(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _sha(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def tree_digest(root: Path) -> str:
    """Content hash of every regular file under ``root`` (sorted paths)."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _probe_loop() -> int:
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return total


def probe_seconds() -> float:
    """The host's current speed: the median wall of the probe loop."""
    walls = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        _probe_loop()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def count_lines(path: Path) -> int:
    data = path.read_bytes()
    return data.count(b"\n") + (1 if data and not data.endswith(b"\n") else 0)


class Run:
    """Samples, gates, per-layer counts and spans of one workload run."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.traced = bool(args.trace)
        self.trace_dir = args.trace_dir
        self.work = ROOT / ".e2e_work" / f"{self.workload}-{self.seed}-{os.getpid()}"
        self.env = child_env()
        self.metrics: Dict[str, dict] = {}
        self.layers: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._count_lock = threading.Lock()
        self.digest = ""
        self.tracer = (
            layers.LayerTracer(layers.hooks_for(self.workload)) if self.traced else None
        )
        self.span_texts: List[str] = []
        self.probes: List[float] = []

    # -- timing --------------------------------------------------------

    def probe(self) -> float:
        """:func:`probe_seconds`, kept for the run's ``host.loop_ms``."""
        seconds = probe_seconds()
        self.probes.append(seconds)
        return seconds

    def at_reference(self, wall: float, before: float, after: float) -> float:
        """``wall`` scaled to the reference speed by probes taken around it."""
        return wall * REFERENCE_PROBE_S / ((before + after) / 2)

    def timed(self, fn: Callable[[], object]) -> Tuple[float, object]:
        """``(seconds at the reference speed, result)`` of one operation.

        The CPU speed of the 2-core development host drifts by up to a
        factor of two over minutes with its neighbours' load; a 20 s
        median of a fixed loop still spreads by 15% between runs.  So
        the probe
        runs just before and just after the operation, while nothing
        else in the benchmark is busy, and the wall is scaled by
        :data:`REFERENCE_PROBE_S` over the mean of the two.
        """
        # Garbage from the previous operation must not be collected on
        # this one's clock.
        gc.collect()
        before = self.probe()
        t0 = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - t0
        return self.at_reference(wall, before, self.probe()), value

    # -- accounting ----------------------------------------------------

    def count(self, attempted: int, failed: int, message: str) -> None:
        """Count operations and gates; ``failed`` of them went wrong."""
        with self._count_lock:
            self.attempted += attempted
            self.failed += failed
            if failed:
                self.failures.append(
                    f"{message} (x{failed})" if failed > 1 else message
                )
                print(f"FAILED: {self.failures[-1]}", file=sys.stderr)

    def check(self, ok: bool, message: str) -> bool:
        """Count one operation or gate; record it if it failed."""
        self.count(1, 0 if ok else 1, message)
        return ok

    def timing(self, name: str, unit: str, samples: Sequence[float]) -> None:
        """A metric read as the median of per-operation samples."""
        self.metrics[name] = {
            "unit": unit,
            "value": statistics.median(samples),
            "n": len(samples),
            "samples": list(samples),
        }

    def value(self, name: str, unit: str, value: float, n: int) -> None:
        """A metric computed from ``n`` underlying samples."""
        self.metrics[name] = {"unit": unit, "value": value, "n": n}

    @contextmanager
    def hooks(self):
        """Install the layer hooks in this process for a traced run."""
        if self.tracer is None:
            yield
            return
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()

    @contextmanager
    def unhooked(self):
        """Suspend the hooks (passes the per-layer table measures untraced)."""
        if self.tracer is None:
            yield
            return
        self.tracer.uninstall()
        try:
            yield
        finally:
            self.tracer.install()

    # -- subprocesses --------------------------------------------------

    def cli(
        self, args: Sequence[str], log: str, hooked: bool = False
    ) -> Tuple[int, float, str]:
        """Run one ``repro`` command; ``(exit code, peak RSS MiB, stdout)``.

        ``hooked`` runs it through the hooked CLI (``layers.py``) so its
        spans join this run's trace.
        """
        spans = self.work / f"{log}.spans.jsonl"
        result = self.spawn(self.repro_command(args, spans, hooked), log)
        if hooked and spans.exists():
            self.span_texts.append(spans.read_text(encoding="utf-8"))
        return result

    def repro_command(
        self, args: Sequence[str], spans: Path, hooked: bool
    ) -> List[str]:
        """``python -m repro ARGS``, or the hooked CLI writing ``spans``."""
        if not hooked:
            return [sys.executable, "-m", "repro", *args]
        return [
            sys.executable, str(HERE / "layers.py"), "--spans", str(spans),
            "--workload", self.workload, "--", *args,
        ]

    def spawn(self, cmd: Sequence[str], log: str) -> Tuple[int, float, str]:
        """Run ``cmd`` to completion; exit code, peak RSS (``wait4``), output."""
        out_path = self.work / f"{log}.out"
        with open(out_path, "wb") as out:
            proc = subprocess.Popen(
                list(cmd), env=self.env, cwd=self.work, stdout=out,
                stderr=subprocess.STDOUT,
            )
            timer = threading.Timer(SUBPROCESS_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = out_path.read_text(encoding="utf-8", errors="replace")
        return proc.returncode, _mib(usage.ru_maxrss), text

    def setup(self) -> None:
        """Time :data:`SETUPS` fresh interpreters, one after another,
        importing the workload's modules; ``setup_s`` is their median."""
        modules = SETUP_IMPORTS[self.workload]
        walls = []
        for index in range(SETUPS):
            wall, (code, _, text) = self.timed(
                lambda: self.spawn([sys.executable, "-c", f"import {modules}"],
                                   f"setup{index}")
            )
            self.check(code == 0, f"set-up import {modules} failed: {text[-400:]}")
            walls.append(wall)
        self.timing("setup_s", "s", walls)

    def corpus(self, chaos: bool = False) -> Path:
        """Generate the input corpus: ``repro simulate``, then, for a
        dirty corpus, ``repro chaos`` in the same interpreter."""
        out = "corpus"
        seed = str(self.seed)
        commands = [["simulate", out, "--seed", seed, *CORPUS_ARGS]]
        if chaos:
            commands.append(
                ["chaos", out, "--chaos-seed", seed, "--rate-scale", CHAOS_RATE_SCALE]
            )
        script = (
            "import sys\nfrom repro.cli import main\n"
            f"for args in {commands!r}:\n    if main(args):\n        sys.exit(1)\n"
        )
        code, _, text = self.spawn([sys.executable, "-c", script], out)
        self.check(code == 0, f"corpus generation exited {code}: {text[-400:]}")
        return self.work / out

    # -- result --------------------------------------------------------

    def span_records(self) -> List[dict]:
        text = "".join(self.span_texts)
        if self.tracer is not None:
            text += self.tracer.to_jsonl()
        return layers.read_jsonl(text)

    def finish(self) -> dict:
        result = {
            "workload": self.workload,
            "seed": self.seed,
            "trace": self.traced,
            "digest": self.digest,
        }
        self.layers["host.loop_ms"] = 1000 * statistics.median(self.probes)
        if self.traced:
            records = self.span_records()
            missing = layers.unobserved(records, self.workload)
            self.count(
                len(layers.hooks_for(self.workload)), len(missing),
                f"declared hooks recorded no call: {', '.join(missing)}",
            )
            self.layers.update(layers.hook_metrics(records))
            self.layers.update(layers.import_times(self.env))
            self.layers["sim.engine.events"] = layers.attr_total(
                records, "Engine.run", "events"
            )
            result["unobserved"] = missing
            if self.trace_dir is not None:
                stem = Path(self.trace_dir) / f"{self.workload}-{self.seed}"
                jsonl = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
                result["trace_files"] = [
                    str(p) for p in layers.write_traces(jsonl, stem)
                ]
        self.metrics["error_ratio"] = {
            "unit": "ratio",
            "value": self.failed / max(self.attempted, 1),
            "n": self.attempted,
        }
        result.update(
            metrics=self.metrics,
            layers=self.layers,
            attempted=self.attempted,
            failed=self.failed,
            failures=self.failures,
        )
        return result


# ---------------------------------------------------------------------
# study: simulate -> pipeline -> report --compare, three CLI processes
# ---------------------------------------------------------------------

REPORT_SECTIONS = ("==== Table I ====", "==== Table II ====",
                   "==== Table III ====", "==== Figure 2 ====")


def study(run: Run) -> None:
    run.setup()
    out, seed = "study", str(run.seed)
    steps = (
        ("simulate", ["simulate", out, "--seed", seed, *CORPUS_ARGS]),
        ("pipeline", ["pipeline", out]),
        ("report", ["report", out, "--compare"]),
    )
    walls, rss, outputs = {}, [], {}
    for step, args in steps:
        walls[step], (code, peak, text) = run.timed(
            lambda: run.cli(args, f"{out}-{step}", hooked=run.traced)
        )
        run.check(code == 0, f"repro {step} exited {code}: {text[-400:]}")
        rss.append(peak)
        outputs[step] = text
    missing = [s for s in REPORT_SECTIONS if s not in outputs["report"]]
    run.check(not missing, f"report output lacks {missing}")
    syslog = sorted((run.work / out / "syslog").glob("*.log"))
    run.layers["syslog.writer.lines"] = sum(count_lines(p) for p in syslog)
    run.layers["syslog.writer.mib"] = sum(p.stat().st_size for p in syslog) / 2**20
    run.layers["study.simulate_s"] = walls["simulate"]
    run.digest = _sha(
        tree_digest(run.work / out / "syslog").encode(),
        outputs["pipeline"].encode(),
        outputs["report"].encode(),
    )
    run.value("study_s", "s", sum(walls.values()), len(walls))
    run.value("peak_rss_mib", "MiB", max(rss), len(rss))


# ---------------------------------------------------------------------
# rescan / dirty: Stage II alone over a prebuilt corpus
# ---------------------------------------------------------------------


def _stage2(run: Run, chaos: bool) -> None:
    import repro.pipeline as pipeline
    from repro.cluster.inventory import Inventory
    from repro.stream.ingest import StreamIngest

    run.setup()
    corpus = run.corpus(chaos=chaos)
    inventory = Inventory.load(corpus / "inventory.json")
    warm = not chaos

    def cold():
        return pipeline.run_pipeline(corpus, workers=1)

    def cached():
        return pipeline.run_pipeline(corpus, workers=1, scan_cache=True)

    def drain():
        ingest = StreamIngest(corpus / "syslog", inventory=inventory)
        ingest.drain()
        return ingest.result()

    def streamed_matches(result):
        return result.errors == ref.errors and result.raw_hits == ref.raw_hits

    def measure(samples, fn, what, agrees=lambda result: result == ref):
        wall, result = run.timed(fn)
        samples.append(wall)
        run.check(agrees(result), f"{what} differs from the first cold pass")
        return result.scan

    colds, warms, drains, hits = [], [], [], []
    with run.hooks():
        wall, ref = run.timed(cold)
        run.count(1, 0, "first cold pass")
        colds.append(wall)
        scans = [ref.scan]
        if warm:
            measure([], cached, "storing scan-cache pass")
        # Cold passes before and after the others, apart in time:
        # pipeline_s is the primary metric, and its median should ride
        # out one slow pass.
        scans.append(measure(colds, cold, "cold pass"))
        if warm:
            hits.append(measure(warms, cached, "warm pass"))
        measure(drains, drain, "stream drain", agrees=streamed_matches)
        scans.append(measure(colds, cold, "cold pass"))
        # Before the pool pass, whose result queues add a few MiB at random.
        peak_rss = own_peak_rss_mib()
        # The pool pass feeds only per-layer numbers, so only a traced
        # run makes it.
        if warm and run.traced:
            cores = pipeline.host_cores()
            parallel: List[float] = []
            with run.unhooked():
                measure(
                    parallel, lambda: pipeline.run_pipeline(corpus, workers=cores),
                    f"workers={cores} pass",
                )
            run.layers["pipeline.parallel.s"] = parallel[0]
            run.layers["pipeline.parallel.speedup"] = (
                statistics.median(colds) / parallel[0]
            )
    run.digest = _sha(repr(ref).encode())
    run.timing("pipeline_s", "s", colds)
    if warm:
        run.timing("pipeline_warm_s", "s", warms)
        lookups = sum(s.cache_hits + s.cache_misses for s in hits)
        run.layers["pipeline.scancache.hit_ratio"] = (
            sum(s.cache_hits for s in hits) / lookups if lookups else 0.0
        )
    run.timing("stream_drain_s", "s", drains)
    run.value("peak_rss_mib", "MiB", peak_rss, 1)
    scanned = sum(s.lines_scanned for s in scans)
    run.layers["pipeline.bytescan.lines_per_s"] = scanned / sum(
        s.scan_wall_seconds for s in scans
    )
    run.layers["pipeline.bytescan.decode_ratio"] = (
        sum(s.lines_decoded for s in scans) / scanned
    )
    run.layers["pipeline.health.quarantined"] = ref.health.total_quarantined
    run.layers["pipeline.health.repaired"] = ref.health.total_repaired
    run.layers["stream.ingest.lines_per_s"] = (
        ref.health.lines_read / statistics.median(drains)
    )


def rescan(run: Run) -> None:
    _stage2(run, chaos=False)


def dirty(run: Run) -> None:
    _stage2(run, chaos=True)


# ---------------------------------------------------------------------
# serve: reads beside writes against a live ``repro stream``
# ---------------------------------------------------------------------

_ADDRESS = re.compile(r"http://([0-9.]+):(\d+)")
_DURATION = re.compile(
    r'^http_request_duration_seconds_(sum|count)\{route="([^"]+)"\} (\S+)$', re.M
)


def _get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def _handler_totals(base: str) -> Dict[Tuple[str, str], float]:
    with urllib.request.urlopen(base + "/metrics", timeout=10) as response:
        text = response.read().decode()
    return {
        (route, kind): float(value)
        for kind, route, value in _DURATION.findall(text)
    }


def _lines_read(health: dict) -> int:
    if "tenants" in health:
        return sum(t["lines_read"] for t in health["tenants"].values())
    return health["lines_read"]


def _wait_for_lines(base: str, target: int, timeout: float) -> bool:
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        try:
            if _lines_read(_get_json(base + "/healthz")) == target:
                return True
        except OSError:
            pass
        time.sleep(0.05)
    return False


def _vm_hwm_mib(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return _mib(float(line.split()[1]))
    return 0.0


def serve(run: Run) -> None:
    run.setup()
    corpus = run.corpus()
    syslog = corpus / "syslog"
    days = sorted(syslog.glob("*.log"))
    per_file = {p: count_lines(p) for p in days}
    total = sum(per_file.values())
    # Hold back the trailing day files that together cover the mixed
    # phase at the append rate; they are re-created while reads run.
    held, need = [], APPEND_RATE * MIXED_PHASE_S
    for path in reversed(days):
        if sum(per_file[p] for p in held) >= need:
            break
        held.insert(0, path)
    held_files = [(p, p.read_bytes()) for p in held]
    for path in held:
        path.unlink()
    visible = total - sum(per_file[p] for p in held)

    rng = random.Random(run.seed)
    read_phase = loadclient.poisson_reads(
        rng, "read", 0.0, READ_PHASE_S, READ_RATE, ROUTES
    )
    mixed_phase = loadclient.poisson_reads(
        rng, "mixed", 0.0, MIXED_PHASE_S, MIXED_READ_RATE, ROUTES
    ) + loadclient.chunked_appends(
        "mixed", 0.0, held_files, APPEND_RATE, APPEND_CHUNK_S
    )

    args = ["stream", "--follow", str(corpus), "--port", "0", "--poll-interval", "0.2"]
    spans = run.work / "stream.spans.jsonl"
    cmd = run.repro_command(args, spans, run.traced)
    log_path = run.work / "stream.out"
    log = open(log_path, "wb")
    gc.collect()
    launch_probe = run.probe()
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, env=run.env, cwd=run.work, stdout=log, stderr=subprocess.STDOUT
    )
    try:
        base = None
        while base is None and time.perf_counter() - started < 60:
            match = _ADDRESS.search(log_path.read_text(errors="replace"))
            if match:
                base = f"http://{match[1]}:{match[2]}"
            elif proc.poll() is not None:
                break
            else:
                time.sleep(0.02)
        if not run.check(base is not None, "service never printed its address"):
            return
        caught_up = _wait_for_lines(base, visible, timeout=60.0)
        ingest_wall = time.perf_counter() - started
        if not run.check(caught_up, "service never caught up with the corpus"):
            return
        ingest_s = run.at_reference(ingest_wall, launch_probe, run.probe())
        host, port = base[len("http://"):].split(":")
        # Build the caught-up snapshot before the read phase, so every
        # read-phase request hits the memoized view.
        for route in ROUTES:
            _get_json(base + route)
        phases = {}
        for name, schedule in (("read", read_phase), ("mixed", mixed_phase)):
            before = _handler_totals(base)
            outcomes = loadclient.OpenLoopClient(host, int(port)).run(schedule)
            phases[name] = (outcomes, before, _handler_totals(base))
        settled = _wait_for_lines(base, total, timeout=30.0)
        run.check(settled, "lines_read never reached the corpus line count")
        fleet = _get_json(base + "/v1/fleet")
        run.digest = _sha(json.dumps(
            {"report": fleet["report"], "lines_read": fleet["stream"]["lines_read"],
             "raw_hits": fleet["stream"]["raw_hits"]},
            sort_keys=True,
        ).encode())
        run.value("peak_rss_mib", "MiB", _vm_hwm_mib(proc.pid), 1)
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        log.close()
    run.check(code == 0, f"service exited {code} after SIGTERM")
    if run.traced and spans.exists():
        run.span_texts.append(spans.read_text(encoding="utf-8"))

    run.value("ingest_s", "s", ingest_s, 1)
    run.layers["serve.ingest.lines_per_s"] = visible / ingest_s
    for name, (outcomes, before, after) in phases.items():
        _phase_metrics(run, name, outcomes, before, after)


def _phase_metrics(
    run: Run, name: str, outcomes: Sequence[loadclient.Outcome],
    before: Dict[Tuple[str, str], float], after: Dict[Tuple[str, str], float],
) -> None:
    """Per-layer numbers of one serve phase.

    ``before``/``after`` are the service's handler-time totals scraped
    from ``/metrics`` around the phase.
    """
    summary = loadclient.phase_summary(outcomes, name)
    run.count(summary["attempted"], summary["failed"], f"{name} phase: failed request")
    run.count(summary["appends"], summary["append_failures"], f"{name} phase: failed append")

    def ms(values):
        return [1000 * v for v in values]

    latency = ms(summary["latency"])
    prefix = f"serve.{name}"
    quantiles = {
        f"{prefix}.p50_ms": percentile(latency, 0.5),
        f"{prefix}.p95_ms": percentile(latency, 0.95),
        f"{prefix}.p99_ms": percentile(latency, 0.99),
        f"{prefix}.fleet_p95_ms": percentile(ms(summary["by_route"]["/v1/fleet"]), 0.95),
        f"{prefix}.alerts_p95_ms": percentile(ms(summary["by_route"]["/v1/alerts"]), 0.95),
        f"{prefix}.late_p99_ms": percentile(ms(summary["lateness"]), 0.99),
    }
    short = [key for key, value in quantiles.items() if value is None]
    run.check(not short, f"{name} phase too short for {short}")
    run.layers.update(quantiles)
    for route in ROUTES:
        count = after.get((route, "count"), 0) - before.get((route, "count"), 0)
        spent = after.get((route, "sum"), 0) - before.get((route, "sum"), 0)
        key = f"{prefix}.server_{route.rsplit('/', 1)[1]}_ms"
        run.layers[key] = 1000 * spent / count if count else 0.0
    sent = [
        1000 * (o.done - o.sent) for o in outcomes
        if o.ok and o.event.route == "/v1/fleet"
    ]
    run.layers[f"{prefix}.gap_fleet_ms"] = (
        statistics.fmean(sent) - run.layers[f"{prefix}.server_fleet_ms"]
    )


# ---------------------------------------------------------------------
# fleet: thinned-sampling campaign in-process
# ---------------------------------------------------------------------


def fleet(run: Run) -> None:
    from repro.core.periods import StudyWindow
    from repro.fleetscale import FleetCampaignConfig, run_campaign

    run.setup()
    ref = StudyWindow.delta_default()
    pre = ref.pre_operational.duration / (ref.end - ref.start)
    config = FleetCampaignConfig(
        arch=FLEET_ARCH,
        scale=FLEET_GPUS,
        window=StudyWindow.scaled(
            pre_days=FLEET_DAYS * pre, op_days=FLEET_DAYS * (1.0 - pre)
        ),
        seed=run.seed,
    )
    out = run.work / "fleet"
    with run.hooks():
        wall, result = run.timed(lambda: run_campaign(config, out_dir=out))
    run.count(1, 0, "campaign")
    payload = json.loads((out / "fleet_result.json").read_text())
    payload.pop("host")
    run.digest = _sha(json.dumps(payload, sort_keys=True).encode())
    run.value("campaign_s", "s", wall, 1)
    run.value("peak_rss_mib", "MiB", own_peak_rss_mib(), 1)
    run.layers["fleetscale.events_per_s"] = result.host["events_per_second"]
    run.layers["fleetscale.heap_high_water"] = result.host["heap_high_water"]


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "study": study,
    "rescan": rescan,
    "dirty": dirty,
    "serve": serve,
    "fleet": fleet,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="run one workload once")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    run = Run(args)
    shutil.rmtree(run.work, ignore_errors=True)  # a killed run's leftovers
    run.work.mkdir(parents=True)
    try:
        WORKLOADS[args.workload](run)
        result = run.finish()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    args.result.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
