"""End-to-end benchmark: five workloads from ``simulate`` to ``/v1/fleet``.

Run every workload once and print each end-to-end metric::

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed 7] [--runs N] \\
        [--workload NAME] [--trace [0|1]] [--out PATH]
    python benchmarks/e2e/run.py --compare BASE.json HEAD.json

Each run is a fresh child process (``workloads.py``) doing a fixed
amount of work.  ``--trace 1`` runs the workloads with the layer hooks
installed and reports the per-layer metrics instead; a bare ``--trace``
runs both and prints the traced ÷ untraced ratio of each workload's
primary metric.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
for a single workload its metrics are the ``end_to_end`` (or, traced,
the ``per_layer``) metrics named in ``BENCHMARK.json``.  The exit code
is 1 when a gate fails or the runs of a set disagree on their digest.

``--compare`` pairs the runs of two ``--out`` files and gives each
(metric, workload) a verdict: ``gain``, ``regression``, ``unresolved``
or ``unchanged`` (rules in ``stats.verdict`` and ``stats.fails_more``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads as runners  # noqa: E402
from stats import fails_more, summarize, verdict  # noqa: E402

WORKLOADS = tuple(runners.WORKLOADS)

#: The end-to-end ledger: unit, better, the ``BENCHMARK.json`` metric
#: whose regression bound applies, and the workloads reporting it.  Each
#: workload's primary metric is reported there as ``result_s``, and
#: every other time shares that bound.  ``error_ratio`` has no bound:
#: any rise in the share of failed operations is a regression
#: (``stats.fails_more``).
METRICS: Dict[str, tuple] = {
    "setup_s": ("s", "lower", "setup_s", WORKLOADS),
    "peak_rss_mib": ("MiB", "lower", "peak_rss_mib", WORKLOADS),
    "study_s": ("s", "lower", "result_s", ("study",)),
    "pipeline_s": ("s", "lower", "result_s", ("rescan", "dirty")),
    "pipeline_warm_s": ("s", "lower", "result_s", ("rescan",)),
    "stream_drain_s": ("s", "lower", "result_s", ("rescan", "dirty")),
    "ingest_s": ("s", "lower", "result_s", ("serve",)),
    "error_ratio": ("ratio", "lower", None, WORKLOADS),
    "campaign_s": ("s", "lower", "result_s", ("fleet",)),
}

#: Each workload's primary metric; reported to BENCHMARK.json as ``result_s``.
PRIMARY = {
    "study": "study_s",
    "rescan": "pipeline_s",
    "dirty": "pipeline_s",
    "serve": "ingest_s",
    "fleet": "campaign_s",
}

#: A child that runs longer than this is killed (each run must end in 180 s).
CHILD_TIMEOUT = 170.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bound_of(name: str, spec: dict) -> float:
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == METRICS[name][2])


def primary_seconds(result: dict) -> Optional[float]:
    """The workload's primary metric, in seconds (``result_s``)."""
    metric = result["metrics"].get(PRIMARY[result["workload"]])
    if metric is None or metric["value"] is None:
        return None
    scale = 1e-3 if metric["unit"] == "ms" else 1.0
    return metric["value"] * scale


def run_child(workload: str, seed: int, trace: bool,
              trace_dir: Optional[Path]) -> Optional[dict]:
    """One fresh child process running one workload; its result, or None."""
    with tempfile.NamedTemporaryFile(
        prefix=f"e2e-{workload}-", suffix=".json", dir=ROOT / ".e2e_work",
        delete=False,
    ) as handle:
        result_path = Path(handle.name)
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload,
        "--seed", str(seed), "--trace", "1" if trace else "0",
        "--result", str(result_path),
    ]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    # Its own process group, so everything the workload starts (CLI
    # commands, pool workers, the service) can be stopped together.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=runners.child_env(), stdout=sys.stderr,
        start_new_session=True,
    )
    code = None
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        pass
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    try:
        if code != 0:
            print(f"error: {workload} child exited {code}", file=sys.stderr)
            return None
        return json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        result_path.unlink(missing_ok=True)
        shutil.rmtree(
            ROOT / ".e2e_work" / f"{workload}-{seed}-{proc.pid}", ignore_errors=True
        )


def metric_rows(results: Sequence[dict]) -> List[tuple]:
    """(metric, unit, summary) rows: across runs, or within a single run."""
    rows = []
    names = [m for m in METRICS if m in results[0]["metrics"]]
    for name in names:
        entries = [r["metrics"][name] for r in results]
        unit = entries[0]["unit"]
        if len(results) > 1:
            summary = summarize([e["value"] for e in entries])
        elif "samples" in entries[0]:
            summary = summarize(entries[0]["samples"])
        else:
            value = entries[0]["value"]
            summary = {"median": value, "q1": value, "q3": value, "n": entries[0]["n"]}
        rows.append((name, unit, summary))
    return rows


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def print_metrics(workload: str, rows: Sequence[tuple]) -> None:
    for name, unit, s in rows:
        print(
            f"{workload:<7} {name:<16} {unit:<6} median {_fmt(s['median']):>10}"
            f"  q1 {_fmt(s['q1']):>10}  q3 {_fmt(s['q3']):>10}  n {s['n']}"
        )


def per_layer_values(results: Sequence[dict], spec: dict) -> Dict[str, float]:
    """Median over runs of every declared per-layer metric (0 if unseen)."""
    out = {}
    for entry in spec["per_layer"]:
        values = [r["layers"].get(entry["name"]) or 0 for r in results]
        out[entry["name"]] = statistics.median(values)
    return out


def end_to_end_values(results: Sequence[dict]) -> Dict[str, float]:
    def median(values):
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else None

    return {
        "setup_s": median(r["metrics"]["setup_s"]["value"] for r in results),
        "result_s": median(primary_seconds(r) for r in results),
        "peak_rss_mib": median(
            r["metrics"].get("peak_rss_mib", {}).get("value") for r in results
        ),
    }


def check_digests(workload: str, seed: int, results: Sequence[dict]) -> bool:
    """Every run of a set must agree; a reference mismatch is only reported."""
    digests = {r["digest"] for r in results}
    agree = len(digests) == 1
    if not agree:
        print(f"{workload}: runs disagree on their output digest", file=sys.stderr)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    expected = reference.get("digests", {}).get(str(seed), {}).get(workload)
    digest = results[0]["digest"]
    status = "" if expected is None else (
        "  (matches reference)" if digest == expected else "  (DIFFERS from reference)"
    )
    print(f"{workload:<7} digest {digest[:16]}{status}")
    return agree


def compare(base_path: Path, head_path: Path, spec: dict) -> int:
    base = json.loads(base_path.read_text(encoding="utf-8"))
    head = json.loads(head_path.read_text(encoding="utf-8"))
    print(
        f"{'workload':<8} {'metric':<16} {'base':>10} {'[q1, q3]':<23} "
        f"{'head':>10} {'[q1, q3]':<23} {'won':>7}  verdict"
    )
    for workload in WORKLOADS:
        b_runs = base["runs"].get(workload, [])
        h_runs = head["runs"].get(workload, [])
        if not b_runs or not h_runs:
            continue
        # A head that fails more operations than base regresses, and no
        # metric of the workload may count as a gain.
        worse = fails_more(
            [(r["failed"], r["attempted"]) for r in b_runs],
            [(r["failed"], r["attempted"]) for r in h_runs],
        )
        for name, (unit, better, _, owners) in METRICS.items():
            if workload not in owners:
                continue
            if name == "error_ratio":
                counts = [
                    f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"
                    for runs in (b_runs, h_runs)
                ]
                print(
                    f"{workload:<8} {name:<16} {counts[0]:>34} {counts[1]:>34} "
                    f"{'':>7}  {'regression' if worse else 'unchanged'}"
                )
                continue
            b = [r["metrics"][name]["value"] for r in b_runs]
            h = [r["metrics"][name]["value"] for r in h_runs]
            if None in b or None in h:
                continue
            v = verdict(b, h, better, bound_of(name, spec), allow_gain=not worse)
            bs, hs = v["base"], v["head"]
            won = f"{v['won']}/{v['pairs']}"
            print(
                f"{workload:<8} {name:<16} {_fmt(bs['median']):>10} {_quartiles(bs):<23} "
                f"{_fmt(hs['median']):>10} {_quartiles(hs):<23} {won:>7}  {v['verdict']}"
            )
    return 0


def _quartiles(summary: dict) -> str:
    return f"[{_fmt(summary['q1'])}, {_fmt(summary['q3'])}]"


def parse_args(argv: Optional[Sequence[str]], spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n\n", 1)[1],
    )
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="accepted only as BENCHMARK.json's run_seconds, which states "
             "about how long a run's fixed work measures; it sets nothing",
    )
    parser.add_argument(
        "--trace", nargs="?", const="both", default="0", choices=("0", "1", "both"),
        help="1: traced runs only; bare flag: untraced and traced runs",
    )
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "HEAD"))
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.seconds != spec["run_seconds"]:
        parser.error(
            f"--seconds must be {spec['run_seconds']}: each workload's work is fixed"
        )
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    # Unwind on SIGTERM, so run_child stops the running workload's group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workloads = args.workload or list(WORKLOADS)
    untraced = args.trace in ("0", "both")
    traced = args.trace in ("1", "both")
    (ROOT / ".e2e_work").mkdir(exist_ok=True)
    trace_dir = (
        args.out.with_name(args.out.stem + "-traces") if args.out
        else ROOT / ".e2e_work" / "traces"
    )
    record = {
        "schema": "repro-e2e-v1",
        "host_cores": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "summary": {},
        "digests": {},
        "runs": {},
        "traced": {},
    }
    attempted = failed = 0
    correct = True
    last_metrics: Dict[str, float] = {}
    for workload in workloads:
        plans = [(False, args.runs)] if untraced else []
        plans += [(True, args.runs if not untraced else 1)] if traced else []
        for is_traced, count in plans:
            results = []
            for _ in range(count):
                result = run_child(
                    workload, args.seed, is_traced, trace_dir if is_traced else None
                )
                if result is None:
                    return 1
                results.append(result)
                attempted += result["attempted"]
                failed += result["failed"]
                for message in result["failures"]:
                    print(f"{workload}: FAILED {message}", file=sys.stderr)
            record["traced" if is_traced else "runs"][workload] = results
            correct &= check_digests(workload, args.seed, results)
            correct &= all(r["failed"] == 0 for r in results)
            if is_traced:
                last_metrics = per_layer_values(results, spec)
                hooks = {f"{h.name}.s": h for h in layers.HOOKS}
                for name, value in last_metrics.items():
                    if value:
                        hook = hooks.get(name)
                        where = f"  [{hook.layer}; moves {hook.moves}]" if hook else ""
                        print(f"{workload:<7} {name:<44} {_fmt(value):>12}{where}")
                for path in results[0].get("trace_files", []):
                    print(f"{workload:<7} trace written to {path}")
            else:
                rows = metric_rows(results)
                print_metrics(workload, rows)
                record["summary"][workload] = {
                    name: dict(summary, unit=unit) for name, unit, summary in rows
                }
                record["digests"][workload] = results[0]["digest"]
                last_metrics = end_to_end_values(results)
        if untraced and traced:
            plain = statistics.median(
                primary_seconds(r) for r in record["runs"][workload]
            )
            hooked = primary_seconds(record["traced"][workload][0])
            print(
                f"{workload:<7} tracing overhead on {PRIMARY[workload]}: "
                f"traced / untraced = {hooked / plain:.4f}"
            )
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    line = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": (
            {
                name: {"value": value, "unit": units[name]}
                for name, value in last_metrics.items()
            }
            if len(workloads) == 1 else {}
        ),
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
