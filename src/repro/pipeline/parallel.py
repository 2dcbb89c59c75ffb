"""Process-pool execution of per-day shard scans.

The scan half of the sharded pipeline (:mod:`repro.pipeline.shard`) is
watermark-independent, so day files can be scanned by a pool of worker
processes in any order while the parent folds finished scans in day
order.  This module owns the pool mechanics: per-worker initialization
(each worker loads the hardware inventory once and reuses it for every
file it scans), the picklable task function, and worker-count
resolution for the CLI's ``--workers auto`` default.

When the run has a persistent scan cache enabled, each worker also
*stores* its own scans (:mod:`repro.pipeline.scancache`): entry
serialization happens in the worker, in parallel, instead of on the
parent's ordered merge path.  The store is keyed by the worker's
pre-scan ``stat`` of the file, so a file mutated around the scan can
only produce an entry that later validation rejects.  Cache writes are
strictly best-effort — any failure is swallowed and the scan is
returned unchanged.

The pool is an optimization, never a requirement: the orchestrator in
:mod:`repro.pipeline.run` falls back to in-process scanning when the
pool cannot be created or a worker dies, so ``workers=N`` can only
change wall-clock time, not results.

Workers end with their parent: each one watches the parent's sentinel
from a daemon thread, so a driver killed with SIGKILL leaves no worker
orphaned.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from multiprocessing.connection import wait
from pathlib import Path
from typing import Optional, Union

from ..cluster.inventory import Inventory
from .scancache import ScanCache
from .shard import DayScan, scan_day_file

__all__ = ["host_cores", "resolve_workers", "create_scan_pool", "submit_scan"]

#: Inventory loaded once per worker process by :func:`_init_worker`.
_WORKER_INVENTORY: Optional[Inventory] = None

#: Scan-cache writer built once per worker process (``None`` when the
#: run has no cache enabled).
_WORKER_CACHE: Optional[ScanCache] = None


def _exit_with_parent(sentinel: int) -> None:
    """Block until the parent process is gone, then end this worker.

    Without this a worker whose driver was SIGKILLed waits forever on
    a call queue that nobody writes to.
    """
    wait([sentinel])
    os._exit(1)


def _init_worker(
    inventory_path: Optional[str],
    cache_dir: Optional[str] = None,
    inventory_key: str = "absent",
) -> None:
    """Pool initializer: tie the worker's life to its parent's, then
    load the inventory (and cache writer) once."""
    global _WORKER_INVENTORY, _WORKER_CACHE
    threading.Thread(
        target=_exit_with_parent,
        args=(multiprocessing.parent_process().sentinel,),
        daemon=True,
    ).start()
    _WORKER_INVENTORY = (
        Inventory.load(Path(inventory_path)) if inventory_path else None
    )
    _WORKER_CACHE = (
        ScanCache(Path(cache_dir), inventory_key) if cache_dir else None
    )


def _scan_task(path_str: str, want_fingerprint: bool) -> DayScan:
    """One pool task: scan a single day file against the worker inventory.

    With a cache configured, the worker stats the file *before*
    scanning and persists the finished scan under that identity — the
    same pre-scan-stat rule the checkpoint store follows, so mid-scan
    mutations invalidate rather than poison the entry.
    """
    path = Path(path_str)
    cache = _WORKER_CACHE
    st = None
    if cache is not None:
        try:
            st = path.stat()
        except OSError:
            st = None
    scan = scan_day_file(
        path, _WORKER_INVENTORY, want_fingerprint=want_fingerprint
    )
    if cache is not None and st is not None:
        try:
            cache.store(path, st, scan)
        except Exception:
            pass  # cache writes must never fail the scan
    return scan


def host_cores() -> int:
    """CPU cores available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def resolve_workers(workers: Union[int, str, None]) -> int:
    """Map a CLI worker spec to a concrete pool size.

    ``"auto"`` (and ``None``/``0``) mean one worker per available core;
    anything else is taken literally, floored at 1.  The count is a
    pool size, not a core reservation — asking for more workers than
    cores is allowed (the determinism tests do exactly that on small
    hosts).
    """
    if workers in (None, 0, "auto"):
        return host_cores()
    count = int(workers)
    return count if count >= 1 else 1


def create_scan_pool(
    workers: int,
    inventory_path: Optional[Path],
    cache: Optional[ScanCache] = None,
) -> ProcessPoolExecutor:
    """A process pool whose workers have the inventory preloaded.

    ``cache`` (when given) arms worker-side scan-cache stores: its
    directory and inventory key are shipped to every worker so stores
    land in the same cache the parent validates against.

    Raises whatever the platform raises when process pools are
    unavailable; callers treat any failure as "run serial instead".
    """
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(
            str(inventory_path) if inventory_path else None,
            str(cache.root) if cache is not None else None,
            cache.inventory_key if cache is not None else "absent",
        ),
    )


def submit_scan(pool: ProcessPoolExecutor, path: Path, want_fingerprint: bool):
    """Submit one day-file scan to the pool; returns its future."""
    return pool.submit(_scan_task, str(path), want_fingerprint)
