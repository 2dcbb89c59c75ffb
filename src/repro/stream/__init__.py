"""repro.stream — the live fleet-health service.

The batch pipeline answers "what happened over the study window"; this
package answers "what is happening *now*" without forking the
analysis.  A :class:`~repro.stream.follow.DirectoryFollower` tails the
growing syslog directory (rotation, new days, duplicate and late
files), :class:`~repro.stream.ingest.StreamIngest` runs the
batch-identical per-line Stage-II path into a watermark-evicting
:class:`~repro.pipeline.coalesce.StreamingCoalescer`, online
estimators and alert rules consume errors as they complete, and
:class:`~repro.stream.tenancy.MultiTenantService` serves the whole
thing over stdlib HTTP with durable checkpoint/resume — one tenant
for ``repro stream --follow``, several isolated fleets behind one
front end for ``--tenant``.  Ingest is supervised by the watchdog /
circuit-breaker machinery in :mod:`~repro.stream.guard` and stress-
tested by the seeded fault injector in :mod:`~repro.stream.chaos`.

The load-bearing property, enforced by the replay-identity tests: a
drained streaming pass over a finished directory produces the same
errors, quarantine accounting, and Table-I/availability figures —
byte-identical JSON — as the batch pipeline, chaos-corrupted input
included, supervised heal cycles included.
"""

from .alerts import Alert, AlertEngine, AlertRule, default_rules
from .chaos import (
    CHAOS_KINDS,
    ChaosController,
    ChaosEvent,
    ChaosInjectedError,
    build_chaos_plan,
)
from .estimators import (
    DEFAULT_NODE_COUNT,
    FleetEstimators,
    RollingWindow,
    fleet_report,
    infer_stream_window,
)
from .follow import DirectoryFollower, FollowStats, FollowerReadError
from .guard import (
    CircuitBreaker,
    GuardConfig,
    IngestSupervisor,
    RestartBackoff,
)
from .ingest import (
    CHECKPOINT_FILE,
    DamagedCheckpointError,
    PollOutcome,
    StreamIngest,
)
from .serve import FleetHealthServer, RequestObservability, json_route
from .tenancy import (
    MultiTenantService,
    TenantRuntime,
    TenantSpec,
    parse_tenant_arg,
    resolve_syslog_dir,
)

__all__ = [
    "Alert",
    "AlertEngine",
    "AlertRule",
    "default_rules",
    "CHAOS_KINDS",
    "ChaosController",
    "ChaosEvent",
    "ChaosInjectedError",
    "build_chaos_plan",
    "DEFAULT_NODE_COUNT",
    "FleetEstimators",
    "RollingWindow",
    "fleet_report",
    "infer_stream_window",
    "DirectoryFollower",
    "FollowStats",
    "FollowerReadError",
    "CircuitBreaker",
    "GuardConfig",
    "IngestSupervisor",
    "RestartBackoff",
    "CHECKPOINT_FILE",
    "DamagedCheckpointError",
    "PollOutcome",
    "StreamIngest",
    "FleetHealthServer",
    "RequestObservability",
    "json_route",
    "MultiTenantService",
    "TenantRuntime",
    "TenantSpec",
    "parse_tenant_arg",
    "resolve_syslog_dir",
]
