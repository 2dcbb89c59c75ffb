"""Workload specification calibrated to paper Table III.

Table III describes Delta's GPU job population in eight GPU-count
buckets, each with its share of jobs, elapsed-time statistics (mean,
P50, P99 in minutes), and GPU-hours split into ML and non-ML.  This
module encodes those rows and solves for the per-bucket duration
distribution parameters.

**Duration model.**  Within a bucket, elapsed time is lognormal with
median equal to the bucket's P50 and hard-capped at the bucket's P99
(the P99 values sitting at ~2880 minutes reveal Delta's 48-hour
walltime limit; smaller buckets have their own effective caps).  The
lognormal shape σ is solved numerically so the *capped* mean matches
the bucket's reported mean:

    E[min(X, c)] = e^{μ+σ²/2} Φ((ln c − μ − σ²)/σ) + c (1 − Φ((ln c − μ)/σ))

with μ = ln(P50).  :func:`solve_sigma` does the root find (Brent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

from ..core.exceptions import CalibrationError

#: Brent's relative tolerance (four machine epsilons) and step budget.
_BRENT_RTOL = 4 * math.ulp(1.0)
_BRENT_MAXITER = 100


def normal_cdf(x: float) -> float:
    """Standard normal CDF Φ(x).

    Uses ``erf`` near zero and ``erfc`` of ``|x|/√2`` elsewhere, so the
    tail keeps its relative precision instead of cancelling in
    ``1 − erf``.
    """
    z = x * math.sqrt(0.5)
    if abs(z) < math.sqrt(0.5):
        return 0.5 + 0.5 * math.erf(z)
    tail = 0.5 * math.erfc(abs(z))
    return 1.0 - tail if z > 0 else tail


def brent_root(f: Callable[[float], float], a: float, b: float, xtol: float) -> float:
    """Root of ``f`` in ``[a, b]`` by Brent's method.

    ``f(a)`` and ``f(b)`` must differ in sign.  Each step tries secant
    interpolation (two distinct points) or inverse quadratic
    extrapolation (three) and bisects unless that step is short enough;
    the root is returned once the bracket is narrower than
    ``xtol + rtol·|x|``.  The step rules, ``rtol`` and the step budget
    are those of the classic ``brentq`` routine, so on the same function
    it returns the same root, bit for bit.

    Raises:
        ValueError: when ``f(a)`` and ``f(b)`` have the same sign.
        RuntimeError: when the step budget runs out before convergence.
    """
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if (fpre < 0) != (fcur < 0):
            # The root lies between the last two iterates: the older
            # one becomes the far end of the bracket.
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            # Keep the smaller residual as the current estimate.
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (
                    dblk * dpre * (fblk - fpre)
                )
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(
        f"Brent's method did not converge in {_BRENT_MAXITER} steps"
    )


def capped_lognormal_mean(mu: float, sigma: float, cap: float) -> float:
    """Mean of ``min(X, cap)`` for X ~ Lognormal(mu, sigma)."""
    if sigma <= 0:
        return min(math.exp(mu), cap)
    log_cap = math.log(cap)
    body = math.exp(mu + sigma**2 / 2.0) * normal_cdf(
        (log_cap - mu - sigma**2) / sigma
    )
    tail = cap * (1.0 - normal_cdf((log_cap - mu) / sigma))
    return body + tail


def solve_sigma(
    median: float, mean: float, cap: float, bracket: Tuple[float, float] = (0.01, 12.0)
) -> float:
    """Solve the lognormal σ whose capped mean matches ``mean``.

    Args:
        median: distribution median (bucket P50, minutes).
        mean: target capped mean (bucket mean, minutes).
        cap: hard cap (bucket P99 ≈ walltime limit, minutes).

    Raises:
        CalibrationError: when no σ in the bracket achieves the mean
            (e.g. the target exceeds what any capped lognormal with
            this median can reach).
    """
    if median <= 0 or mean <= 0 or cap <= median:
        raise CalibrationError(
            f"inconsistent duration stats: median={median}, mean={mean}, cap={cap}"
        )
    mu = math.log(median)

    def objective(sigma: float) -> float:
        return capped_lognormal_mean(mu, sigma, cap) - mean

    lo, hi = bracket
    f_lo, f_hi = objective(lo), objective(hi)
    if f_lo > 0:
        # Even a near-degenerate distribution overshoots: the reported
        # mean is below the median+cap structure; clamp to minimal spread.
        return lo
    if f_hi < 0:
        raise CalibrationError(
            f"capped lognormal cannot reach mean {mean} (median {median}, cap {cap})"
        )
    return brent_root(objective, lo, hi, xtol=1e-6)


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class GpuBucket:
    """One row of Table III.

    Attributes:
        label: the row label, e.g. ``"2-4"``.
        min_gpus / max_gpus: inclusive GPU-count range covered.
        job_share: fraction of all GPU jobs in this bucket.
        mean_minutes / p50_minutes / p99_minutes: elapsed-time stats.
        ml_gpu_hours_k / non_ml_gpu_hours_k: Table III's GPU-hour split
            (thousands of hours, full-scale Delta).
    """

    label: str
    min_gpus: int
    max_gpus: int
    job_share: float
    mean_minutes: float
    p50_minutes: float
    p99_minutes: float
    ml_gpu_hours_k: float
    non_ml_gpu_hours_k: float

    def __post_init__(self) -> None:
        if not 0 < self.min_gpus <= self.max_gpus:
            raise CalibrationError(f"bucket {self.label}: bad GPU range")
        if not 0 <= self.job_share <= 1:
            raise CalibrationError(f"bucket {self.label}: bad share")

    @property
    def ml_probability(self) -> float:
        """Probability a job in this bucket is an ML workload.

        Approximated by the bucket's ML share of GPU-hours (durations
        are identically distributed within a bucket, so GPU-hour share
        and job share coincide in expectation).
        """
        total = self.ml_gpu_hours_k + self.non_ml_gpu_hours_k
        if total <= 0:
            return 0.0
        return self.ml_gpu_hours_k / total

    @property
    def duration_sigma(self) -> float:
        """Calibrated lognormal σ for this bucket (cached)."""
        return _bucket_sigma(self.p50_minutes, self.mean_minutes, self.p99_minutes)

    @property
    def duration_mu(self) -> float:
        """Lognormal μ (log of the median, in minutes)."""
        return math.log(self.p50_minutes)

    def gpu_count_weights(self) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
        """Candidate GPU counts and sampling weights within the bucket.

        Powers of two are up-weighted 3x (mirrors real allocation
        habits) and larger counts are down-weighted harmonically.
        """
        counts = tuple(range(self.min_gpus, self.max_gpus + 1))
        raw = [
            (3.0 if _is_power_of_two(c) else 1.0) / c for c in counts
        ]
        total = sum(raw)
        return counts, tuple(w / total for w in raw)


@lru_cache(maxsize=None)
def _bucket_sigma(p50: float, mean: float, p99: float) -> float:
    return solve_sigma(median=p50, mean=mean, cap=p99)


#: Table III, verbatim.  Ranges are interpreted half-open on the label
#: boundaries: "2-4" covers {2,3,4}, "4-8" covers {5..8}, and so on;
#: "256+" tops out at Delta's 448 A100s.
TABLE3_BUCKETS: Tuple[GpuBucket, ...] = (
    GpuBucket("1", 1, 1, 0.6986, 175.62, 10.15, 2483.12, 241.6, 2724.0),
    GpuBucket("2-4", 2, 4, 0.2731, 145.04, 4.75, 2880.03, 344.6, 3108.7),
    GpuBucket("4-8", 5, 8, 0.0155, 133.89, 2.70, 2880.20, 57.9, 338.6),
    GpuBucket("8-32", 9, 32, 0.0107, 270.40, 73.73, 2880.17, 107.1, 1332.7),
    GpuBucket("32-64", 33, 64, 0.0014, 204.52, 10.25, 2817.08, 161.9, 226.4),
    GpuBucket("64-128", 65, 128, 0.00063, 226.28, 0.32, 2211.94, 25.1, 322.3),
    GpuBucket("128-256", 129, 256, 0.00006, 226.53, 9.19, 2785.29, 0.0, 52.4),
    GpuBucket("256+", 257, 448, 0.00002, 32.12, 20.40, 120.14, 0.0, 4.5),
)


def bucket_for_gpu_count(
    gpu_count: int, buckets: Sequence[GpuBucket] = TABLE3_BUCKETS
) -> Optional[GpuBucket]:
    """Find the Table III bucket a GPU count falls into."""
    for bucket in buckets:
        if bucket.min_gpus <= gpu_count <= bucket.max_gpus:
            return bucket
    return None


@dataclass(frozen=True)
class GangJobSpec:
    """A gang-scheduled multi-node training workload (Section V-B).

    The recovery engine injects ``count`` long-running gangs on top of
    the Table III population.  Each gang holds an all-or-nothing
    allocation of ``gang_nodes`` whole nodes (``gpus_per_node`` GPUs
    each); any fatal GPU/NVLink error on a member node fails the whole
    gang, which then walks the detect→drain→reschedule→restore
    timeline.

    Attributes:
        name: job-name stem (carries the ML signal for Section V-A's
            classifier, like real pre-training job names do).
        count: number of independent gangs to inject.
        gang_nodes: whole nodes per gang.
        gpus_per_node: GPUs taken on each member node.
        work_days: total work, in wall-days at full gang size (a
            degraded gang does the same work proportionally slower).
        submit_day: sim day the gangs are submitted.
        user: synthetic owner of the gangs.
    """

    name: str = "llm-pretrain"
    count: int = 2
    gang_nodes: int = 2
    gpus_per_node: int = 4
    work_days: float = 45.0
    submit_day: float = 1.0
    user: str = "mlops"

    def __post_init__(self) -> None:
        if self.count < 1:
            raise CalibrationError("gang count must be >= 1")
        if self.gang_nodes < 1:
            raise CalibrationError("gang_nodes must be >= 1")
        if not 1 <= self.gpus_per_node <= 8:
            raise CalibrationError("gpus_per_node must be in [1, 8]")
        if self.work_days <= 0:
            raise CalibrationError("work_days must be positive")
        if self.submit_day < 0:
            raise CalibrationError("submit_day must be >= 0")

    @property
    def gpu_count(self) -> int:
        """Total GPUs one full-size gang holds."""
        return self.gang_nodes * self.gpus_per_node


@dataclass(frozen=True)
class WorkloadSpec:
    """Top-level workload calibration (paper Section V-A).

    Attributes:
        buckets: the GPU-count mix.
        gpu_jobs_total: GPU jobs over the operational period at full
            scale (1,445,119 on Delta).
        cpu_jobs_total: CPU jobs over the operational period.
        gpu_success_rate / cpu_success_rate: overall success rates.
        gpu_error_failure_fraction: fraction of GPU jobs ended by GPU
            errors at full scale (3,285 / 1,445,119); subtracted from
            the intrinsic failure probability so the *total* failure
            mass matches the paper.
        pre_op_load_factor: workload intensity during bring-up relative
            to production (acceptance testing only).
        operational_hours: length of the operational period used to
            turn totals into arrival rates.
    """

    buckets: Tuple[GpuBucket, ...] = TABLE3_BUCKETS
    gpu_jobs_total: int = 1_445_119
    cpu_jobs_total: int = 1_686_696
    gpu_success_rate: float = 0.7468
    cpu_success_rate: float = 0.7490
    gpu_error_failure_fraction: float = 3_285 / 1_445_119
    pre_op_load_factor: float = 0.10
    operational_hours: float = 895 * 24.0

    def __post_init__(self) -> None:
        share = sum(b.job_share for b in self.buckets)
        if not 0.98 <= share <= 1.02:
            raise CalibrationError(f"bucket shares sum to {share:.4f}, not ~1")

    @property
    def gpu_arrival_rate_per_hour(self) -> float:
        """Full-scale GPU-job arrival rate in the operational period."""
        return self.gpu_jobs_total / self.operational_hours

    @property
    def cpu_arrival_rate_per_hour(self) -> float:
        """Full-scale CPU-job arrival rate in the operational period."""
        return self.cpu_jobs_total / self.operational_hours

    @property
    def gpu_intrinsic_failure_probability(self) -> float:
        """Per-job probability of a non-GPU-error failure."""
        return max(
            0.0, 1.0 - self.gpu_success_rate - self.gpu_error_failure_fraction
        )

    @property
    def cpu_intrinsic_failure_probability(self) -> float:
        """Per-job probability a CPU job fails (no GPUs to blame)."""
        return max(0.0, 1.0 - self.cpu_success_rate)
