"""Unit tests for the workload layer (spec, names, generator)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ml import is_ml_job_name
from repro.core.exceptions import CalibrationError
from repro.core.periods import StudyWindow
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.names import draw_job_name, draw_user
from repro.workload.spec import (
    TABLE3_BUCKETS,
    WorkloadSpec,
    bucket_for_gpu_count,
    capped_lognormal_mean,
    normal_cdf,
    solve_sigma,
)

#: σ per Table III bucket as scipy's ``brentq`` (xtol=1e-6) solved it
#: over ``scipy.stats.norm.cdf``: the calibration every simulated
#: corpus was generated from before the solver moved in-tree.
REFERENCE_SIGMA = {
    "1": 2.875445189194719,
    "2-4": 3.1131703135579163,
    "4-8": 3.3869090518040816,
    "8-32": 1.757338247069007,
    "32-64": 2.99191496583093,
    "64-128": 6.097225967527824,
    "128-256": 3.214500886440193,
    "256+": 1.0811559508099815,
}


class TestSolveSigma:
    @pytest.mark.parametrize("bucket", TABLE3_BUCKETS, ids=lambda b: b.label)
    def test_every_table3_bucket_solvable(self, bucket):
        sigma = bucket.duration_sigma
        assert sigma > 0
        assert sigma == pytest.approx(REFERENCE_SIGMA[bucket.label], rel=1e-12, abs=0)
        mean = capped_lognormal_mean(bucket.duration_mu, sigma, bucket.p99_minutes)
        assert mean == pytest.approx(bucket.mean_minutes, rel=0.01)

    @pytest.mark.parametrize("x", [0.0, 1e-9, 0.3, 0.7071, 1.0, 2.5, 8.0, 40.0])
    def test_normal_cdf_symmetric(self, x):
        assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, rel=0, abs=1e-15)

    def test_normal_cdf_quantile(self):
        assert normal_cdf(1.959963984540054) == pytest.approx(0.975, rel=0, abs=1e-15)

    def test_monte_carlo_agrees_with_analytic(self):
        bucket = TABLE3_BUCKETS[0]
        rng = np.random.default_rng(1)
        draws = rng.lognormal(
            mean=bucket.duration_mu, sigma=bucket.duration_sigma, size=200_000
        )
        capped = np.minimum(draws, bucket.p99_minutes)
        assert capped.mean() == pytest.approx(bucket.mean_minutes, rel=0.05)

    def test_inconsistent_stats_rejected(self):
        with pytest.raises(CalibrationError):
            solve_sigma(median=10.0, mean=5.0, cap=5.0)  # cap <= median

    @given(
        median=st.floats(min_value=0.5, max_value=100),
        ratio=st.floats(min_value=1.2, max_value=20),
    )
    @settings(max_examples=30, deadline=None)
    def test_solved_sigma_reproduces_mean(self, median, ratio):
        cap = median * 500
        mean = median * ratio
        sigma = solve_sigma(median=median, mean=mean, cap=cap)
        assert capped_lognormal_mean(
            np.log(median), sigma, cap
        ) == pytest.approx(mean, rel=0.01)


class TestBuckets:
    def test_shares_sum_to_one(self):
        assert sum(b.job_share for b in TABLE3_BUCKETS) == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize(
        "count,label",
        [(1, "1"), (2, "2-4"), (4, "2-4"), (5, "4-8"), (8, "4-8"), (9, "8-32"),
         (32, "8-32"), (64, "32-64"), (448, "256+")],
    )
    def test_bucket_lookup(self, count, label):
        bucket = bucket_for_gpu_count(count)
        assert bucket is not None and bucket.label == label

    def test_bucket_lookup_out_of_range(self):
        assert bucket_for_gpu_count(0) is None
        assert bucket_for_gpu_count(10_000) is None

    def test_ml_probability_from_gpu_hours(self):
        bucket = TABLE3_BUCKETS[0]
        assert bucket.ml_probability == pytest.approx(241.6 / (241.6 + 2724.0))

    def test_gpu_count_weights_normalized(self):
        for bucket in TABLE3_BUCKETS:
            counts, weights = bucket.gpu_count_weights()
            assert len(counts) == len(weights)
            assert sum(weights) == pytest.approx(1.0)
            assert all(bucket.min_gpus <= c <= bucket.max_gpus for c in counts)


class TestWorkloadSpec:
    def test_arrival_rates(self):
        spec = WorkloadSpec()
        # 1,445,119 GPU jobs over 895 days.
        assert spec.gpu_arrival_rate_per_hour == pytest.approx(67.3, rel=0.01)
        assert spec.cpu_arrival_rate_per_hour == pytest.approx(78.5, rel=0.01)

    def test_intrinsic_failure_probabilities(self):
        spec = WorkloadSpec()
        assert spec.gpu_intrinsic_failure_probability == pytest.approx(
            1 - 0.7468 - 3285 / 1_445_119, abs=1e-6
        )
        assert spec.cpu_intrinsic_failure_probability == pytest.approx(0.251)

    def test_bad_bucket_shares_rejected(self):
        bad = TABLE3_BUCKETS[:2]
        with pytest.raises(CalibrationError, match="shares"):
            WorkloadSpec(buckets=tuple(bad))


class TestNames:
    def test_ml_names_mostly_detectable(self, rng):
        names = [draw_job_name(rng, is_ml=True) for _ in range(2000)]
        detected = sum(is_ml_job_name(n) for n in names)
        # ~12% use opaque names the keyword heuristic misses.
        assert detected / 2000 == pytest.approx(0.88, abs=0.04)

    def test_hpc_names_rarely_flagged(self, rng):
        names = [draw_job_name(rng, is_ml=False) for _ in range(2000)]
        flagged = sum(is_ml_job_name(n) for n in names)
        assert flagged / 2000 < 0.02

    def test_user_population(self, rng):
        users = {draw_user(rng, population=10) for _ in range(500)}
        assert len(users) == 10


class TestGenerator:
    def _generate(self, scale=0.005, seed=3, window=None):
        window = window or StudyWindow.scaled(pre_days=10, op_days=90)
        config = WorkloadConfig(job_scale=scale)
        generator = WorkloadGenerator(config, np.random.default_rng(seed))
        return generator.generate(window), window

    def test_ids_monotone_in_submit_order(self):
        requests, _ = self._generate()
        assert [r.job_id for r in requests] == list(range(1, len(requests) + 1))
        times = [r.submit_time for r in requests]
        assert times == sorted(times)

    def test_contains_both_partitions(self):
        requests, _ = self._generate()
        partitions = {r.partition for r in requests}
        assert any(p.is_gpu for p in partitions)
        assert any(not p.is_gpu for p in partitions)

    def test_gpu_share_matches_table3(self):
        requests, _ = self._generate(scale=0.02)
        gpu_jobs = [r for r in requests if r.gpu_count > 0]
        single = sum(1 for r in gpu_jobs if r.gpu_count == 1)
        assert single / len(gpu_jobs) == pytest.approx(0.6986, abs=0.03)

    def test_pre_op_load_factor(self):
        requests, window = self._generate(scale=0.02)
        boundary = window.operational.start
        pre = sum(1 for r in requests if r.submit_time < boundary)
        op = len(requests) - pre
        pre_rate = pre / window.pre_operational.duration_hours
        op_rate = op / window.operational.duration_hours
        assert pre_rate / op_rate == pytest.approx(0.10, abs=0.04)

    def test_max_gpu_count_clamp(self):
        window = StudyWindow.scaled(pre_days=5, op_days=50)
        config = WorkloadConfig(job_scale=0.02, max_gpu_count=8)
        generator = WorkloadGenerator(config, np.random.default_rng(5))
        requests = generator.generate(window)
        assert max(r.gpu_count for r in requests) <= 8

    def test_error_kill_allowance_reduces_intrinsic_failures(self):
        spec_prob = WorkloadConfig(
            job_scale=0.01, error_kill_allowance=0.0
        ).gpu_intrinsic_failure_probability
        adjusted = WorkloadConfig(
            job_scale=0.01
        ).gpu_intrinsic_failure_probability
        assert adjusted < spec_prob

    def test_job_scale_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(job_scale=0.0)
        with pytest.raises(ValueError):
            WorkloadConfig(job_scale=1.5)
        with pytest.raises(ValueError):
            WorkloadConfig(error_kill_allowance=1.0)

    def test_durations_positive_and_capped(self):
        requests, _ = self._generate(scale=0.02)
        for request in requests:
            assert request.duration > 0
            # global walltime ceiling: 48h + rounding
            assert request.duration <= 2881 * 60


class TestGeneratorDistributions:
    def test_p99_matches_bucket_cap(self):
        """Per-bucket P99 elapsed minutes land at the configured cap."""
        import numpy as np
        from repro.workload.spec import TABLE3_BUCKETS

        rng = np.random.default_rng(8)
        bucket = TABLE3_BUCKETS[0]
        draws = rng.lognormal(
            mean=bucket.duration_mu, sigma=bucket.duration_sigma, size=100_000
        )
        capped = np.minimum(draws, bucket.p99_minutes)
        # With >=1% of mass at the cap, P99 equals the cap.
        assert np.percentile(capped, 99) == pytest.approx(
            bucket.p99_minutes, rel=0.01
        )

    def test_ml_probability_realized_per_bucket(self):
        from repro.core.periods import StudyWindow

        window = StudyWindow.scaled(pre_days=5, op_days=120)
        config = WorkloadConfig(job_scale=0.05, include_cpu_jobs=False)
        generator = WorkloadGenerator(config, np.random.default_rng(10))
        requests = generator.generate(window)
        singles = [r for r in requests if r.gpu_count == 1]
        ml_share = sum(r.is_ml for r in singles) / len(singles)
        from repro.workload.spec import TABLE3_BUCKETS

        assert ml_share == pytest.approx(
            TABLE3_BUCKETS[0].ml_probability, abs=0.02
        )

    def test_intrinsic_failure_rate_realized(self):
        from repro.core.periods import StudyWindow

        window = StudyWindow.scaled(pre_days=5, op_days=120)
        config = WorkloadConfig(job_scale=0.05, include_cpu_jobs=False)
        generator = WorkloadGenerator(config, np.random.default_rng(11))
        requests = generator.generate(window)
        rate = sum(r.intrinsic_failure for r in requests) / len(requests)
        assert rate == pytest.approx(
            config.gpu_intrinsic_failure_probability, abs=0.01
        )
