"""End-to-end acceptance suite.

One test class per criterion, each with its stated numerical tolerance and
runtime budget:

1. special-case recovery (arithmetic/geometric/harmonic means; token-clip
   p=1 vs an independent GRPO oracle; seq-clip p=0 vs an independent GSPO
   oracle),
2. derivative identities against central finite differences,
3. weight-deformation properties (entropy peak, limit concentration,
   rise-then-fall),
4. variance structure (monotone V(p), clip contraction, orthogonal-model
   factorization, non-positive minimizer),
5. the amplification/contraction guarantees on the worked example,
6. qualitative sparse-vs-dense training trends over 5 seeds,
7. determinism and divergence-free default runs.

Criterion-6 runs are deterministic (counter-based RNG streams), so the
recorded medians are exactly reproducible, not statistically flaky.
"""

import math
import time

import numpy as np
import pytest

from holderpo import (
    ClipConfig,
    HolderOrder,
    RatioSequence,
    ScheduleSpec,
    TrainConfig,
    default_dense_task,
    default_sparse_task,
    grad_estimator_seq_clip,
    grad_estimator_unclipped,
    gradient_weights,
    holder_mean,
    limit_weights,
    second_moment_orthogonal,
    shannon_entropy,
    surrogate_seq_clip,
    surrogate_token_clip,
    train,
    train_many,
    trend_config,
    variance_bound_term,
)
from holderpo.verify import _perturbed_policies as perturbed_policies
from holderpo.verify import _random_batch as random_group, check_all

from conftest import make_group, random_policy_pair
from test_objectives import grpo_objective, gspo_objective

TREND_ROUNDS = 18
TREND_HORIZON = TREND_ROUNDS * 4 - 1  # schedule spans all updates
TREND_SEEDS = 5
STATIC_ORDERS = (-2.0, -1.0, 0.0, 2.0, 3.0)


@pytest.fixture(scope="module")
def harness_report():
    """One 100-instance verification pass shared by criteria 2-5."""
    start = time.monotonic()
    report = check_all(seed=0, instance_count=100)
    report.elapsed = time.monotonic() - start
    return report


def passed(report, name):
    result = next(r for r in report.results if r.name == name)
    assert result.status == "pass", f"{name}: {result.detail}"
    return result


@pytest.fixture(scope="module")
def trend_runs():
    """The full 5-seed sweep behind criterion 6: both default tasks, five
    static exponents plus the descending linear schedule, each task's 30
    runs trained as one stack."""
    start = time.monotonic()
    schedules = {
        f"static_{p:g}": ScheduleSpec.constant(p, TREND_HORIZON)
        for p in STATIC_ORDERS
    }
    schedules["linear_2_-2"] = ScheduleSpec(
        2.0, -2.0, TREND_HORIZON, "linear", "descending"
    )
    tasks = {"sparse": default_sparse_task(), "dense": default_dense_task()}
    keys = [(label, seed) for label in schedules for seed in range(TREND_SEEDS)]
    runs = {}
    for task_name, task in tasks.items():
        configs = [trend_config(schedules[label], seed=seed) for label, seed in keys]
        logs = train_many(configs, task)
        runs.update({(task_name, *key): log for key, log in zip(keys, logs)})
    return runs, time.monotonic() - start


def median_success(runs, task_name, label):
    return float(
        np.median(
            [runs[(task_name, label, s)].final_success for s in range(TREND_SEEDS)]
        )
    )


def tail_diagnostics(log):
    """Mean envelope gap and mean policy entropy over the last 20% of
    updates of one run."""
    tail = log.metrics[int(0.8 * len(log.metrics)):]
    gap = float(np.mean([m.log_ratio_max - m.log_ratio_min for m in tail]))
    entropy = float(np.mean([m.policy_entropy for m in tail]))
    return gap, entropy


class TestCriterion1SpecialCases:
    def test_classical_means_and_clip_reductions(self, rng):
        start = time.monotonic()

        for _ in range(100):
            values = rng.uniform(0.05, 20.0, size=rng.integers(2, 12))
            r = RatioSequence(values)
            arithmetic = holder_mean(r, HolderOrder(1.0))
            geometric = holder_mean(r, HolderOrder(0.0))
            harmonic = holder_mean(r, HolderOrder(-1.0))
            assert arithmetic == pytest.approx(values.mean(), rel=1e-12)
            assert geometric == pytest.approx(
                math.exp(float(np.log(values).mean())), rel=1e-12
            )
            assert harmonic == pytest.approx(
                values.size / float((1.0 / values).sum()), rel=1e-12
            )

        clip = ClipConfig(0.2)
        for _ in range(100):
            old, new = perturbed_policies(rng, 0.4)
            batch = random_group(rng, old, new)
            assert surrogate_token_clip(
                batch, HolderOrder(1.0), clip
            ) == pytest.approx(grpo_objective(batch, clip.epsilon), abs=1e-10)
            assert surrogate_seq_clip(
                batch, HolderOrder(0.0), clip
            ) == pytest.approx(gspo_objective(batch, clip.epsilon), abs=1e-10)

        assert time.monotonic() - start < 5.0


class TestCriterion2DerivativeIdentities:
    CHECKS = (
        "weight_derivative_vs_fd",
        "mu_derivative_vs_fd",
        "entropy_derivative_vs_fd",
        "grad_rho_two_forms",
        "grad_rho_vs_fd",
    )

    def test_all_within_fd_tolerance(self, harness_report):
        for name in self.CHECKS:
            result = passed(harness_report, name)
            tolerance = 1e-4 if name == "grad_rho_vs_fd" else 1e-6
            assert result.worst_error < tolerance

    def test_runtime_budget(self, harness_report):
        assert harness_report.elapsed < 10.0


class TestCriterion3DeformationProperties:
    def test_entropy_peak_and_monotone_flanks(self, rng):
        start = time.monotonic()
        grid = np.linspace(0.25, 8.0, 32)
        for _ in range(100):
            values = rng.lognormal(sigma=0.8, size=rng.integers(3, 10))
            r = RatioSequence(values)
            n = values.size
            at_zero = shannon_entropy(gradient_weights(r, HolderOrder(0.0)))
            assert at_zero == pytest.approx(math.log(n), rel=1e-12)
            for side in (1.0, -1.0):
                entropies = [
                    shannon_entropy(gradient_weights(r, HolderOrder(side * p)))
                    for p in grid
                ]
                assert entropies[0] < at_zero
                if values.max() > values.min():
                    assert np.all(np.diff(entropies) < 0.0)
        assert time.monotonic() - start < 5.0

    def test_limit_concentration_mass(self, rng):
        tested = 0
        while tested < 100:
            values = rng.lognormal(sigma=0.8, size=rng.integers(3, 10))
            logs = np.sort(np.log(values))
            # near-ties at either extreme legitimately slow the concentration
            if logs[-1] - logs[-2] < 0.5 or logs[1] - logs[0] < 0.5:
                continue
            tested += 1
            r = RatioSequence(values)
            for direction, extreme in ((1, 40.0), (-1, -40.0)):
                support = limit_weights(r, direction).weights > 0.0
                w = gradient_weights(r, HolderOrder(extreme)).weights
                assert w[support].sum() >= 0.999

    def test_rise_then_fall_with_crossing_bracket(self, harness_report):
        passed(harness_report, "weight_rise_then_fall")

    def test_one_concrete_rise_fall_trajectory(self):
        r = RatioSequence(np.array([1.0, 2.0, 8.0]))
        grid = np.linspace(-6.0, 12.0, 361)
        middle = [
            gradient_weights(r, HolderOrder(p)).weights[1] for p in grid
        ]
        peak = int(np.argmax(middle))
        assert 0 < peak < len(grid) - 1
        assert np.all(np.diff(middle[:peak + 1]) > 0.0)
        assert np.all(np.diff(middle[peak:]) < 0.0)
        # the peak sits where the weighted log-mean crosses log r_t
        def crossing(p):
            return gradient_weights(r, HolderOrder(p)).weights @ r.log_ratios - math.log(2.0)

        lo, hi = grid[peak - 1], grid[peak + 1]
        assert crossing(lo) < 0.0 < crossing(hi)


class TestCriterion4VarianceStructure:
    def test_v_strictly_increasing(self, rng):
        start = time.monotonic()
        grid = np.linspace(-3.0, 3.0, 13)
        tested = 0
        while tested < 100:
            old, new = perturbed_policies(rng, 0.3)
            batch = random_group(rng, old, new)
            if not np.any(batch.advantages != 0.0):
                continue
            values = [variance_bound_term([batch], HolderOrder(p)) for p in grid]
            assert np.all(np.diff(values) > 0.0)
            tested += 1
        assert time.monotonic() - start < 10.0

    def test_seq_clip_never_amplifies_a_sequence_term(self, rng, harness_report):
        passed(harness_report, "seq_clip_norm_contraction")
        # direct spot check: each sequence term is kept verbatim or zeroed,
        # so the gated estimate equals the free one minus the clipped term
        from holderpo import grad_rho

        clip = ClipConfig(0.2)
        batch = make_group([[0.5, 0.5], [0.0, 0.0]], [1.0, 0.0])
        _, policy = random_policy_pair(rng, length=2, vocab=3)
        order = HolderOrder(1.0)
        gated = grad_estimator_seq_clip([batch], policy, order, clip)
        free = grad_estimator_unclipped([batch], policy, order)
        # rollout 0 has rho = e^0.5 > 1.2 with adv > 0
        clipped_term = batch.advantages[0] * grad_rho(
            RatioSequence(np.exp(batch.log_ratios[0])),
            policy.score_gradients(batch.token_ids[0]),
            order,
        )
        assert gated.clip_fraction == pytest.approx(0.5)
        np.testing.assert_allclose(
            gated.vector, free.vector - clipped_term / batch.group_size,
            atol=1e-12,
        )

    def test_orthogonal_second_moment_factorization(self, rng):
        for _ in range(100):
            values = rng.lognormal(sigma=0.6, size=rng.integers(2, 8))
            r = RatioSequence(values)
            order = HolderOrder(float(rng.uniform(-3, 3)))
            adv = float(rng.normal())
            bound = float(rng.uniform(0.5, 3.0))
            w = gradient_weights(r, order)
            rho = holder_mean(r, order)
            # explicit orthonormal token gradients e_t scaled by the bound:
            # grad = A rho sum_t W_t M e_t, so |grad|^2 factorizes exactly
            grads = bound * np.eye(values.size)
            explicit = float(
                np.sum((adv * rho * (w.weights[:, None] * grads).sum(axis=0)) ** 2)
            )
            assert second_moment_orthogonal(
                adv, bound, r, order
            ) == pytest.approx(explicit, abs=1e-10, rel=1e-10)

    def test_grid_minimizer_nonpositive(self, rng, harness_report):
        passed(harness_report, "second_moment_pstar_nonpositive")
        grid = np.linspace(-4.0, 4.0, 33)
        for _ in range(100):
            values = rng.lognormal(sigma=0.6, size=rng.integers(2, 8))
            r = RatioSequence(values)
            curve = [
                second_moment_orthogonal(1.0, 1.0, r, HolderOrder(p)) for p in grid
            ]
            assert grid[int(np.argmin(curve))] <= 0.0


class TestCriterion5AmplificationExample:
    def test_bound_with_proof_constant(self):
        start = time.monotonic()
        n, big, p_high = 101, 4.0, 2.0
        r = RatioSequence(np.concatenate(([big], np.ones(n - 1))))
        w_high = gradient_weights(r, HolderOrder(p_high)).weights[0]
        w_stat = gradient_weights(r, HolderOrder(0.0)).weights[0]
        amplification = w_high / w_stat
        s = float(n - 1)  # sum of the n-1 unit ratios raised to any power
        proof_constant = s / (big**p_high + s)
        assert amplification == pytest.approx(16.0 * 101.0 / 116.0, rel=1e-12)
        assert amplification >= proof_constant * big**p_high
        assert time.monotonic() - start < 1.0

    def test_lower_orders_contract_variance(self, rng):
        start = time.monotonic()
        while True:
            old, new = perturbed_policies(rng, 0.3)
            batch = random_group(rng, old, new)
            if np.any(batch.advantages != 0.0):
                break
        for p_stat in (0.0, 1.0, 2.0):
            v_stat = variance_bound_term([batch], HolderOrder(p_stat))
            for p_low in (p_stat - 0.5, p_stat - 1.0, p_stat - 3.0):
                assert variance_bound_term([batch], HolderOrder(p_low)) < v_stat
        assert time.monotonic() - start < 1.0


class TestCriterion6QualitativeTrends:
    def test_sparse_favors_positive_order(self, trend_runs):
        runs, _ = trend_runs
        assert median_success(runs, "sparse", "static_2") > median_success(
            runs, "sparse", "static_-2"
        )

    def test_dense_favors_negative_order(self, trend_runs):
        runs, _ = trend_runs
        assert median_success(runs, "dense", "static_-1") > median_success(
            runs, "dense", "static_3"
        )

    def test_envelope_gap_and_entropy_orderings(self, trend_runs):
        runs, _ = trend_runs
        gaps, entropies = {}, {}
        for label in ("static_2", "static_-2"):
            stats = [
                tail_diagnostics(runs[("sparse", label, s)])
                for s in range(TREND_SEEDS)
            ]
            gaps[label] = float(np.median([g for g, _ in stats]))
            entropies[label] = float(np.median([e for _, e in stats]))
        # concentration (p>0) widens the ratio envelope and collapses policy
        # entropy faster than dispersion (p<0)
        assert gaps["static_2"] > gaps["static_-2"]
        assert entropies["static_-2"] > entropies["static_2"]

    def test_schedule_competitive_with_best_static(self, trend_runs):
        runs, _ = trend_runs
        labels = [f"static_{p:g}" for p in STATIC_ORDERS] + ["linear_2_-2"]
        combined = {
            label: float(
                np.median(
                    [
                        0.5
                        * (
                            runs[("sparse", label, s)].final_success
                            + runs[("dense", label, s)].final_success
                        )
                        for s in range(TREND_SEEDS)
                    ]
                )
            )
            for label in labels
        }
        best_static = max(
            v for label, v in combined.items() if label != "linear_2_-2"
        )
        assert combined["linear_2_-2"] >= best_static - 0.02

    def test_runtime_budget(self, trend_runs):
        _, elapsed = trend_runs
        assert elapsed < 300.0


class TestCriterion7DeterminismAndStability:
    def test_byte_identical_reruns(self):
        config = trend_config(ScheduleSpec.constant(1.0, 23), seed=3,
                              total_rounds=6)
        task = default_sparse_task()
        a, b = train(config, task), train(config, task)
        np.testing.assert_array_equal(a.final_policy.logits, b.final_policy.logits)
        assert [m.to_dict() for m in a.metrics] == [m.to_dict() for m in b.metrics]
        assert a.final_success == b.final_success

    @pytest.mark.parametrize("task_name", ["sparse", "dense"])
    def test_default_config_never_trips_divergence_guard(self, task_name):
        task = (
            default_sparse_task() if task_name == "sparse" else default_dense_task()
        )
        config = TrainConfig(schedule=ScheduleSpec.constant(1.0, 1))
        assert config.clipping_regime == "sequence"
        log = train(config, task)  # raises DivergenceError on guard trip
        assert np.all(np.isfinite(log.final_policy.logits))
        assert all(m.log_ratio_max < np.log(1e6) for m in log.metrics)
