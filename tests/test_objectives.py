"""Advantages, the three surrogate objectives, and their gradient estimators.

The GRPO and GSPO oracles here are deliberately independent
implementations written from the token-level (resp. sequence-level)
clipped-surrogate definitions, so the power-mean special cases are
checked against something other than themselves.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from holderpo import (
    ClipConfig,
    DomainError,
    GradientEstimate,
    HolderOrder,
    PolicyParams,
    RatioSequence,
    RolloutBatch,
    advantage_estimates,
    grad_estimator_seq_clip,
    grad_estimator_token_clip,
    grad_estimator_unclipped,
    grad_rho,
    holder_mean,
    refresh_logprobs,
    second_moment_orthogonal,
    surrogate_seq_clip,
    surrogate_token_clip,
    surrogate_unclipped,
    variance_bound_term,
)
from holderpo.core import holder_rows
from holderpo.objectives import batch_terms, group_means, minibatch_plan, policy_gradient
from holderpo.verify import _perturbed_policies as perturbed_policies
from holderpo.verify import _random_batch as random_group

from conftest import make_group, random_policy_pair, rollout_rows


def closed_form_rho(ratios, p: float) -> float:
    """rho from its closed form, independent of the kernel under test:
    (mean r^p)^{1/p}, and exp(mean log r) at p = 0."""
    ratios = np.asarray(ratios)
    if p == 0.0:
        return math.exp(np.log(ratios).mean())
    return float(np.mean(ratios**p) ** (1.0 / p))


def grpo_objective(batch: RolloutBatch, epsilon: float) -> float:
    """Independent GRPO surrogate: per-token PPO min, averaged per sequence."""
    total = 0.0
    for _, ratios, _, adv in rollout_rows(batch):
        clipped = np.clip(ratios, 1.0 - epsilon, 1.0 + epsilon)
        total += float(np.minimum(ratios * adv, clipped * adv).mean())
    return total / batch.group_size


def gspo_objective(batch: RolloutBatch, epsilon: float) -> float:
    """Independent GSPO surrogate: PPO min on the geometric-mean sequence
    ratio s_i = exp(mean of per-token log-ratios)."""
    total = 0.0
    for old, new, mask, adv in zip(batch.old_logprobs, batch.new_logprobs,
                                   batch.mask, batch.advantages):
        s = math.exp(float((new - old)[mask].mean()))
        clipped = min(max(s, 1.0 - epsilon), 1.0 + epsilon)
        total += min(s * adv, clipped * adv)
    return total / batch.group_size


class TestClipConfig:
    def test_band_endpoints(self):
        clip = ClipConfig(0.2)
        assert clip.low == pytest.approx(0.8)
        assert clip.high == pytest.approx(1.2)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.1, 1.5])
    def test_epsilon_range(self, epsilon):
        with pytest.raises(DomainError):
            ClipConfig(epsilon)


class TestAdvantageEstimates:
    def test_degenerate_group(self):
        np.testing.assert_array_equal(advantage_estimates([1.0, 1.0, 1.0]), [0, 0, 0])

    def test_two_rollouts(self):
        np.testing.assert_allclose(advantage_estimates([1.0, 0.0]), [1.0, -1.0])

    def test_one_in_four(self):
        # mean 0.25, population std sqrt(3)/4
        np.testing.assert_allclose(
            advantage_estimates([1.0, 0.0, 0.0, 0.0]),
            [math.sqrt(3.0), -1.0 / math.sqrt(3.0), -1.0 / math.sqrt(3.0),
             -1.0 / math.sqrt(3.0)],
        )

    def test_needs_two_rewards(self):
        with pytest.raises(DomainError):
            advantage_estimates([1.0])

    def test_zero_mean(self, rng):
        for _ in range(20):
            adv = advantage_estimates(rng.integers(0, 2, size=8).astype(float))
            assert abs(adv.mean()) <= 1e-8


class TestSurrogateUnclipped:
    def test_zero_at_trust_region_center(self):
        batch = make_group([[0.0, 0.0]] * 4, [1.0, 0.0, 1.0, 0.0])
        assert surrogate_unclipped(batch, HolderOrder(1.0)) == pytest.approx(0.0)

    def test_hand_example(self):
        batch = make_group(
            [[math.log(1.5)] * 2, [math.log(0.5)] * 2], [1.0, 0.0]
        )
        np.testing.assert_allclose(batch.advantages, [1.0, -1.0])
        assert surrogate_unclipped(batch, HolderOrder(1.0)) == pytest.approx(0.5)

    def test_matches_brute_force(self, rng):
        old, new = perturbed_policies(rng, 0.15)
        batch = refresh_logprobs(random_group(rng, old, new, 3), new)
        order = HolderOrder(1.7)
        brute = sum(
            closed_form_rho(ratios, order.p) * a
            for _, ratios, _, a in rollout_rows(batch)
        ) / 3.0
        assert surrogate_unclipped(batch, order) == pytest.approx(brute, rel=1e-12)


class TestSurrogateSeqClip:
    def test_positive_advantage_clips_high(self):
        batch = make_group(
            [[math.log(1.5)] * 2, [0.0] * 2], [1.0, 0.0]
        )
        # contributions: min(1.5, 1.2)*1 + min(1, 1)*(-1) = 1.2 - 1
        value = surrogate_seq_clip(batch, HolderOrder(1.0), ClipConfig(0.2))
        assert value == pytest.approx((1.2 - 1.0) / 2.0)

    def test_negative_advantage_clips_low(self):
        batch = make_group(
            [[0.0] * 2, [math.log(0.5)] * 2], [1.0, 0.0]
        )
        # contributions: 1*1 + min(-0.5, -0.8) = 1 - 0.8
        value = surrogate_seq_clip(batch, HolderOrder(1.0), ClipConfig(0.2))
        assert value == pytest.approx((1.0 - 0.8) / 2.0)

    def test_inactive_inside_band(self, rng):
        old, new = perturbed_policies(rng, 0.01)
        batch = refresh_logprobs(random_group(rng, old, new), new)
        order = HolderOrder(0.5)
        clip = ClipConfig(0.2)
        assert surrogate_seq_clip(batch, order, clip) == pytest.approx(
            surrogate_unclipped(batch, order)
        )

    def test_never_exceeds_unclipped(self, rng):
        clip = ClipConfig(0.2)
        for _ in range(20):
            old, new = perturbed_policies(rng, 0.4)
            batch = refresh_logprobs(random_group(rng, old, new), new)
            for p in (-2.0, 0.0, 1.0, 3.0):
                order = HolderOrder(p)
                assert (
                    surrogate_seq_clip(batch, order, clip)
                    <= surrogate_unclipped(batch, order) + 1e-12
                )


class TestSurrogateTokenClip:
    def test_inactive_inside_band(self, rng):
        old, new = perturbed_policies(rng, 0.01)
        batch = refresh_logprobs(random_group(rng, old, new), new)
        order = HolderOrder(2.0)
        assert surrogate_token_clip(batch, order, ClipConfig(0.2)) == pytest.approx(
            surrogate_unclipped(batch, order)
        )

    def test_clipped_mean_hand_example(self):
        # r = [0.5, 2.0], eps = 0.2, positive advantage:
        # C_1 = (min(0.5, 0.8) + min(2.0, 1.2)) / 2 = (0.5 + 1.2) / 2 = 0.85
        batch = make_group(
            [[math.log(0.5), math.log(2.0)], [0.0, 0.0]], [1.0, 0.0]
        )
        value = surrogate_token_clip(batch, HolderOrder(1.0), ClipConfig(0.2))
        assert value == pytest.approx((0.85 * 1.0 + 1.0 * (-1.0)) / 2.0)

    def test_order_one_equals_grpo_oracle(self, rng):
        clip = ClipConfig(0.2)
        for _ in range(50):
            old, new = perturbed_policies(rng, 0.3)
            batch = refresh_logprobs(random_group(rng, old, new), new)
            assert surrogate_token_clip(batch, HolderOrder(1.0), clip) == (
                pytest.approx(grpo_objective(batch, 0.2), abs=1e-10)
            )


class TestGspoSpecialCase:
    def test_order_zero_seq_clip_equals_gspo_oracle(self, rng):
        clip = ClipConfig(0.2)
        for _ in range(50):
            old, new = perturbed_policies(rng, 0.3)
            batch = refresh_logprobs(random_group(rng, old, new), new)
            assert surrogate_seq_clip(batch, HolderOrder(0.0), clip) == (
                pytest.approx(gspo_objective(batch, 0.2), abs=1e-10)
            )


class TestGradRho:
    def test_zero_grads(self):
        r = RatioSequence(np.array([2.0, 8.0]))
        np.testing.assert_array_equal(
            grad_rho(r, np.zeros((2, 3)), HolderOrder(2.0)), np.zeros(3)
        )

    def test_single_token(self, rng):
        g = rng.normal(size=(1, 4))
        r = RatioSequence(np.array([1.7]))
        for p in (-3.0, 0.0, 2.0):
            np.testing.assert_allclose(
                grad_rho(r, g, HolderOrder(p)), 1.7 * g[0], rtol=1e-12
            )

    def test_two_algebraic_forms_agree(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 10))
            r = RatioSequence(np.exp(rng.uniform(-2, 2, n)))
            grads = rng.normal(size=(n, 5))
            p = float(rng.uniform(-5, 5))
            got = grad_rho(r, grads, HolderOrder(p))
            rho = closed_form_rho(r.ratios, p)
            alt = rho ** (1.0 - p) / n * (r.ratios**p @ grads)
            np.testing.assert_allclose(got, alt, rtol=1e-10, atol=1e-12)

    def test_dimension_mismatch(self):
        r = RatioSequence(np.array([2.0, 8.0]))
        with pytest.raises(DomainError):
            grad_rho(r, np.zeros((3, 2)), HolderOrder(1.0))

    def test_matches_policy_finite_differences(self, rng):
        old, new = random_policy_pair(rng, length=3, vocab=4, drift=0.1)
        tokens = np.array([1, 0, 2])
        order = HolderOrder(1.5)

        def rho_of(policy):
            delta = policy.token_logprobs(tokens) - old.token_logprobs(tokens)
            return holder_mean(RatioSequence(np.exp(delta)), order)

        analytic = grad_rho(
            RatioSequence(np.exp(new.token_logprobs(tokens) - old.token_logprobs(tokens))),
            new.score_gradients(tokens),
            order,
        )
        h = 1e-5
        flat = new.logits.ravel()
        fd = np.zeros_like(flat)
        for j in range(flat.size):
            for sign in (1.0, -1.0):
                bumped = flat.copy()
                bumped[j] += sign * h
                fd[j] += sign * rho_of(PolicyParams(bumped.reshape(new.logits.shape)))
        fd /= 2.0 * h
        np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-8)


class TestGradientEstimators:
    def test_zero_advantages_give_zero_vector(self, rng):
        old, new = perturbed_policies(rng, 0.15)
        batch = replace(random_group(rng, old, new), advantages=np.zeros(4))
        est = grad_estimator_unclipped([batch], new, HolderOrder(1.0))
        np.testing.assert_array_equal(est.vector, np.zeros(new.param_dim))
        assert est.clip_fraction == 0.0

    def test_empty_minibatch_rejected(self, rng):
        _, new = perturbed_policies(rng, 0.15)
        with pytest.raises(DomainError):
            grad_estimator_unclipped([], new, HolderOrder(1.0))

    def test_unclipped_matches_brute_force(self, rng):
        old, new = perturbed_policies(rng, 0.15)
        batch = refresh_logprobs(random_group(rng, old, new, 3), new)
        order = HolderOrder(2.3)
        brute = np.zeros(new.param_dim)
        for ids, ratios, _, adv in rollout_rows(batch):
            r = RatioSequence(ratios)
            rho = holder_mean(r, order)
            n = len(r)
            grads = new.score_gradients(ids)
            # closed form: A rho^{1-p}/n sum_t r^p g_t
            brute += adv * rho ** (1.0 - order.p) / n * (r.ratios**order.p @ grads)
        est = grad_estimator_unclipped([batch], new, order)
        np.testing.assert_allclose(est.vector, brute, rtol=1e-10, atol=1e-12)

    def test_seq_clip_equals_unclipped_inside_band(self, rng):
        old, new = perturbed_policies(rng, 0.01)
        batch = refresh_logprobs(random_group(rng, old, new), new)
        order = HolderOrder(1.0)
        unclipped = grad_estimator_unclipped([batch], new, order)
        clipped = grad_estimator_seq_clip([batch], new, order, ClipConfig(0.2))
        np.testing.assert_array_equal(clipped.vector, unclipped.vector)
        assert clipped.clip_fraction == 0.0

    def test_seq_clip_zeroes_out_of_band_sequence(self):
        # one rollout at rho = 1.3 with positive advantage: zeroed
        batch = make_group(
            [[math.log(1.3)] * 2, [0.0, 0.0]], [1.0, 0.0]
        )
        policy = PolicyParams.uniform(2, 3)
        est = grad_estimator_seq_clip(
            [batch], policy, HolderOrder(1.0), ClipConfig(0.2)
        )
        assert est.clip_fraction == pytest.approx(0.5)
        # the remaining rollout sits at the center where grad_rho is the
        # mean score gradient
        expected = -1.0 * policy.score_gradients(np.zeros(2, dtype=np.int64)).mean(
            axis=0
        ) / 2.0
        np.testing.assert_allclose(est.vector, expected, atol=1e-12)

    def test_seq_clip_norm_never_grows(self, rng):
        # the sequence clip only zeroes whole rollouts: its estimate is the
        # unclipped one with the gated rollouts' advantages set to 0, so no
        # rollout's term grows
        clip = ClipConfig(0.2)
        gated_rollouts = 0
        for _ in range(10):
            old, new = perturbed_policies(rng, 0.4)
            batch = refresh_logprobs(random_group(rng, old, new), new)
            for p in (-2.0, 0.0, 2.0):
                order = HolderOrder(p)
                rho = np.array([holder_mean(RatioSequence(ratios), order)
                                for _, ratios, _, _ in rollout_rows(batch)])
                adv = batch.advantages
                gated = ((adv > 0) & (rho > clip.high)) | ((adv < 0) & (rho < clip.low))
                gated_rollouts += int(gated.sum())
                kept = replace(batch, advantages=np.where(gated, 0.0, adv))
                np.testing.assert_array_equal(
                    grad_estimator_seq_clip([batch], new, order, clip).vector,
                    grad_estimator_unclipped([kept], new, order).vector,
                )
        assert gated_rollouts > 0

    def test_token_clip_equals_unclipped_inside_band(self, rng):
        old, new = perturbed_policies(rng, 0.01)
        batch = refresh_logprobs(random_group(rng, old, new), new)
        order = HolderOrder(1.5)
        unclipped = grad_estimator_unclipped([batch], new, order)
        clipped = grad_estimator_token_clip([batch], new, order, ClipConfig(0.2))
        np.testing.assert_allclose(clipped.vector, unclipped.vector, rtol=1e-10)
        assert clipped.clip_fraction == 0.0

    def test_token_clip_hand_example(self):
        # two tokens, positive advantage, one ratio above the band:
        # that token's term vanishes and H uses 1+eps in its mean
        batch = make_group(
            [[0.0, math.log(1.5)], [0.0, 0.0]], [1.0, 0.0]
        )
        policy = PolicyParams.uniform(2, 3)
        order = HolderOrder(1.0)
        est = grad_estimator_token_clip([batch], policy, order, ClipConfig(0.2))
        grads = policy.score_gradients(np.zeros(2, dtype=np.int64))
        h = (1.0 + 1.2) / 2.0
        expected = 1.0 * (h ** 0.0 / 2.0) * (1.0 * grads[0])  # token 1 zeroed
        expected = (expected - grads.mean(axis=0)) / 2.0  # second rollout, adv -1
        np.testing.assert_allclose(est.vector, expected, atol=1e-12)
        assert est.clip_fraction == pytest.approx(0.25)

    def test_token_clip_order_one_matches_grpo_gradient_oracle(self, rng):
        """Independent GRPO token-clipped gradient: per-token indicator times
        r_t grad log pi / n, no power-mean machinery."""
        clip = ClipConfig(0.2)
        for _ in range(20):
            old, new = perturbed_policies(rng, 0.3)
            batch = refresh_logprobs(random_group(rng, old, new), new)
            oracle = np.zeros(new.param_dim)
            for ids, ratios, _, adv in rollout_rows(batch):
                if adv == 0.0:
                    continue
                grads = new.score_gradients(ids)
                if adv > 0:
                    keep = ratios <= clip.high
                else:
                    keep = ratios >= clip.low
                oracle += adv * (np.where(keep, ratios, 0.0) @ grads) / ratios.size
            oracle /= batch.group_size
            est = grad_estimator_token_clip([batch], new, HolderOrder(1.0), clip)
            np.testing.assert_allclose(est.vector, oracle, rtol=1e-10, atol=1e-12)


def masked_minibatch(rng, policy_old, policy_new, groups=3, group_size=4):
    """Groups sampled from the old policy with random masks; the masked-out
    positions carry junk new logprobs that must not leak into any term."""
    minibatch = []
    shape = (group_size, policy_old.length)
    for _ in range(groups):
        tokens = np.zeros(shape, dtype=np.int64)
        mask = np.zeros(shape, dtype=bool)
        rewards = np.zeros(group_size)
        for i in range(group_size):
            tokens[i] = policy_old.sample(rng.random(policy_old.length))
            mask[i] = rng.random(policy_old.length) < 0.6
            mask[i, rng.integers(policy_old.length)] = True
            rewards[i] = rng.integers(0, 2)
        minibatch.append(RolloutBatch(
            token_ids=tokens,
            old_logprobs=policy_old.token_logprobs(tokens),
            new_logprobs=np.where(mask, policy_new.token_logprobs(tokens), -30.0),
            mask=mask,
            rewards=rewards,
            advantages=advantage_estimates(rewards),
            group_size=group_size,
        ))
    return minibatch


def brute_force_estimate(minibatch, policy, order, regime, clip):
    """Direct per-rollout sums over dense score gradients, from the closed
    forms A rho^{1-p}/n sum_t r^p g_t (gated per sequence) and
    A h^{1-p}/n sum_t I_t r^p g_t (token clip); returns (vector, clip share)."""
    total = np.zeros(policy.param_dim)
    zeroed = counted = 0
    for batch in minibatch:
        group = np.zeros(policy.param_dim)
        for ids, r, mask, adv in rollout_rows(batch):
            grads = policy.score_gradients(ids)[mask]
            n = r.size
            rho = closed_form_rho(r, order.p)
            if regime == "token":
                counted += n
                if adv == 0.0:
                    continue
                band = np.clip(r, clip.low, clip.high)
                adjusted = np.minimum(r, band) if adv > 0 else np.maximum(r, band)
                keep = r <= clip.high if adv > 0 else r >= clip.low
                zeroed += int(n - keep.sum())
                h = closed_form_rho(adjusted, order.p)
                per_token = h ** (1.0 - order.p) / n * np.where(keep, r**order.p, 0.0)
            else:
                counted += 1
                gate = regime == "sequence" and (
                    (adv > 0 and rho > clip.high) or (adv < 0 and rho < clip.low)
                )
                if gate:
                    zeroed += 1
                    continue
                per_token = rho ** (1.0 - order.p) / n * r**order.p
            group += adv * (per_token @ grads)
        total += group / batch.group_size
    return total / len(minibatch), zeroed / counted


def brute_force_objective(batch, order, regime, clip):
    total = 0.0
    for _, r, _, adv in rollout_rows(batch):
        rho = closed_form_rho(r, order.p)
        if regime == "none":
            total += rho * adv
        elif regime == "sequence":
            total += min(rho * adv, min(max(rho, clip.low), clip.high) * adv)
        elif adv != 0.0:
            band = np.clip(r, clip.low, clip.high)
            adjusted = np.minimum(r, band) if adv > 0 else np.maximum(r, band)
            total += closed_form_rho(adjusted, order.p) * adv
    return total / batch.group_size


ESTIMATORS = {
    "none": lambda mb, pol, order, clip: grad_estimator_unclipped(mb, pol, order),
    "sequence": grad_estimator_seq_clip,
    "token": grad_estimator_token_clip,
}
SURROGATES = {
    "none": lambda b, order, clip: surrogate_unclipped(b, order),
    "sequence": surrogate_seq_clip,
    "token": surrogate_token_clip,
}


class TestMaskedMultiGroupOracles:
    """The batched kernel behind every estimator, on several groups with
    random masks, against per-rollout brute force."""

    @pytest.mark.parametrize("regime", ["none", "sequence", "token"])
    def test_estimators_match_brute_force(self, rng, regime):
        clip = ClipConfig(0.2)
        clipped_cases = 0
        for _ in range(8):
            old, new = random_policy_pair(rng, length=6, vocab=5, drift=0.6)
            minibatch = masked_minibatch(rng, old, new)
            for p in (-2.5, 0.0, 0.7, 3.0):
                order = HolderOrder(p)
                expect, share = brute_force_estimate(minibatch, new, order, regime, clip)
                est = ESTIMATORS[regime](minibatch, new, order, clip)
                np.testing.assert_allclose(est.vector, expect, rtol=1e-10, atol=1e-12)
                assert est.clip_fraction == pytest.approx(share, abs=1e-15)
                clipped_cases += share > 0.0
        # the comparison covers the gate / clip branches, not only the band
        assert clipped_cases > 0 or regime == "none"

    @pytest.mark.parametrize("regime", ["none", "sequence", "token"])
    def test_objectives_match_brute_force(self, rng, regime):
        clip = ClipConfig(0.2)
        for _ in range(8):
            old, new = random_policy_pair(rng, length=6, vocab=5, drift=0.6)
            minibatch = masked_minibatch(rng, old, new)
            for p in (-2.5, 0.0, 0.7, 3.0):
                order = HolderOrder(p)
                terms = batch_terms(RolloutBatch.concat(minibatch), order, regime, clip)
                expect = [brute_force_objective(b, order, regime, clip)
                          for b in minibatch]
                np.testing.assert_allclose(terms.group_objectives, expect,
                                           rtol=1e-12, atol=1e-14)
                assert terms.objective == pytest.approx(np.mean(expect), abs=1e-14)
                assert SURROGATES[regime](minibatch[0], order, clip) == (
                    pytest.approx(expect[0], abs=1e-14)
                )

    @pytest.mark.parametrize("regime", ["none", "sequence", "token"])
    def test_row_exponents_match_scalar_calls(self, rng, regime):
        """With one exponent per row, each row's weights or token-clip
        factors, scale and coefficient equal, bit for bit, what a call with
        that row's exponent as a scalar gives the row (rows do not interact),
        with geometric-branch rows next to power rows."""
        clip = ClipConfig(0.2)
        clipped = 0
        for _ in range(8):
            old, new = random_policy_pair(rng, length=6, vocab=5, drift=0.6)
            batch = RolloutBatch.concat(masked_minibatch(rng, old, new))
            exponents = rng.choice([-2.5, 0.0, 5e-7, 0.7, 3.0], size=batch.rewards.size)
            exponents[:2] = (0.0, 3.0)
            terms = batch_terms(batch, HolderOrder(exponents), regime, clip)
            for i, p in enumerate(exponents):
                solo = batch_terms(batch, HolderOrder(float(p)), regime, clip)
                for name in ("token_weights", "row_scale", "row_coef"):
                    np.testing.assert_array_equal(getattr(terms, name)[i],
                                                  getattr(solo, name)[i])
            clipped += terms.clip_fraction.item() > 0.0
        assert clipped > 0 or regime == "none"

    def test_token_clip_rho_and_h_match_their_own_calls(self, rng):
        """Token clipping takes rho and h from one stacked kernel call: rho,
        read through V(p), has the bits of the unclipped regime's, and the
        objective the bits of h A with each h from a call on its row's
        clipped ratios alone, min (max) of r and r clipped to the band for
        a positive (negative) advantage."""
        clip = ClipConfig(0.2)
        clipped = 0
        for _ in range(8):
            old, new = random_policy_pair(rng, length=6, vocab=5, drift=0.6)
            batch = RolloutBatch.concat(masked_minibatch(rng, old, new))
            adv = batch.advantages
            exponents = rng.choice([-2.5, 0.0, 5e-7, 0.7, 3.0], size=adv.size)
            order = HolderOrder(exponents)
            terms = batch_terms(batch, order, "token", clip)
            unclipped = batch_terms(batch, order, "none")
            np.testing.assert_array_equal(terms.v_of_p, unclipped.v_of_p)
            h = np.zeros(adv.size)
            for i in np.flatnonzero(adv != 0.0):
                ratios = np.exp(batch.log_ratios[i])
                band = np.clip(ratios, clip.low, clip.high)
                adjusted = np.minimum(ratios, band) if adv[i] > 0.0 else np.maximum(ratios, band)
                (h[i],), _ = holder_rows(np.log(adjusted)[None], batch.mask[i][None],
                                         HolderOrder(float(exponents[i])))
            np.testing.assert_array_equal(terms.group_objectives,
                                          group_means(h * adv, batch.group_size))
            clipped += terms.clip_fraction.item() > 0.0
        assert clipped > 0

    def test_token_clip_rows_with_zero_advantage_in_live_groups(self, rng):
        """Rewards 0, 1, 2, 1 give A = 0 to two rows of a live group: their
        token-clip factors are 0, and the estimate, clip share and objective
        still match brute force."""
        clip = ClipConfig(0.2)
        clipped_cases = 0
        for _ in range(8):
            old, new = random_policy_pair(rng, length=6, vocab=5, drift=0.6)
            minibatch = []
            for group in masked_minibatch(rng, old, new):
                rewards = rng.permutation([0.0, 1.0, 2.0, 1.0])
                minibatch.append(replace(group, rewards=rewards,
                                         advantages=advantage_estimates(rewards)))
            batch = RolloutBatch.concat(minibatch)
            assert (batch.advantages == 0.0).sum() == 6
            for p in (-2.5, 0.0, 0.7, 3.0):
                order = HolderOrder(p)
                terms = batch_terms(batch, order, "token", clip)
                assert not terms.token_weights[batch.advantages == 0.0].any()
                expect, share = brute_force_estimate(minibatch, new, order, "token", clip)
                est = grad_estimator_token_clip(minibatch, new, order, clip)
                np.testing.assert_allclose(est.vector, expect, rtol=1e-10, atol=1e-12)
                assert est.clip_fraction == pytest.approx(share, abs=1e-15)
                np.testing.assert_allclose(
                    terms.group_objectives,
                    [brute_force_objective(b, order, "token", clip) for b in minibatch],
                    rtol=1e-12, atol=1e-14)
                clipped_cases += share > 0.0
        assert clipped_cases > 0

    def test_variance_bound_over_masked_groups(self, rng):
        old, new = random_policy_pair(rng, length=6, vocab=5, drift=0.4)
        minibatch = masked_minibatch(rng, old, new)
        order = HolderOrder(1.5)
        values = [
            adv**2 * closed_form_rho(r, order.p) ** 2
            for b in minibatch
            for _, r, _, adv in rollout_rows(b)
        ]
        assert variance_bound_term(minibatch, order) == pytest.approx(
            np.mean(values), rel=1e-12
        )


@pytest.mark.parametrize("group_size", [8, 9, 17])
def test_group_means_are_left_folds(rng, group_size):
    """group_means sums each group as a Python left fold does, bit for bit;
    on the same values numpy's pairwise sum along the rows rounds otherwise,
    so the check can tell the two orders apart."""
    values = np.exp(rng.uniform(-30.0, 30.0, size=400 * group_size))
    values *= rng.choice([-1.0, 1.0], size=values.size)
    folds = []
    for group in values.reshape(-1, group_size):
        total = group[0]
        for value in group[1:]:
            total += value
        folds.append(total / group_size)
    np.testing.assert_array_equal(group_means(values, group_size), folds)
    pairwise = values.reshape(-1, group_size).sum(axis=1) / group_size
    assert not np.array_equal(pairwise, folds)


def dense_policy_gradient(policy, batch, terms):
    """The gradient folded over every row, the groups whose coefficients are
    all zero included: score blocks of every row, the three in-place
    products, then the group and minibatch means, each a left fold in a
    Python loop (``group_means``)."""
    per_rollout = policy.score_blocks(batch.token_ids)
    per_rollout *= terms.token_weights[:, :, None]
    per_rollout *= terms.row_scale[:, None, None]
    per_rollout *= terms.row_coef[:, None, None]
    per_group = group_means(per_rollout, batch.group_size)
    return group_means(per_group, len(per_group) // terms.runs)


class TestDeadGroupsSkipped:
    """policy_gradient scores and multiplies only the groups with a nonzero
    coefficient, and still equals the dense fold over every row bit for bit
    (array_equal does not tell a zero's sign)."""

    @staticmethod
    def minibatch(rng, old, new, live, group_size=4):
        """Masked groups of G rollouts, group k live (G // 2 rewards of 1,
        the rest 0, shuffled) if live[k], else dead (G equal rewards, so
        A = 0)."""
        groups = masked_minibatch(rng, old, new, groups=len(live), group_size=group_size)
        ones = np.arange(group_size) < group_size // 2
        rewards = [rng.permutation(ones.astype(np.float64)) if on
                   else np.full(group_size, float(rng.integers(2))) for on in live]
        return [replace(g, rewards=r, advantages=advantage_estimates(r))
                for g, r in zip(groups, rewards)]

    @staticmethod
    def gradient(policy, batch, terms):
        # the gradient reads only the plan's score part, alike under every regime
        plan = minibatch_plan(batch, policy.positions(batch.token_ids), policy, "none")
        got = policy_gradient(policy, batch, terms, plan)
        np.testing.assert_array_equal(got, dense_policy_gradient(policy, batch, terms))
        return got

    @pytest.mark.parametrize("regime", ["none", "sequence", "token"])
    def test_dead_groups_match_the_dense_fold(self, rng, regime):
        old, new = random_policy_pair(rng, length=6, vocab=5, drift=0.6)
        batch = RolloutBatch.concat(self.minibatch(rng, old, new, (True, False, True, False)))
        for p in (-2.5, 0.0, 3.0):
            terms = batch_terms(batch, HolderOrder(p), regime, ClipConfig(0.2))
            assert terms.row_coef[4:8].tolist() == [0.0] * 4
            assert np.abs(self.gradient(new, batch, terms)).max() > 0.0

    @pytest.mark.parametrize("regime", ["none", "sequence", "token"])
    @pytest.mark.parametrize("group_size", [8, 9])
    def test_folds_of_eight_or_more_are_left_folds(self, rng, regime, group_size):
        """At G >= 8 rows and 8 groups per run numpy's pairwise sum along an
        innermost axis would round unlike the left fold; both of the
        gradient's folds still equal it bit for bit."""
        old, new = random_policy_pair(rng, length=6, vocab=5, drift=0.6)
        live = (True, True, False, True, True, True, False, True)
        batch = RolloutBatch.concat(self.minibatch(rng, old, new, live, group_size))
        for p in (-2.5, 0.0, 3.0):
            terms = batch_terms(batch, HolderOrder(p), regime, ClipConfig(0.2))
            assert np.abs(self.gradient(new, batch, terms)).max() > 0.0

    @pytest.mark.parametrize("regime", ["none", "sequence", "token"])
    def test_two_runs_of_one_position_and_two_tokens(self, rng, regime):
        """T * V = 2, the narrowest innermost axis, in an S = 2 stack of 8
        groups of G = 8 per run with one and three dead groups: each run
        equals its solo gradient and the dense fold."""
        pairs = [random_policy_pair(rng, length=1, vocab=2, drift=0.6) for _ in range(2)]
        lives = [(True, True, True, False, True, True, True, True),
                 (False, True, True, False, True, False, True, True)]
        runs = [RolloutBatch.concat(self.minibatch(rng, old, new, live, 8))
                for (old, new), live in zip(pairs, lives)]
        batch = RolloutBatch.concat(runs)
        stack = PolicyParams(np.stack([new.logits for _, new in pairs]))
        order, clip = HolderOrder(1.5), ClipConfig(0.2)
        got = self.gradient(stack, batch, batch_terms(batch, order, regime, clip, runs=2))
        for s, ((_, new), run) in enumerate(zip(pairs, runs)):
            solo = self.gradient(new, run, batch_terms(run, order, regime, clip))
            np.testing.assert_array_equal(got[s], solo[0])

    def test_live_group_with_a_gated_row(self, rng):
        """A gated row (coefficient 0) does not make its group dead."""
        mixed = 0
        for _ in range(8):
            old, new = random_policy_pair(rng, length=6, vocab=5, drift=0.6)
            batch = RolloutBatch.concat(self.minibatch(rng, old, new, (True, True, False)))
            for p in (-2.5, 0.0, 3.0):
                terms = batch_terms(batch, HolderOrder(p), "sequence", ClipConfig(0.2))
                self.gradient(new, batch, terms)
                zero = (terms.row_coef == 0.0).reshape(-1, 4)
                mixed += int((zero.any(axis=1) & ~zero.all(axis=1)).sum())
        assert mixed > 0

    @pytest.mark.parametrize("regime", ["none", "sequence", "token"])
    def test_live_group_with_zero_advantage_rows(self, rng, regime):
        """Rewards 0, 0.5, 1, 0.5 give A = 0 to two rows of a live group:
        the group is scored, those rows add +-0, and the gradient is the
        dense fold's."""
        old, new = random_policy_pair(rng, length=6, vocab=5, drift=0.6)
        groups = masked_minibatch(rng, old, new)
        rewards = [rng.permutation([0.0, 0.5, 1.0, 0.5]), np.ones(4),
                   rng.permutation([0.0, 0.0, 1.0, 1.0])]
        batch = RolloutBatch.concat([replace(g, rewards=r, advantages=advantage_estimates(r))
                                     for g, r in zip(groups, rewards)])
        assert (batch.advantages[:4] == 0.0).sum() == 2
        for p in (-2.5, 0.0, 3.0):
            terms = batch_terms(batch, HolderOrder(p), regime, ClipConfig(0.2))
            assert np.abs(self.gradient(new, batch, terms)).max() > 0.0

    @pytest.mark.parametrize("regime", ["none", "sequence", "token"])
    def test_live_group_whose_every_row_is_gated(self, rng, regime):
        """Every token ratio of the first group is e^{0.5} where A > 0 and
        e^{-0.5} where A < 0, so the sequence gate closes on each of its
        rows: the group is live, as its advantages are nonzero, and scored,
        and each regime's gradient is the dense fold's."""
        old, new = random_policy_pair(rng, length=6, vocab=5, drift=0.6)
        gated, *rest = self.minibatch(rng, old, new, (True, True, False))
        positive = (gated.advantages > 0.0)[:, None]
        logprobs = gated.new_logprobs
        gated = replace(gated, old_logprobs=np.where(positive, logprobs - 0.5, logprobs),
                        new_logprobs=np.where(positive, logprobs, logprobs - 0.5))
        batch = RolloutBatch.concat([gated, *rest])
        assert batch.advantages[:4].all()
        for p in (-2.5, 0.0, 3.0):
            terms = batch_terms(batch, HolderOrder(p), regime, ClipConfig(0.2))
            assert (regime == "sequence") == (not terms.row_coef[:4].any())
            assert np.abs(self.gradient(new, batch, terms)).max() > 0.0

    def test_token_clip_with_clipped_tokens(self, rng):
        clipped = 0
        for _ in range(8):
            old, new = random_policy_pair(rng, length=6, vocab=5, drift=0.6)
            batch = RolloutBatch.concat(self.minibatch(rng, old, new, (False, True, False)))
            for p in (-2.5, 0.0, 3.0):
                terms = batch_terms(batch, HolderOrder(p), "token", ClipConfig(0.2))
                self.gradient(new, batch, terms)
                clipped += terms.clip_fraction.item() > 0.0
        assert clipped > 0

    @pytest.mark.parametrize("regime", ["none", "sequence", "token"])
    def test_stack_runs_with_different_dead_groups(self, rng, regime):
        """Each run of an S = 3 stack gets its own live groups' means, and a
        run with none gets zeros; each equals its solo gradient."""
        pairs = [random_policy_pair(rng, length=6, vocab=5, drift=0.6) for _ in range(3)]
        lives = [(False, True, True), (True, False, False), (False, False, False)]
        runs = [RolloutBatch.concat(self.minibatch(rng, old, new, live))
                for (old, new), live in zip(pairs, lives)]
        batch = RolloutBatch.concat(runs)
        stack = PolicyParams(np.stack([new.logits for _, new in pairs]))
        order, clip = HolderOrder(1.5), ClipConfig(0.2)
        got = self.gradient(stack, batch, batch_terms(batch, order, regime, clip, runs=3))
        np.testing.assert_array_equal(got[2], np.zeros((6, 5)))
        for s, ((_, new), run) in enumerate(zip(pairs, runs)):
            solo = self.gradient(new, run, batch_terms(run, order, regime, clip))
            np.testing.assert_array_equal(got[s], solo[0])

    @pytest.mark.parametrize("regime", ["none", "sequence", "token"])
    def test_every_group_dead_gives_a_zero_gradient(self, rng, regime):
        pairs = [random_policy_pair(rng, length=6, vocab=5, drift=0.6) for _ in range(3)]
        batch = RolloutBatch.concat([g for old, new in pairs
                                     for g in self.minibatch(rng, old, new, (False, False))])
        stack = PolicyParams(np.stack([new.logits for _, new in pairs]))
        terms = batch_terms(batch, HolderOrder(-1.0), regime, ClipConfig(0.2), runs=3)
        np.testing.assert_array_equal(self.gradient(stack, batch, terms),
                                      np.zeros((3, 6, 5)))

    @pytest.mark.parametrize("regime", ["none", "sequence", "token"])
    def test_id_beyond_vocabulary_in_a_dead_group_raises(self, rng, regime):
        old, new = random_policy_pair(rng, length=6, vocab=5, drift=0.3)
        live, dead = self.minibatch(rng, old, new, (True, False))
        ids = dead.token_ids.copy()
        ids[1, 2] = new.vocab
        with pytest.raises(DomainError, match="token_ids"):
            ESTIMATORS[regime]([live, replace(dead, token_ids=ids)], new,
                               HolderOrder(1.0), ClipConfig(0.2))


class TestRolloutBatch:
    def _arrays(self, **overrides):
        base = dict(
            token_ids=np.zeros((4, 3), dtype=np.int64),
            old_logprobs=np.full((4, 3), -1.0),
            new_logprobs=np.full((4, 3), -0.5),
            mask=np.ones((4, 3), dtype=bool),
            rewards=np.array([1.0, 0.0, 0.0, 1.0]),
            advantages=np.array([1.0, -1.0, -1.0, 1.0]),
            group_size=2,
        )
        base.update(overrides)
        return base

    def test_valid_batch(self):
        batch = RolloutBatch(**self._arrays())
        np.testing.assert_array_equal(batch.log_ratios, np.full((4, 3), 0.5))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"old_logprobs": np.full((4, 3), 0.5)},
            {"new_logprobs": np.full((4, 2), -0.5)},
            {"mask": np.array([[1, 1, 1], [0, 0, 0], [1, 1, 1], [1, 1, 1]], bool)},
            {"new_logprobs": np.full((4, 3), -np.inf)},
            {"group_size": 3},
            {"group_size": 1},
            {"advantages": np.zeros(3)},
        ],
    )
    def test_rejects_invalid(self, overrides):
        with pytest.raises(DomainError):
            RolloutBatch(**self._arrays(**overrides))

    def test_masked_entries_are_not_checked(self):
        old = np.full((4, 3), -1.0)
        old[0, 2] = 7.0  # positive logprob, but masked out
        mask = np.ones((4, 3), dtype=bool)
        mask[0, 2] = False
        batch = RolloutBatch(**self._arrays(old_logprobs=old, mask=mask))
        assert batch.log_ratios[0, 2] == 0.0

    def test_concat_pads_shorter_groups_with_masked_positions(self):
        short = make_group([[0.1, 0.2], [0.0, -0.3]], [1.0, 0.0])
        long = make_group([[0.1, 0.2, 0.4], [0.0, -0.3, 0.5]], [0.0, 1.0])
        batch = RolloutBatch.concat([short, long])
        assert batch.group_size == 2
        np.testing.assert_array_equal(batch.mask[:2], [[True, True, False]] * 2)
        np.testing.assert_array_equal(batch.mask[2:], long.mask)
        for name in ("token_ids", "old_logprobs", "new_logprobs", "log_ratios"):
            np.testing.assert_array_equal(getattr(batch, name)[:2, :2], getattr(short, name))
            np.testing.assert_array_equal(getattr(batch, name)[:2, 2], 0)
            np.testing.assert_array_equal(getattr(batch, name)[2:], getattr(long, name))
        for name in ("rewards", "advantages"):
            np.testing.assert_array_equal(
                getattr(batch, name), np.concatenate([getattr(short, name), getattr(long, name)])
            )
        for p in (-2.0, 0.0, 3.0):
            terms = batch_terms(batch, HolderOrder(p), "none")
            np.testing.assert_array_equal(terms.group_objectives, [
                surrogate_unclipped(short, HolderOrder(p)),
                surrogate_unclipped(long, HolderOrder(p)),
            ])

    def test_concat_rejects_mixed_group_sizes_and_empty_list(self, rng):
        old, new = perturbed_policies(rng, 0.15)
        groups = [random_group(rng, old, new, 2), random_group(rng, old, new, 3)]
        order = HolderOrder(1.0)
        for join in (RolloutBatch.concat,
                     lambda gs: grad_estimator_unclipped(gs, new, order),
                     lambda gs: variance_bound_term(gs, order)):
            with pytest.raises(DomainError, match="share a group size"):
                join(groups)
            with pytest.raises(DomainError, match="at least one group"):
                join([])

    def test_derived_batches_equal_checked_construction(self, rng):
        """select_groups and refresh_logprobs skip the construction checks,
        and give, field by field, what constructing from the same arrays
        gives, log_ratios included."""
        names = ("token_ids", "old_logprobs", "new_logprobs", "mask", "rewards",
                 "advantages", "group_size")
        for _ in range(5):
            old, new = random_policy_pair(rng, length=6, vocab=5, drift=0.6)
            newer = PolicyParams(new.logits + rng.normal(scale=0.3, size=new.logits.shape))
            batch = RolloutBatch.concat(masked_minibatch(rng, old, new, groups=4))
            picked = batch.select_groups(rng.permutation(4)[:3])
            refreshed = refresh_logprobs(picked, newer)
            assert not np.array_equal(refreshed.log_ratios, picked.log_ratios)
            for derived in (picked, refreshed):
                checked = RolloutBatch(**{name: getattr(derived, name) for name in names})
                for name in (*names, "log_ratios"):
                    np.testing.assert_array_equal(getattr(derived, name),
                                                  getattr(checked, name))

    def test_derived_non_finite_log_ratio_raises_in_kernel(self):
        """A refresh is not re-checked, but a non-finite valid log-ratio still
        raises, from the kernel that batch_terms calls."""

        class InfinitePolicy:
            def token_logprobs(self, token_ids):
                logprobs = np.full(token_ids.shape, -0.5)
                logprobs[1, 0] = -np.inf
                return logprobs

        derived = refresh_logprobs(RolloutBatch(**self._arrays()), InfinitePolicy())
        with pytest.raises(DomainError, match="valid log_ratios must be finite"):
            batch_terms(derived, HolderOrder(1.0), "none")

    @pytest.mark.parametrize("value", [-np.inf, np.inf, np.nan])
    def test_non_finite_log_ratio_raises_under_token_clip(self, value):
        """Token clipping clips a row's ratios before its one kernel call,
        and a non-finite valid log-ratio, of a row with A > 0 or A < 0, is
        still a DomainError from that call, not a warning on the way."""
        for row in (0, 1):
            new = np.full((4, 3), -0.5)
            new[row, 1] = value
            derived = RolloutBatch(**self._arrays())._derive(
                new_logprobs=new, log_ratios=new + 1.0)
            with pytest.raises(DomainError, match="valid log_ratios must be finite"):
                batch_terms(derived, HolderOrder(1.0), "token", ClipConfig(0.2))

    def test_concat_returns_a_lone_batch_unchanged(self, rng):
        old, new = perturbed_policies(rng, 0.15)
        group = random_group(rng, old, new)
        joined = RolloutBatch.concat([group])
        assert joined.group_size == group.group_size
        for name in ("token_ids", "old_logprobs", "new_logprobs", "mask",
                     "rewards", "advantages", "log_ratios"):
            assert getattr(joined, name) is getattr(group, name), name

    def test_negative_token_id_rejected_at_construction(self):
        ids = np.zeros((4, 3), dtype=np.int64)
        ids[2, 1] = -1
        with pytest.raises(DomainError, match="token_ids must be >= 0"):
            RolloutBatch(**self._arrays(token_ids=ids))

    def test_token_id_beyond_vocabulary_rejected_at_refresh(self):
        ids = np.zeros((4, 3), dtype=np.int64)
        ids[3, 2] = 4
        batch = RolloutBatch(**self._arrays(token_ids=ids))
        with pytest.raises(DomainError, match="vocabulary size 4"):
            refresh_logprobs(batch, PolicyParams.uniform(3, 4))
        refreshed = refresh_logprobs(batch, PolicyParams.uniform(3, 5))
        np.testing.assert_array_equal(refreshed.new_logprobs, np.full((4, 3), -math.log(5.0)))

    def test_select_groups(self):
        batch = RolloutBatch(**self._arrays())
        picked = batch.select_groups([1, 0])
        np.testing.assert_array_equal(picked.rewards, [0.0, 1.0, 1.0, 0.0])

    def test_select_groups_takes_a_slice_as_views(self, rng):
        """A slice of groups of step 1 selects what the index array of the
        same groups selects, field by field, as views of the batch's arrays;
        another step raises DomainError."""
        old, new = random_policy_pair(rng, length=6, vocab=5, drift=0.6)
        batch = RolloutBatch.concat(masked_minibatch(rng, old, new, groups=5))
        names = ("token_ids", "old_logprobs", "new_logprobs", "mask", "log_ratios",
                 "rewards", "advantages")
        for groups, picks in ((slice(1, 4), [1, 2, 3]), (slice(3, None), [3, 4]),
                              (slice(-2, 5), [3, 4])):
            sliced, gathered = batch.select_groups(groups), batch.select_groups(np.array(picks))
            assert sliced.group_size == batch.group_size
            for name in names:
                got = getattr(sliced, name)
                np.testing.assert_array_equal(got, getattr(gathered, name))
                assert np.shares_memory(got, getattr(batch, name))
        with pytest.raises(DomainError, match="step 1"):
            batch.select_groups(slice(0, 4, 2))

    def test_regime_checked(self):
        batch = RolloutBatch(**self._arrays())
        with pytest.raises(DomainError):
            batch_terms(batch, HolderOrder(1.0), "soft")
        with pytest.raises(DomainError):
            batch_terms(batch, HolderOrder(1.0), "token")


class TestVarianceBoundTerm:
    def test_flat_at_unit_ratios(self):
        batch = make_group([[0.0, 0.0]] * 2, [1.0, 0.0])
        expect = float(np.mean(batch.advantages**2))
        for p in (-3.0, 0.0, 3.0):
            assert variance_bound_term([batch], HolderOrder(p)) == pytest.approx(expect)

    def test_single_rollout_value(self):
        batch = replace(
            make_group([[math.log(5.0)] * 3, [0.0] * 3], [1.0, 0.0]),
            advantages=np.array([1.0, 0.0]),
        )
        assert variance_bound_term([batch], HolderOrder(1.0)) == pytest.approx(12.5)
        # 12.5 = mean(1 * 25, 0 * 1)

    def test_strictly_increasing_in_p(self, rng):
        old, new = perturbed_policies(rng, 0.3)
        batch = refresh_logprobs(random_group(rng, old, new), new)
        vals = [
            variance_bound_term([batch], HolderOrder(p))
            for p in (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)
        ]
        assert np.all(np.diff(vals) > -1e-12)

    def test_empty_sample_rejected(self):
        with pytest.raises(DomainError):
            variance_bound_term([], HolderOrder(1.0))


class TestSecondMomentOrthogonal:
    def test_two_eight_value(self):
        r = RatioSequence(np.array([2.0, 8.0]))
        # rho = 5, HHI = 0.68 at p = 1
        assert second_moment_orthogonal(1.0, 1.0, r, HolderOrder(1.0)) == (
            pytest.approx(17.0)
        )

    def test_uniform_ratios(self):
        r = RatioSequence(np.full(5, 3.0))
        for p in (-2.0, 0.0, 2.0):
            assert second_moment_orthogonal(2.0, 1.5, r, HolderOrder(p)) == (
                pytest.approx(4.0 * 2.25 * 9.0 / 5.0)
            )

    def test_matches_explicit_orthonormal_gradients(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            r = RatioSequence(np.exp(rng.uniform(-1.5, 1.5, n)))
            p = float(rng.uniform(-4, 4))
            adv = float(rng.uniform(-2, 2))
            m = float(rng.uniform(0.5, 3.0))
            g = adv * grad_rho(r, m * np.eye(n), HolderOrder(p))
            assert float(g @ g) == pytest.approx(
                second_moment_orthogonal(adv, m, r, HolderOrder(p)), rel=1e-10
            )

    def test_grid_minimizer_nonpositive(self, rng):
        grid = np.linspace(-10, 10, 201)
        for _ in range(10):
            r = RatioSequence(np.exp(rng.uniform(-2, 2, 12)))
            vals = [second_moment_orthogonal(1.0, 1.0, r, HolderOrder(p)) for p in grid]
            assert grid[int(np.argmin(vals))] <= 0.0

    def test_requires_positive_bound(self):
        with pytest.raises(DomainError):
            second_moment_orthogonal(1.0, 0.0, RatioSequence(np.ones(2)), HolderOrder(1.0))

    def test_no_exponent_is_a_domain_error(self):
        with pytest.raises(DomainError, match="at least one row"):
            second_moment_orthogonal(1.0, 1.0, RatioSequence(np.ones(2)),
                                     HolderOrder(np.array([])))


class TestTheoremScheduleGuarantees:
    def test_amplification_example(self):
        """n=101 tokens, one ratio R=4 among ones: the p_high=2 weight gain
        over p=0 beats C R^2 with the proof's constant C."""
        n, big = 101, 4.0
        r = RatioSequence(np.concatenate(([big], np.ones(n - 1))))
        from holderpo import gradient_weights

        w2 = gradient_weights(r, HolderOrder(2.0)).weights[0]
        w0 = gradient_weights(r, HolderOrder(0.0)).weights[0]
        s = float(n - 1)
        c = s / (big**2 + s)
        assert w2 / w0 == pytest.approx(16.0 * 101.0 / 116.0, rel=1e-12)  # 13.931
        assert w2 / w0 >= c * big**2  # 13.793

    def test_variance_contracts_below_static_p(self, rng):
        while True:
            old, new = perturbed_policies(rng, 0.3)
            batch = refresh_logprobs(random_group(rng, old, new), new)
            if np.any(batch.advantages != 0.0):
                break
        for p_stat in (0.0, 1.0, 2.0):
            v_stat = variance_bound_term([batch], HolderOrder(p_stat))
            for dp in (0.5, 1.0, 3.0):
                assert variance_bound_term([batch], HolderOrder(p_stat - dp)) < v_stat


class TestGradientEstimateType:
    def test_clip_fraction_range(self):
        with pytest.raises(DomainError):
            GradientEstimate(np.zeros(3), clip_fraction=1.5)
