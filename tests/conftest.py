"""Shared builders for randomized rollouts, groups, and policies."""

from __future__ import annotations

import numpy as np
import pytest

from holderpo import GroupBatch, PolicyParams, RolloutRecord


def make_rollout(log_ratios, reward=0.0, mask=None) -> RolloutRecord:
    """Rollout whose new-minus-old log-probabilities equal `log_ratios`.

    Both logprob vectors are shifted down so they stay <= 0.
    """
    deltas = np.asarray(log_ratios, dtype=np.float64)
    n = deltas.size
    old = np.full(n, -np.abs(deltas).max() - 1.0)
    new = old + deltas
    return RolloutRecord(
        token_ids=np.zeros(n, dtype=np.int64),
        old_logprobs=old,
        new_logprobs=new,
        reward=float(reward),
        mask=np.ones(n, dtype=bool) if mask is None else np.asarray(mask, bool),
    )


def make_group(log_ratio_rows, rewards) -> GroupBatch:
    rollouts = [
        make_rollout(row, reward) for row, reward in zip(log_ratio_rows, rewards)
    ]
    return GroupBatch(rollouts)


def random_policy_pair(rng, length=4, vocab=5, drift=0.15):
    """(old, new) tabular policies with a small random parameter drift."""
    old = PolicyParams(rng.normal(scale=0.5, size=(length, vocab)))
    new = PolicyParams(old.logits + rng.normal(scale=drift, size=(length, vocab)))
    return old, new


def sample_tokens(rng, policy: PolicyParams) -> np.ndarray:
    probs = policy.probs()
    return np.array(
        [rng.choice(policy.vocab, p=probs[pos]) for pos in range(policy.length)]
    )


def random_group(rng, policy_old, policy_new, group_size=4) -> GroupBatch:
    """Group sampled from the old policy with logprobs under both policies."""
    rollouts = []
    for _ in range(group_size):
        tokens = sample_tokens(rng, policy_old)
        rollouts.append(
            RolloutRecord(
                token_ids=tokens,
                old_logprobs=policy_old.token_logprobs(tokens),
                new_logprobs=policy_new.token_logprobs(tokens),
                reward=float(rng.integers(0, 2)),
                mask=np.ones(policy_old.length, dtype=bool),
            )
        )
    return GroupBatch(rollouts)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def assert_same_run(got, want) -> None:
    """Two RunLogs hold the same final policy, success and metrics, bit for
    bit."""
    np.testing.assert_array_equal(got.final_policy.logits, want.final_policy.logits)
    assert got.final_success == want.final_success
    assert got.metrics == want.metrics
