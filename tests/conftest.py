"""Shared helpers that make groups and policies; randomized groups come
from `verify._random_batch`, the one group sampler, and (4, 5) policy pairs
from `verify._perturbed_policies`."""

from __future__ import annotations

import numpy as np
import pytest

from holderpo import PolicyParams, RolloutBatch, advantage_estimates


def make_group(log_ratio_rows, rewards) -> RolloutBatch:
    """A group whose new-minus-old log-probabilities equal `log_ratio_rows`,
    one row per rollout, with group-normalized advantages.

    Each row's logprobs are shifted down so they stay <= 0.
    """
    deltas = np.asarray(log_ratio_rows, dtype=np.float64)
    old = np.broadcast_to(-np.abs(deltas).max(axis=1, keepdims=True) - 1.0, deltas.shape)
    return RolloutBatch(
        token_ids=np.zeros(deltas.shape, dtype=np.int64),
        old_logprobs=old,
        new_logprobs=old + deltas,
        mask=np.ones(deltas.shape, dtype=bool),
        rewards=rewards,
        advantages=advantage_estimates(rewards),
        group_size=len(deltas),
    )


def random_policy_pair(rng, length, vocab, drift=0.15):
    """(old, new) tabular policies with a small random parameter drift, of a
    (T, V) other than the (4, 5) of ``verify._perturbed_policies``, which
    draws the same way."""
    old = PolicyParams(rng.normal(scale=0.5, size=(length, vocab)))
    new = PolicyParams(old.logits + rng.normal(scale=drift, size=(length, vocab)))
    return old, new


def rollout_rows(batch: RolloutBatch):
    """Per rollout: token ids, the ratios at valid positions read from the
    logprobs, the mask and the advantage; the view the brute-force oracles
    loop over."""
    for ids, old, new, mask, adv in zip(batch.token_ids, batch.old_logprobs,
                                        batch.new_logprobs, batch.mask,
                                        batch.advantages):
        yield ids, np.exp((new - old)[mask]), mask, adv


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def assert_same_run(got, want) -> None:
    """Two RunLogs hold the same final policy, success and metrics, bit for
    bit."""
    np.testing.assert_array_equal(got.final_policy.logits, want.final_policy.logits)
    assert got.final_success == want.final_success
    assert got.metrics == want.metrics
