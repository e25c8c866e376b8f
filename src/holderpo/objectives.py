"""Advantage estimation and the three objective / gradient-estimator variants:
unclipped, token-level clipped, and sequence-level clipped.

All of them are computed by one batched kernel, :func:`batch_terms`, over a
:class:`RolloutBatch` of (rollouts x tokens) arrays.  The per-group
functions (``surrogate_*``, ``grad_estimator_*``, ``variance_bound_term``)
pack their groups into a batch and call it.

The KL term is deliberately absent.  Gradient estimators take a
position-conditioned policy: the score vector of token t is zero outside
parameter block t, and ``score_blocks(token_ids) -> (..., T, V)`` returns
block t of it.  The tabular policy in :mod:`holderpo.sim` is one; the
gradient is its flattened (T, V) logit table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from holderpo.core import (
    DomainError,
    HolderOrder,
    LogRatioSequence,
    RatioSequence,
    _column,
    holder_grid,
    holder_mean_masked,
    holder_rows,
)

DEGENERATE_STD = 1e-8

CLIPPING_REGIMES = ("none", "token", "sequence")


@dataclass(frozen=True)
class ClipConfig:
    """PPO-style clipping half-width."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError("epsilon must lie in (0, 1)")

    @property
    def low(self) -> float:
        return 1.0 - self.epsilon

    @property
    def high(self) -> float:
        return 1.0 + self.epsilon


@dataclass(frozen=True)
class RolloutRecord:
    """One sampled sequence with log-probabilities under both policies."""

    token_ids: np.ndarray
    old_logprobs: np.ndarray
    new_logprobs: np.ndarray
    reward: float
    mask: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.token_ids, dtype=np.int64)
        old = np.asarray(self.old_logprobs, dtype=np.float64)
        new = np.asarray(self.new_logprobs, dtype=np.float64)
        mask = np.asarray(self.mask, dtype=bool)
        if not (ids.shape == old.shape == new.shape == mask.shape):
            raise DomainError("token_ids, logprobs, and mask must share one length")
        if np.any(old[mask] > 0.0) or np.any(new[mask] > 0.0):
            raise DomainError("log-probabilities must be <= 0")
        if not mask.any():
            raise DomainError("rollout must have at least one valid token")
        for name, value in (
            ("token_ids", ids),
            ("old_logprobs", old),
            ("new_logprobs", new),
            ("mask", mask),
        ):
            object.__setattr__(self, name, value)

    def log_ratio_sequence(self) -> LogRatioSequence:
        return LogRatioSequence(self.new_logprobs - self.old_logprobs, self.mask)

    def ratio_sequence(self) -> RatioSequence:
        return self.log_ratio_sequence().to_ratio_sequence()


@dataclass
class GroupBatch:
    """A group of G rollouts sharing one prompt, with normalized advantages."""

    rollouts: list[RolloutRecord]
    advantages: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if len(self.rollouts) < 2:
            raise DomainError("a group needs G >= 2 rollouts")
        if self.advantages is None:
            self.advantages = advantage_estimates(
                np.array([r.reward for r in self.rollouts])
            )
        self.advantages = np.asarray(self.advantages, dtype=np.float64)
        if self.advantages.shape != (len(self.rollouts),):
            raise DomainError("advantages must have one entry per rollout")

    @property
    def group_size(self) -> int:
        return len(self.rollouts)


@dataclass(frozen=True)
class GradientEstimate:
    """A flat gradient over policy parameters plus the clipped share."""

    vector: np.ndarray
    clip_fraction: float

    def __post_init__(self):
        if not 0.0 <= self.clip_fraction <= 1.0:
            raise DomainError("clip_fraction must lie in [0, 1]")
        object.__setattr__(self, "vector", np.asarray(self.vector, dtype=np.float64))


def group_advantages(rewards, group_size: int) -> np.ndarray:
    """Group-normalized advantages (reward - mean) / population std, for
    consecutive groups of `group_size` rewards.

    Degenerate groups (std below 1e-8) yield all-zero advantages: a
    uniform-reward group carries no relative signal.
    """
    r = np.asarray(rewards, dtype=np.float64).reshape(-1, group_size)
    std = r.std(axis=1, keepdims=True)
    degenerate = std < DEGENERATE_STD
    adv = (r - r.mean(axis=1, keepdims=True)) / np.where(degenerate, 1.0, std)
    return np.where(degenerate, 0.0, adv).ravel()


def advantage_estimates(rewards) -> np.ndarray:
    """Advantages of one group of G >= 2 rewards (see group_advantages)."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.ndim != 1 or r.size < 2:
        raise DomainError("advantage estimation needs G >= 2 rewards")
    return group_advantages(r, r.size)


@dataclass(frozen=True)
class RolloutBatch:
    """N rollouts as (N, T) arrays; rows k*G .. k*G + G - 1 form group k.

    Checked once per batch, under the conditions RolloutRecord and
    LogRatioSequence check per rollout: log-probabilities <= 0 and finite
    log-ratios at valid positions, and at least one valid position per row.
    ``log_ratios`` is new - old at valid positions and 0 elsewhere.
    """

    token_ids: np.ndarray
    old_logprobs: np.ndarray
    new_logprobs: np.ndarray
    mask: np.ndarray
    rewards: np.ndarray
    advantages: np.ndarray
    group_size: int
    log_ratios: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ids = np.asarray(self.token_ids, dtype=np.int64)
        old = np.asarray(self.old_logprobs, dtype=np.float64)
        new = np.asarray(self.new_logprobs, dtype=np.float64)
        mask = np.asarray(self.mask, dtype=bool)
        rewards = np.asarray(self.rewards, dtype=np.float64)
        advantages = np.asarray(self.advantages, dtype=np.float64)
        if ids.ndim != 2 or not (ids.shape == old.shape == new.shape == mask.shape):
            raise DomainError(
                "token_ids, logprobs and mask must share one (N, T) shape"
            )
        rows = ids.shape[0]
        if self.group_size < 2:
            raise DomainError("a group needs G >= 2 rollouts")
        if rows == 0 or rows % self.group_size:
            raise DomainError("rows must form whole groups of G rollouts")
        if rewards.shape != (rows,) or advantages.shape != (rows,):
            raise DomainError("rewards and advantages must have one entry per rollout")
        if not mask.any(axis=1).all():
            raise DomainError("rollout must have at least one valid token")
        if np.maximum(old, new)[mask].max() > 0.0:
            raise DomainError("log-probabilities must be <= 0")
        log_ratios = np.where(mask, new - old, 0.0)
        if not np.isfinite(log_ratios).all():
            raise DomainError("valid log_ratios must be finite")
        for name, value in (
            ("token_ids", ids),
            ("old_logprobs", old),
            ("new_logprobs", new),
            ("mask", mask),
            ("rewards", rewards),
            ("advantages", advantages),
            ("log_ratios", log_ratios),
        ):
            object.__setattr__(self, name, value)

    @classmethod
    def from_groups(cls, groups: Sequence[GroupBatch]) -> "RolloutBatch":
        """Pack groups of one size G into a batch; shorter rollouts are padded
        with masked-out positions."""
        if len(groups) == 0:
            raise DomainError("minibatch must contain at least one group")
        size = groups[0].group_size
        if any(g.group_size != size for g in groups):
            raise DomainError("groups in one batch must share a group size")
        rollouts = [r for g in groups for r in g.rollouts]
        length = max(r.token_ids.size for r in rollouts)

        def column(name, fill, dtype):
            out = np.full((len(rollouts), length), fill, dtype=dtype)
            for row, rollout in zip(out, rollouts):
                values = getattr(rollout, name)
                row[: values.size] = values
            return out

        return cls(
            token_ids=column("token_ids", 0, np.int64),
            old_logprobs=column("old_logprobs", 0.0, np.float64),
            new_logprobs=column("new_logprobs", 0.0, np.float64),
            mask=column("mask", False, bool),
            rewards=np.array([r.reward for r in rollouts]),
            advantages=np.concatenate([g.advantages for g in groups]),
            group_size=size,
        )

    def to_groups(self) -> list[GroupBatch]:
        """One GroupBatch per group, advantages carried over."""
        rollouts = [
            RolloutRecord(ids, old, new, float(reward), mask)
            for ids, old, new, reward, mask in zip(
                self.token_ids, self.old_logprobs, self.new_logprobs,
                self.rewards, self.mask,
            )
        ]
        size = self.group_size
        return [
            GroupBatch(rollouts[k : k + size], advantages=self.advantages[k : k + size])
            for k in range(0, len(rollouts), size)
        ]

    def select_groups(self, groups) -> "RolloutBatch":
        """The batch made of the given groups, in the given order."""
        size = self.group_size
        rows = (np.asarray(groups)[:, None] * size + np.arange(size)).ravel()
        return replace(
            self,
            token_ids=self.token_ids[rows],
            old_logprobs=self.old_logprobs[rows],
            new_logprobs=self.new_logprobs[rows],
            mask=self.mask[rows],
            rewards=self.rewards[rows],
            advantages=self.advantages[rows],
        )

    def ratio_envelope(self, runs: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """(max, min) of log r over the valid tokens of each run, the rows
        being `runs` equal consecutive blocks; two (runs,) arrays."""
        logs = self.log_ratios.reshape(runs, -1)
        mask = self.mask.reshape(runs, -1)
        return (
            np.where(mask, logs, -np.inf).max(axis=1),
            np.where(mask, logs, np.inf).min(axis=1),
        )


def group_means(values: np.ndarray, group_size: int) -> np.ndarray:
    """Per-group means of per-rollout values (N, ...) -> (N / G, ...).

    Each group is summed as a left fold over its rows, then divided by G,
    the order of a per-rollout loop: the objective is a cancellation
    (sum_i A_i = 0 per group), and the benchmark's recorded trajectories
    depend on this order.
    """
    grouped = values.reshape(-1, group_size, *values.shape[1:])
    total = grouped[:, 0].copy()
    for i in range(1, group_size):
        total += grouped[:, i]
    return total / group_size


def minibatch_mean(values: np.ndarray, group_size: int, runs: int = 1) -> np.ndarray:
    """Mean over groups of per-group means, as a left fold over groups, for
    each of `runs` equal consecutive blocks of rows: (N, ...) -> (runs, ...)."""
    per_group = group_means(values, group_size)
    per_group = per_group.reshape(runs, -1, *per_group.shape[1:])
    total = per_group[:, 0].copy()
    for k in range(1, per_group.shape[1]):
        total += per_group[:, k]
    return total / per_group.shape[1]


@dataclass(frozen=True)
class BatchTerms:
    """Everything one update needs from a batch at one exponent and regime.

    Rollout i adds ``row_coef[i] * (row_scale[i] * (token_weights[i] . g_i))``
    to its group's gradient, g_i being its per-token score vectors: A_i rho_i
    W_i(p) when unclipped or under the sequence gate (A_i zeroed where the
    gate closes), and A_i times the per-token factor I_t h^{1-p} r_t^p / n
    (row_scale 1) under token clipping.

    The batch's rows may stack S independent runs as S equal consecutive
    blocks; the aggregates are then per run, with shape (S,).
    """

    token_weights: np.ndarray  # (N, T) W_i(p), or the token-clip factor
    row_scale: np.ndarray  # (N,) rho_i, or 1 under token clip
    row_coef: np.ndarray  # (N,) A_i, 0 where the sequence gate closed
    group_objectives: np.ndarray  # (N / G,) surrogate objective per group
    clip_fraction: np.ndarray  # (S,)
    v_of_p: np.ndarray  # (S,) mean of A^2 rho^2
    log_ratio_max: np.ndarray  # (S,)
    log_ratio_min: np.ndarray  # (S,)

    @property
    def runs(self) -> int:
        return self.v_of_p.size

    @property
    def objective(self) -> np.ndarray:
        """(S,) means of each run's per-group surrogate objectives."""
        return self.group_objectives.reshape(self.runs, -1).mean(axis=1)


def _token_clip_factors(logs, mask, adv, order: HolderOrder, clip: ClipConfig):
    """Per-token factors I_t h^{1-p} r_t^p / n, the clipped means h (C for a
    positive advantage, D for a negative one) and the clipped-token mask."""
    ratios = np.exp(logs)
    band = np.minimum(np.maximum(ratios, clip.low), clip.high)
    positive = (adv > 0.0)[:, None]
    adjusted = np.where(positive, np.minimum(ratios, band), np.maximum(ratios, band))
    h, _ = holder_rows(np.log(adjusted), mask, order)
    kept = mask & np.where(positive, ratios <= clip.high, ratios >= clip.low)
    clipped = mask & ~kept & (adv != 0.0)[:, None]
    n = mask.sum(axis=1)
    # h^{1-p}/n * r^p in log-space to survive large |p|
    log_terms = ((1.0 - order.p) * np.log(h) - np.log(n))[:, None] + _column(order.p) * logs
    return np.where(kept, np.exp(log_terms), 0.0), h, clipped


def batch_terms(
    batch: RolloutBatch,
    order: HolderOrder,
    regime: str,
    clip: ClipConfig | None = None,
    guard: Callable[[RolloutBatch, np.ndarray], None] | None = None,
    runs: int = 1,
) -> BatchTerms:
    """rho, W or the token-clip factors, the gated advantages, the objective,
    clip fraction, V(p) and log-ratio envelopes of a batch under one
    clipping regime ("none", "token" or "sequence"), with rho computed once
    per rollout.  ``order.p`` is one exponent or an (N,) array of one per
    row.  The rows are `runs` equal consecutive blocks of whole groups, one
    per run, and each aggregate is taken per run.

    The sequence gate zeroes a rollout whose aggregated ratio has already
    left the clip band in the direction its advantage favors; token
    clipping zeroes tokens clipped against the advantage direction and uses
    the clipped power mean, not rho, as the outer factor.  ``guard(batch,
    rho)``, if given, runs as soon as rho is known and may raise.
    """
    if regime not in CLIPPING_REGIMES:
        raise DomainError(f"clipping regime must be one of {CLIPPING_REGIMES}")
    if regime != "none" and clip is None:
        raise DomainError(f"the {regime!r} regime needs a ClipConfig")
    logs, mask, adv = batch.log_ratios, batch.mask, batch.advantages
    if runs < 1 or adv.size % (runs * batch.group_size):
        raise DomainError(f"rows must form {runs} equal blocks of whole groups")
    rho, weights = holder_rows(logs, mask, order)
    if guard is not None:
        guard(batch, rho)
    if regime == "token":
        token_weights, h, clipped = _token_clip_factors(logs, mask, adv, order, clip)
        row_scale, row_coef = np.ones_like(rho), adv
        objectives = h * adv
        clip_fraction = (
            clipped.reshape(runs, -1).sum(axis=1) / mask.reshape(runs, -1).sum(axis=1)
        )
    else:
        token_weights, row_scale = weights, rho
        objectives = rho * adv
        row_coef, clip_fraction = adv, np.zeros(runs)
        if regime == "sequence":
            gated = ((adv > 0.0) & (rho > clip.high)) | ((adv < 0.0) & (rho < clip.low))
            band = np.minimum(np.maximum(rho, clip.low), clip.high)
            objectives = np.minimum(objectives, band * adv)
            row_coef = np.where(gated, 0.0, adv)
            per_run = gated.reshape(runs, -1)
            clip_fraction = per_run.sum(axis=1) / per_run.shape[1]
    log_max, log_min = batch.ratio_envelope(runs)
    return BatchTerms(
        token_weights=token_weights,
        row_scale=row_scale,
        row_coef=row_coef,
        group_objectives=group_means(objectives, batch.group_size),
        clip_fraction=clip_fraction,
        v_of_p=(adv**2 * rho**2).reshape(runs, -1).mean(axis=1),
        log_ratio_max=log_max,
        log_ratio_min=log_min,
    )


def _group_terms(batch: GroupBatch, order: HolderOrder, regime: str,
                 clip: ClipConfig | None = None) -> BatchTerms:
    return batch_terms(RolloutBatch.from_groups([batch]), order, regime, clip)


def surrogate_unclipped(batch: GroupBatch, order: HolderOrder) -> float:
    """(1/G) sum_i rho_i * A_i."""
    return _group_terms(batch, order, "none").objective.item()


def surrogate_seq_clip(batch: GroupBatch, order: HolderOrder, clip: ClipConfig) -> float:
    """Pessimistic sequence-level objective min(rho A, clip(rho) A)."""
    return _group_terms(batch, order, "sequence", clip).objective.item()


def surrogate_token_clip(
    batch: GroupBatch, order: HolderOrder, clip: ClipConfig
) -> float:
    """Token-level clipped objective: power means of per-token clipped ratios."""
    return _group_terms(batch, order, "token", clip).objective.item()


def loss_holder_po(
    logs: LogRatioSequence, advantage: float, order: HolderOrder, clip: ClipConfig
) -> float:
    """Per-sequence loss to minimize: max(-A rho, -A clip(rho))."""
    rho = holder_mean_masked(logs, order)
    clipped = min(max(rho, clip.low), clip.high)
    return max(-advantage * rho, -advantage * clipped)


def grad_rho(
    ratios: RatioSequence, per_token_score_grads: np.ndarray, order: HolderOrder
) -> np.ndarray:
    """Gradient of the aggregated ratio: rho * sum_t W_t g_t, with rho and W
    from one kernel row.  It equals rho^{1-p}/n sum_t r_t^p g_t, the form
    verify's ``grad_rho_two_forms`` and the brute-force test oracles use."""
    grads = np.asarray(per_token_score_grads, dtype=np.float64)
    if grads.ndim != 2 or grads.shape[0] != len(ratios):
        raise DomainError("score gradient matrix must be n x d")
    (rho,), (weights,) = holder_grid(ratios.log_ratios, order)
    return rho * (weights @ grads)


def policy_gradient(policy, batch: RolloutBatch, terms: BatchTerms) -> np.ndarray:
    """Each run's minibatch gradient as a (T, V) table, stacked to
    (S, T, V), built per position block: token t of rollout i adds
    coef_i * (scale_i * (w_it * s_it)) to row t, s_it being its score block.
    The products and the group sums run in the order of a per-rollout loop
    over dense score vectors and match it bit for bit."""
    per_rollout = policy.score_blocks(batch.token_ids)
    per_rollout *= terms.token_weights[:, :, None]
    per_rollout *= terms.row_scale[:, None, None]
    per_rollout *= terms.row_coef[:, None, None]
    return minibatch_mean(per_rollout, batch.group_size, terms.runs)


def _estimate(minibatch: Sequence[GroupBatch], policy, order: HolderOrder,
              regime: str, clip: ClipConfig | None = None) -> GradientEstimate:
    batch = RolloutBatch.from_groups(minibatch)
    terms = batch_terms(batch, order, regime, clip)
    return GradientEstimate(
        policy_gradient(policy, batch, terms).ravel(), terms.clip_fraction.item()
    )


def grad_estimator_unclipped(
    minibatch: Sequence[GroupBatch], policy, order: HolderOrder
) -> GradientEstimate:
    """Minibatch average of per-group averages of A_i * grad rho_i.  All
    groups must share one size G."""
    return _estimate(minibatch, policy, order, "none")


def grad_estimator_seq_clip(
    minibatch: Sequence[GroupBatch], policy, order: HolderOrder, clip: ClipConfig
) -> GradientEstimate:
    """Unclipped per-sequence terms gated by the sequence indicator: zero when
    the aggregated ratio has already left the clip band in the favored
    direction.  All groups must share one size G."""
    return _estimate(minibatch, policy, order, "sequence", clip)


def grad_estimator_token_clip(
    minibatch: Sequence[GroupBatch], policy, order: HolderOrder, clip: ClipConfig
) -> GradientEstimate:
    """Per-token indicators zero out tokens clipped against the advantage
    direction; the outer factor uses the clipped power mean, not rho.  All
    groups must share one size G."""
    return _estimate(minibatch, policy, order, "token", clip)


def variance_bound_term(batches: Sequence[GroupBatch], order: HolderOrder) -> float:
    """Empirical mean of A^2 rho^2 over every rollout in the sample.  All
    groups must share one size G."""
    if len(batches) == 0:
        raise DomainError("sample must contain at least one group")
    return batch_terms(RolloutBatch.from_groups(batches), order, "none").v_of_p.item()


def second_moment_orthogonal(
    advantage: float,
    grad_norm_bound: float,
    ratios: RatioSequence,
    order: HolderOrder,
) -> float | np.ndarray:
    """Second moment under exact token-gradient orthogonality:
    A^2 M^2 rho^2 * HHI(W).  An array ``order.p`` gives one value per
    exponent, from one ``holder_rows`` call."""
    if grad_norm_bound <= 0.0:
        raise DomainError("grad_norm_bound must be positive")
    rho, weights = holder_grid(ratios.log_ratios, order)
    concentration = (weights**2).sum(axis=1)
    moment = advantage**2 * grad_norm_bound**2 * rho**2 * concentration
    return moment if isinstance(order.p, np.ndarray) else float(moment[0])
