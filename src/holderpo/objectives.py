"""Advantage estimation and the three objective / gradient-estimator variants:
unclipped, token-level clipped, and sequence-level clipped.

All of them are computed by one batched kernel, :func:`batch_terms`, over a
:class:`RolloutBatch` of (rollouts x tokens) arrays, the one rollout
container: a group is a batch with N = G.  The per-group functions
(``surrogate_*`` take one group, ``grad_estimator_*`` and
``variance_bound_term`` a sequence of groups, joined by
``RolloutBatch.concat``) call the kernel on them.

The KL term is deliberately absent.  Gradient estimators take a
``sim.PolicyParams``, one tabular policy or a stack of them: the score
vector of token t is zero outside logit row t, and ``scores_at`` returns
that row of it, (rows, T, V), for chosen rows of a batch, each under its
own policy of the stack, at the index ``score_index`` makes of the flat
positions ``PolicyParams.positions`` makes of the batch's ids once.
The gradient is the flattened (T, V) logit table, one per policy of a
stack.

What no update changes of a minibatch, its live groups, their score index
and, under token clipping, its rows with A != 0 and the masks the kernel
reads for them, is one ``MinibatchPlan`` (``minibatch_plan``): training
builds it once per round for each minibatch it takes, and the per-group
estimators once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from holderpo.core import (
    DomainError,
    HolderOrder,
    RatioSequence,
    _one_row,
    holder_grid,
    holder_rows,
)

if TYPE_CHECKING:
    from holderpo.sim import PolicyParams

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
    r = np.asarray(rewards, dtype=np.float64)
    if group_size < 2 or r.size == 0 or r.size % group_size:
        raise DomainError(f"{r.size} rewards do not form whole groups of G = {group_size} >= 2")
    r = r.reshape(-1, group_size)
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
    """N rollouts as (N, T) arrays; rows k*G .. k*G + G - 1 form group k, and
    a group is a batch with N = G.

    Arrays from outside are checked at construction: token ids >= 0,
    log-probabilities <= 0 and finite log-ratios at valid positions, and at
    least one valid position per row; ids below the vocabulary size are
    checked when a ``sim.PolicyParams`` reads or scores them.
    The sampler's batches and those derived from a checked one
    (``select_groups``, ``concat`` and a logprob refresh) are not checked.
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
        if ids.min() < 0:
            raise DomainError("token_ids must be >= 0")
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

    @staticmethod
    def _trusted(**arrays) -> "RolloutBatch":
        """A batch of every field, log_ratios included, from arrays valid by
        construction (the sampler's, a derived batch's): no checks run."""
        batch = object.__new__(RolloutBatch)
        batch.__dict__.update(arrays)
        return batch

    def _derive(self, **arrays) -> "RolloutBatch":
        """This batch with the given arrays in place of its own, trusted as
        coming from checked arrays.  Selected rows come from a checked batch
        and a log-softmax of finite logits is <= 0; a non-finite valid
        log-ratio still raises, in ``holder_rows``."""
        return RolloutBatch._trusted(**{**vars(self), **arrays})

    @staticmethod
    def concat(batches: Sequence["RolloutBatch"]) -> "RolloutBatch":
        """The batches of one group size G joined in order; shorter rows are
        padded with masked-out positions.  A lone batch is returned as it is."""
        if len(batches) == 0:
            raise DomainError("minibatch must contain at least one group")
        size = batches[0].group_size
        if any(b.group_size != size for b in batches):
            raise DomainError("groups in one batch must share a group size")
        if len(batches) == 1:
            return batches[0]
        length = max(b.mask.shape[1] for b in batches)

        def widened(value):
            short = length - value.shape[1]
            return np.pad(value, ((0, 0), (0, short))) if short else value

        def join(name):
            return np.concatenate([widened(getattr(b, name)) for b in batches])

        return batches[0]._derive(
            **{name: join(name) for name in
               ("token_ids", "old_logprobs", "new_logprobs", "mask", "log_ratios")},
            rewards=np.concatenate([b.rewards for b in batches]),
            advantages=np.concatenate([b.advantages for b in batches]),
        )

    def select_groups(self, groups) -> "RolloutBatch":
        """The batch made of the given groups, in the given order: an index
        array of groups, whose rows are gathered, or a slice of groups of step
        1, a slice of rows, whose arrays are views of this batch's."""
        size = self.group_size
        if isinstance(groups, slice):
            start, stop, step = groups.indices(self.advantages.size // size)
            if step != 1:
                raise DomainError(f"a slice of groups must have step 1, not {step}")
            rows = slice(start * size, stop * size)
        else:
            rows = (np.asarray(groups)[:, None] * size + np.arange(size)).ravel()
        names = ("token_ids", "old_logprobs", "new_logprobs", "mask", "log_ratios",
                 "rewards", "advantages")
        return self._derive(**{name: getattr(self, name)[rows] for name in names})

    def ratio_envelope(self, runs: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """(max, min) of log r over the valid tokens of each run, the rows
        being `runs` equal consecutive blocks; two (runs,) arrays."""
        logs = self.log_ratios.reshape(runs, -1)
        mask = self.mask.reshape(runs, -1)
        return (
            np.where(mask, logs, -np.inf).max(axis=1),
            np.where(mask, logs, np.inf).min(axis=1),
        )


def _fold_mean(blocks: np.ndarray) -> np.ndarray:
    """Means over axis 1 of (K, M, ...) blocks: a left fold, then one divide
    by M.  ``np.add.accumulate`` adds in index order, so its last entry is
    the left fold bit for bit; ``np.sum`` may add pairwise."""
    return np.add.accumulate(blocks, axis=1)[:, -1] / blocks.shape[1]


def group_means(values: np.ndarray, group_size: int) -> np.ndarray:
    """Per-group means of per-rollout values (N, ...) -> (N / G, ...).

    Each group is summed as a left fold over its rows, then divided by G,
    the order of a per-rollout loop: the objective is a cancellation
    (sum_i A_i = 0 per group), and the benchmark's recorded trajectories
    depend on this order.
    """
    return _fold_mean(values.reshape(-1, group_size, *values.shape[1:]))


@dataclass(frozen=True)
class BatchTerms:
    """Everything one update needs from a batch at one exponent and regime.

    Rollout i adds ``row_coef[i] * (row_scale[i] * (token_weights[i] . g_i))``
    to its group's gradient, g_i being its per-token score vectors: A_i rho_i
    W_i(p) when unclipped or under the sequence gate (A_i zeroed where the
    gate closes), and A_i times the per-token factor I_t h^{1-p} r_t^p / n
    (row_scale 1) under token clipping, where a row with A_i = 0 has factor 0.

    The batch's rows may stack S independent runs as S equal consecutive
    blocks; the aggregates are then per run, with shape (S,).
    """

    token_weights: np.ndarray  # (N, T) W_i(p), or the token-clip factor (0 where A_i = 0)
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
        per_run = self.group_objectives.reshape(self.runs, -1)
        return per_run.sum(axis=1) / per_run.shape[1]


class MinibatchPlan:
    """The index work of a minibatch that depends on its rows and never on
    the policy, built by ``minibatch_plan`` once and read by every update
    that takes the minibatch.

    ``live`` (K,) marks the groups with any A != 0 and ``rows`` are their
    rows; ``policy_of`` and ``hot`` are ``PolicyParams.score_index`` of
    those rows.  ``token_rows`` is ``_token_rows`` of the batch under token
    clipping and None under the other regimes, which do not read it.  A
    plain class: a dataclass costs import time for nothing here."""

    __slots__ = ("live", "rows", "policy_of", "hot", "token_rows")

    def __init__(self, live, rows, policy_of, hot, token_rows):
        self.live, self.rows, self.policy_of, self.hot = live, rows, policy_of, hot
        self.token_rows = token_rows


def _token_rows(batch: RolloutBatch) -> tuple:
    """What token clipping reads of a batch's rows but never of its ratios:
    the L rows with A != 0, their mask rows, their signs (A > 0) as (L, 1),
    the (N + L, T) mask of the stacked ``holder_rows`` call and the log of
    each of the L rows' valid count."""
    mask, adv = batch.mask, batch.advantages
    rows = np.flatnonzero(adv != 0.0)
    row_mask = mask[rows]
    return (rows, row_mask, (adv[rows] > 0.0)[:, None],
            np.concatenate([mask, row_mask]), np.log(row_mask.sum(axis=1)))


def minibatch_plan(batch: RolloutBatch, positions: np.ndarray, policy: PolicyParams,
                   regime: str) -> MinibatchPlan:
    """The ``MinibatchPlan`` of a batch whose ids are at flat ``positions`` in
    `policy`'s table (``PolicyParams.positions``), for updates under
    `regime`; it holds for every policy of `policy`'s shape.

    A group is live if any of its advantages is nonzero.  A live group whose
    every coefficient is zero (every row gated) is scored, and its products
    are +-0, so no sum moves: the live set does not depend on the ratios."""
    live = (batch.advantages != 0.0).reshape(-1, batch.group_size).any(axis=1)
    rows = np.flatnonzero(np.repeat(live, batch.group_size))
    return MinibatchPlan(live, rows, *policy.score_index(positions, rows),
                         _token_rows(batch) if regime == "token" else None)


def _token_clip_factors(logs, adv, order: HolderOrder, clip: ClipConfig, token_rows):
    """rho of every row, and the per-token factors I_t h^{1-p} r_t^p / n, the
    clipped means h (C for a positive advantage, D for a negative one) and
    the clipped-token mask, from one ``holder_rows`` call; `token_rows` is
    ``_token_rows`` of the batch.

    The call stacks the N rows and, below them, the clipped rows of the L
    rows with A != 0: the log of min(r, 1 + eps) for a positive advantage
    and of max(r, 1 - eps) for a negative one, at the row's own exponent.
    That is min (max) of r and its band-clipped value, without the band.
    The kernel works row by row, so rho and h have the bits of two calls of
    their own, and the N rows still carry every row: a non-finite valid
    log-ratio raises DomainError.  A row with A = 0 gets factor 0, h = 0 and
    no clipped token: each of its products is multiplied by A = 0, so no
    sum moves (up to the sign of a zero)."""
    rows, row_mask, positive, stacked_mask, log_count = token_rows
    factors, h = np.zeros(logs.shape), np.zeros(adv.shape)
    clipped = np.zeros(logs.shape, dtype=bool)
    p = order.per_row(adv.size)
    row_logs, row_p = logs[rows], p[rows]
    ratios = np.exp(row_logs)
    adjusted = np.where(positive, np.minimum(ratios, clip.high), np.maximum(ratios, clip.low))
    kept = row_mask & (adjusted == ratios)  # the tokens clipping left as they were
    stacked = np.empty((adv.size + rows.size, logs.shape[1]))
    stacked[:adv.size] = logs
    with np.errstate(divide="ignore"):  # a ratio of 0 raises DomainError below
        np.log(adjusted, out=stacked[adv.size:])
    del ratios, adjusted  # freed before the kernel's temporaries: lower peak RSS
    both, _ = holder_rows(stacked, stacked_mask, HolderOrder(np.concatenate([p, row_p])))
    rho, h_rows = both[:adv.size], both[adv.size:]
    # h^{1-p}/n * r^p in log-space to survive large |p|
    log_terms = ((1.0 - row_p) * np.log(h_rows) - log_count)[:, None] + row_p[:, None] * row_logs
    factors[rows] = np.where(kept, np.exp(log_terms), 0.0)
    h[rows] = h_rows
    clipped[rows] = row_mask & ~kept
    return rho, factors, h, clipped


def batch_terms(
    batch: RolloutBatch,
    order: HolderOrder,
    regime: str,
    clip: ClipConfig | None = None,
    runs: int = 1,
    plan: MinibatchPlan | None = None,
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
    the clipped power mean, not rho, as the outer factor.  Under token
    clipping rho and the clipped means come from one ``holder_rows`` call
    (``_token_clip_factors``), otherwise rho and W do.  A non-finite valid
    log-ratio raises DomainError, from ``holder_rows``.  Token clipping
    reads its rows from `plan`, the batch's ``minibatch_plan`` for this
    regime, and builds them when it gets no plan.
    """
    if regime not in CLIPPING_REGIMES:
        raise DomainError(f"clipping regime must be one of {CLIPPING_REGIMES}")
    if regime != "none" and clip is None:
        raise DomainError(f"the {regime!r} regime needs a ClipConfig")
    logs, mask, adv = batch.log_ratios, batch.mask, batch.advantages
    if runs < 1 or adv.size % (runs * batch.group_size):
        raise DomainError(f"rows must form {runs} equal blocks of whole groups")
    if regime == "token":
        token_rows = _token_rows(batch) if plan is None else plan.token_rows
        rho, token_weights, h, clipped = _token_clip_factors(logs, adv, order, clip, token_rows)
        row_scale, row_coef = np.ones_like(rho), adv
        objectives = h * adv
        clip_fraction = (
            clipped.reshape(runs, -1).sum(axis=1) / mask.reshape(runs, -1).sum(axis=1)
        )
    else:
        rho, token_weights = holder_rows(logs, mask, order)
        row_scale, objectives = rho, rho * adv
        row_coef, clip_fraction = adv, np.zeros(runs)
        if regime == "sequence":
            gated = ((adv > 0.0) & (rho > clip.high)) | ((adv < 0.0) & (rho < clip.low))
            band = np.minimum(np.maximum(rho, clip.low), clip.high)
            objectives = np.minimum(objectives, band * adv)
            row_coef = np.where(gated, 0.0, adv)
            per_run = gated.reshape(runs, -1)
            clip_fraction = per_run.sum(axis=1) / per_run.shape[1]
    log_max, log_min = batch.ratio_envelope(runs)
    squares = (adv**2 * rho**2).reshape(runs, -1)
    return BatchTerms(
        token_weights=token_weights,
        row_scale=row_scale,
        row_coef=row_coef,
        group_objectives=group_means(objectives, batch.group_size),
        clip_fraction=clip_fraction,
        v_of_p=squares.sum(axis=1) / squares.shape[1],
        log_ratio_max=log_max,
        log_ratio_min=log_min,
    )


def surrogate_unclipped(batch: RolloutBatch, order: HolderOrder) -> float:
    """(1/G) sum_i rho_i * A_i over one group."""
    return batch_terms(batch, order, "none").objective.item()


def surrogate_seq_clip(batch: RolloutBatch, order: HolderOrder, clip: ClipConfig) -> float:
    """Pessimistic sequence-level objective min(rho A, clip(rho) A)."""
    return batch_terms(batch, order, "sequence", clip).objective.item()


def surrogate_token_clip(
    batch: RolloutBatch, order: HolderOrder, clip: ClipConfig
) -> float:
    """Token-level clipped objective: power means of per-token clipped ratios."""
    return batch_terms(batch, order, "token", clip).objective.item()


def grad_rho(
    ratios: RatioSequence, per_token_score_grads: np.ndarray, order: HolderOrder
) -> np.ndarray:
    """Gradient of the aggregated ratio: rho * sum_t W_t g_t, with rho and W
    from one kernel row.  It equals rho^{1-p}/n sum_t r_t^p g_t, the form
    verify's ``grad_rho_two_forms`` and the brute-force test oracles use."""
    grads = np.asarray(per_token_score_grads, dtype=np.float64)
    if grads.ndim != 2 or grads.shape[0] != len(ratios):
        raise DomainError("score gradient matrix must be n x d")
    rho, weights = _one_row(ratios.log_ratios, order)
    return rho * (weights @ grads)


def policy_gradient(
    policy: PolicyParams, batch: RolloutBatch, terms: BatchTerms, plan: MinibatchPlan
) -> np.ndarray:
    """Each run's minibatch gradient as a (T, V) table, stacked to
    (S, T, V), built per position block: token t of rollout i adds
    coef_i * (scale_i * (w_it * s_it)) to row t, s_it being its score block,
    scored at the index of the batch's ``minibatch_plan`` (its ids, checked
    when they became positions).
    The products and the group sums run in the order of a per-rollout loop
    over dense score vectors and match it bit for bit.  A scale of all 1.0
    (token clipping) is not multiplied in: x * 1.0 = x.

    Each group's rows, then each run's groups, are summed by one
    ``np.add.reduce`` over axis 1 of (rows, G, T*V) and (S, K/S, T*V).  With
    T*V >= 2 innermost, numpy adds a non-innermost axis in index order, one
    whole slice at a time: the left fold of ``group_means``, bit for bit.
    Reducing along the innermost axis would sum pairwise once G >= 8.

    A group whose advantages are all zero (equal rewards) is skipped and
    its mean left at zero: each of its products would be +-0, its factors
    being finite, and x + 0 = x, so every other sum rounds as before and the
    gradient is the dense loop's, up to the sign of a zero.  A live group
    whose every row is gated is scored, its products being +-0 alike.  Only
    the plan's live rows are scored and multiplied."""
    size, width, live, rows = batch.group_size, policy.param_dim, plan.live, plan.rows
    per_rollout = policy.scores_at(plan.policy_of, plan.hot)
    per_rollout *= terms.token_weights[rows, :, None]
    if (terms.row_scale != 1.0).any():
        per_rollout *= terms.row_scale[rows, None, None]
    per_rollout *= terms.row_coef[rows, None, None]
    per_group = np.zeros((live.size, width))
    per_group[live] = np.add.reduce(per_rollout.reshape(-1, size, width), axis=1) / size
    per_run = per_group.reshape(terms.runs, -1, width)
    total = np.add.reduce(per_run, axis=1) / per_run.shape[1]
    return total.reshape(-1, policy.length, policy.vocab)


def _estimate(minibatch: Sequence[RolloutBatch], policy: PolicyParams, order: HolderOrder,
              regime: str, clip: ClipConfig | None = None) -> GradientEstimate:
    batch = RolloutBatch.concat(minibatch)
    plan = minibatch_plan(batch, policy.positions(batch.token_ids), policy, regime)
    terms = batch_terms(batch, order, regime, clip, plan=plan)
    return GradientEstimate(
        policy_gradient(policy, batch, terms, plan).ravel(), terms.clip_fraction.item()
    )


def grad_estimator_unclipped(
    minibatch: Sequence[RolloutBatch], policy: PolicyParams, order: HolderOrder
) -> GradientEstimate:
    """Minibatch average of per-group averages of A_i * grad rho_i.  All
    groups must share one size G."""
    return _estimate(minibatch, policy, order, "none")


def grad_estimator_seq_clip(
    minibatch: Sequence[RolloutBatch], policy: PolicyParams, order: HolderOrder,
    clip: ClipConfig,
) -> GradientEstimate:
    """Unclipped per-sequence terms gated by the sequence indicator: zero when
    the aggregated ratio has already left the clip band in the favored
    direction.  All groups must share one size G."""
    return _estimate(minibatch, policy, order, "sequence", clip)


def grad_estimator_token_clip(
    minibatch: Sequence[RolloutBatch], policy: PolicyParams, order: HolderOrder,
    clip: ClipConfig,
) -> GradientEstimate:
    """Per-token indicators zero out tokens clipped against the advantage
    direction; the outer factor uses the clipped power mean, not rho.  All
    groups must share one size G."""
    return _estimate(minibatch, policy, order, "token", clip)


def variance_bound_term(batches: Sequence[RolloutBatch], order: HolderOrder) -> float:
    """Empirical mean of A^2 rho^2 over every rollout in the sample.  All
    groups must share one size G."""
    return batch_terms(RolloutBatch.concat(batches), order, "none").v_of_p.item()


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
