"""Desk-scale training loop: a position-conditioned tabular softmax policy,
synthetic sparse/dense reward tasks, and group-relative updates under the
configured clipping regime.

The policy has an independent logit row per position, so score gradients
are exact and cheap, and gradients at distinct positions live in disjoint
parameter blocks.  ``PolicyParams`` is the one policy type, one (T, V) logit
table or an (S, T, V) stack of them, and the one owner of token ids: it
draws them from uniforms (``sample``) and turns them into flat positions in
its log-prob table (``positions``), the one index, which checks every id
against [0, V); log-probabilities and score blocks are read at positions.
Sampling uses one counter-derived RNG substream per rollout, so runs are
bit-reproducible regardless of evaluation order; ``holderpo.streams``
derives a block of rounds' substreams per call, by PCG64 state steps.

Each update runs as one batched path over (rollouts x tokens) arrays: a
round's rollouts are one RolloutBatch, valid as sampled, so unchecked, and
its ids become positions once, by the sampler; a minibatch is the same
groups of each run's block of the round, with the same rows of the
positions, and ``refresh_logprobs`` re-reads it at those positions under the
current policy, both derived without re-checking; its token ratios are
checked against the divergence band; and one ``batch_terms`` call yields
rho, the weights, the gates, the objective and the telemetry.  What no
update changes of a minibatch (its live groups, their score index, the
token-clip rows and masks) is its ``objectives.MinibatchPlan``, built once
when the minibatch is selected.
The per-group API (``sample_group``, ``refresh_logprobs``) works on the same
container, a group being a batch with N = G.
``policy_gradient`` assembles the gradient per position block, (T, V), never
as the dense (T, T*V) score matrix, and skips the groups whose advantages
are all zero (equal rewards): their products are exactly +-0 and adding 0
changes no sum, so no bit of the gradient moves.  The ``grad_estimator_*``
functions call the same code.  ``train_many`` stacks runs that differ only
in seed and schedule along the rollout axis, their policies as one stacked
``PolicyParams``, and ``train`` is its one-run case.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from holderpo.analysis import UpdateMetrics
from holderpo.core import DomainError, HolderOrder
from holderpo.objectives import (
    CLIPPING_REGIMES,
    ClipConfig,
    RolloutBatch,
    batch_terms,
    group_advantages,
    minibatch_plan,
    policy_gradient,
)
from holderpo.schedule import ScheduleSpec, p_at
from holderpo.streams import block_uniforms as _block_uniforms

RHO_DIVERGENCE_LIMIT = 1e6
# Uniforms per seed drawn at once, in whole rounds (at least one): 96 KiB, under
# glibc's 128 KiB mmap threshold; 128 KiB blocks raised the sweep's peak RSS 0.3 MB.
_UNIFORMS_PER_BLOCK = 12288


class DivergenceError(RuntimeError):
    """A token ratio left the divergence band; ``rollout`` is the row of the
    run's own minibatch that left it first."""

    def __init__(self, message: str, rollout: int):
        super().__init__(message)
        self.rollout = rollout


@dataclass(frozen=True)
class PolicyParams:
    """Position-conditioned tabular softmax policy: `logits` of shape (T, V),
    row t parameterizing the softmax over the vocabulary at position t, or an
    (S, T, V) stack of S such policies.  A batch read against a stack has S
    equal consecutive blocks of rows, block s belonging to policy s.

    ``log_probs`` is computed once, by one log-softmax at construction, which
    also checks that the logits are finite; a stack reduces row by row, so
    each of its tables is its policy's own, bit for bit."""

    logits: np.ndarray
    log_probs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.logits, dtype=np.float64)
        if arr.ndim not in (2, 3):
            raise DomainError("logits must be a (T, V) table or an (S, T, V) stack")
        if not np.isfinite(arr).all():
            raise DomainError("logits must be finite")
        shifted = arr - arr.max(axis=-1, keepdims=True)
        object.__setattr__(self, "logits", arr)
        object.__setattr__(self, "log_probs",
                           shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True)))

    @staticmethod
    def uniform(length: int, vocab: int) -> "PolicyParams":
        return PolicyParams(np.zeros((length, vocab)))

    @property
    def runs(self) -> int:
        """Policies in the stack; 1 for a single (T, V) policy."""
        return self.logits.shape[0] if self.logits.ndim == 3 else 1

    @property
    def length(self) -> int:
        return self.logits.shape[-2]

    @property
    def vocab(self) -> int:
        return self.logits.shape[-1]

    @property
    def param_dim(self) -> int:
        """Parameters of one policy, T * V."""
        return self.length * self.vocab

    def _blocks(self, batch: np.ndarray) -> np.ndarray:
        """A (..., T) batch as (S, n, T), block s read by policy s; DomainError
        unless the last axis is T and S divides the rows."""
        if batch.shape[-1:] != (self.length,):
            raise DomainError(f"a batch of shape {batch.shape} is not (..., {self.length})")
        rows = math.prod(batch.shape[:-1])
        if rows % self.runs:
            raise DomainError(f"{rows} batch rows do not split into {self.runs} equal blocks")
        return batch.reshape(self.runs, rows // self.runs, self.length)

    def _tables(self) -> np.ndarray:
        """log_probs as an (S, T, V) view."""
        return self.log_probs.reshape(-1, *self.log_probs.shape[-2:])

    def positions(self, token_ids: np.ndarray) -> np.ndarray:
        """Flat positions of (..., T) ids in ``log_probs``, s*T*V + t*V + id
        for the id at position t of a row of block s, the one checked index
        every read and score of ids goes through; an id outside [0, V), which
        indexing would wrap round, raises DomainError."""
        ids = np.asarray(token_ids)
        # one unsigned max in the ids' own byte order; an id below 0 reads as >= 2^63
        unsigned = ids.view(ids.dtype.str.replace("i", "u")) if ids.dtype.kind == "i" else ids
        if unsigned.max(initial=0) >= self.vocab:
            raise DomainError(f"token_ids must lie in [0, {self.vocab}), "
                              f"the vocabulary size {self.vocab}")
        # s*T*V + t*V at (s, 0, t): multiples of V in one arange
        starts = np.arange(0, self.logits.size, self.vocab).reshape(self.runs, 1, self.length)
        return np.add(self._blocks(ids), starts, dtype=np.intp).reshape(ids.shape)

    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)

    def sample(self, uniforms: np.ndarray) -> np.ndarray:
        """Ids for (..., T) uniforms, row block s from policy s: the id for u
        at position t counts the first V - 1 cumulative probabilities of row t
        below u, the inverse-CDF index searchsorted(cum, u) capped at V - 1."""
        u = np.asarray(uniforms)
        cum = np.cumsum(np.exp(self._tables()), axis=2)
        # An (S, T, V - 1, n) comparison, rollouts innermost, so the count adds
        # whole rows of n; one expression, so no temporary outlives the ids.
        return (
            (cum[:, :, :-1, None] < self._blocks(u).transpose(0, 2, 1)[:, :, None, :])
            .view(np.uint8).sum(axis=2, dtype=np.min_scalar_type(self.vocab - 1))
            .transpose(0, 2, 1).astype(np.int64, order="C").reshape(u.shape)
        )

    def token_logprobs(self, token_ids: np.ndarray) -> np.ndarray:
        """log pi(token_ids[..., t] | pos t), each row read under its own
        policy of a stack."""
        return self.logprobs_at(self.positions(token_ids))

    def logprobs_at(self, positions: np.ndarray) -> np.ndarray:
        """The log-probabilities at flat ``positions`` of this policy's ids,
        in their shape: one ``np.take``."""
        return np.take(self.log_probs, positions)

    def score_index(self, positions: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
        """The index ``scores_at`` reads for the chosen rows of a batch's
        ``positions``, taken as (N, T), `rows` being a slice or an index
        array into them: the policy each row's positions lie in, (rows,),
        and the flat (rows, T) positions of its tokens in the (rows, T, V)
        score blocks.  It does not depend on the logits, so it holds for
        every policy of this stack's shape."""
        chosen = positions.reshape(-1, self.length)[rows]
        policy_of = chosen[:, 0] // self.param_dim
        # block j of the output holds row j's policy: shift its positions there
        shift = (np.arange(len(chosen)) - policy_of) * self.param_dim
        return policy_of, chosen + shift[:, None]

    def scores_at(self, policy_of: np.ndarray, hot: np.ndarray) -> np.ndarray:
        """The (rows, T, V) score blocks of ``score_index``'s rows: block j
        is -pi of policy ``policy_of[j]``, and the one-hot 1.0 is added at
        ``hot`` by one flat scatter."""
        blocks = np.take(-np.exp(self._tables()), policy_of, axis=0)
        blocks.reshape(-1)[hot] += 1.0
        return blocks

    def score_rows(self, positions: np.ndarray, rows) -> np.ndarray:
        """``score_blocks`` of the chosen rows of a batch's ``positions``,
        taken as (N, T), `rows` being a slice or an index array into them,
        each row under the policy its positions lie in: -> (rows, T, V)."""
        return self.scores_at(*self.score_index(positions, rows))

    def score_blocks(self, token_ids: np.ndarray) -> np.ndarray:
        """Block t of the score vector of token t, onehot(token) - pi_t, from
        the row's own policy: token ids of shape (..., T) -> (..., T, V).  The
        score vector of token t is zero outside logit row t."""
        blocks = self.score_rows(self.positions(token_ids), slice(None))
        return blocks.reshape(*np.shape(token_ids), self.vocab)

    def score_gradients(self, token_ids: np.ndarray) -> np.ndarray:
        """Row t is d log pi(token_ids[t] | pos t) / d logits, flattened, for
        one policy (DomainError on a stack of S > 1): the dense form of
        score_blocks, the reference tests and verify compare against."""
        grads = np.zeros((self.length, self.length, self.vocab))
        diagonal = np.arange(self.length)
        grads[diagonal, diagonal] = self.score_blocks(token_ids)
        return grads.reshape(self.length, self.param_dim)

    def mean_entropy(self) -> float | np.ndarray:
        """Mean over positions of the policy's entropy: a float, or an (S,)
        array with one entry per policy of a stack."""
        lp = self._tables()
        entropy = -(np.exp(lp) * lp).sum(axis=2).sum(axis=1) / self.length
        return entropy if self.logits.ndim == 3 else entropy.item()


@dataclass(frozen=True)
class TaskSpec:
    """Binary-reward synthetic task: sparse (one pivotal position) or dense
    (Hamming distance to a target sequence at most `dense_threshold`)."""

    kind: str = "sparse"
    length: int = 8
    vocab: int = 16
    key_position: int = 0
    key_token: int = 0
    target_sequence: tuple[int, ...] = ()
    dense_threshold: int = 0

    def __post_init__(self):
        if self.kind not in ("sparse", "dense"):
            raise DomainError("task kind must be 'sparse' or 'dense'")
        if self.length < 1 or self.vocab < 2:
            raise DomainError("task needs length >= 1 and vocab >= 2")
        if self.kind == "sparse":
            if not (0 <= self.key_position < self.length):
                raise DomainError("key_position out of range")
            if not (0 <= self.key_token < self.vocab):
                raise DomainError("key_token out of range")
        else:
            if len(self.target_sequence) != self.length:
                raise DomainError("target_sequence must have one token per position")
            if any(not 0 <= t < self.vocab for t in self.target_sequence):
                raise DomainError("target tokens out of range")
            if not 0 <= self.dense_threshold <= self.length:
                raise DomainError("dense_threshold out of range")

    def reward(self, token_ids: np.ndarray) -> float:
        return float(self.rewards(np.asarray(token_ids)[None])[0])

    def rewards(self, token_ids: np.ndarray) -> np.ndarray:
        """Binary rewards of the rows of an (N, T) token-id array."""
        if self.kind == "sparse":
            hits = token_ids[:, self.key_position] == self.key_token
        else:
            mismatches = np.sum(token_ids != np.asarray(self.target_sequence), axis=1)
            hits = mismatches <= self.dense_threshold
        return hits.astype(np.float64)


@dataclass(frozen=True)
class TrainConfig:
    group_size: int = 8
    rollouts_per_round: int = 256
    minibatch_size: int = 8  # groups per update
    updates_per_round: int = 4
    learning_rate: float = 0.05
    clip_epsilon: float = 0.2
    schedule: ScheduleSpec = field(
        default_factory=lambda: ScheduleSpec.constant(1.0, 1)
    )
    clipping_regime: str = "sequence"
    seed: int = 0
    total_rounds: int = 60

    def __post_init__(self):
        if self.seed < 0:
            raise DomainError("seed must be >= 0")
        if self.group_size < 2:
            raise DomainError("group_size must be >= 2")
        if self.rollouts_per_round < 1 or self.rollouts_per_round % self.group_size != 0:
            raise DomainError(
                "rollouts_per_round must be a positive multiple of group_size"
            )
        if self.minibatch_size < 1:
            raise DomainError("minibatch_size must be >= 1")
        if self.num_groups % self.minibatch_size != 0:
            raise DomainError(
                "groups per round must be divisible by minibatch_size"
            )
        if not 0.0 < self.learning_rate < math.inf:
            raise DomainError("learning_rate must be positive and finite")
        if not 0.0 < self.clip_epsilon < 1.0:
            raise DomainError("clip_epsilon must lie in (0, 1)")
        if self.clipping_regime not in CLIPPING_REGIMES:
            raise DomainError(f"clipping_regime must be one of {CLIPPING_REGIMES}")
        if self.updates_per_round < 1 or self.total_rounds < 1:
            raise DomainError("updates_per_round and total_rounds must be >= 1")

    @property
    def num_groups(self) -> int:
        return self.rollouts_per_round // self.group_size

    @property
    def total_updates(self) -> int:
        return self.total_rounds * self.updates_per_round


# The TrainConfig fields runs stacked by train_many must share.
_SHARED_FIELDS = tuple(f.name for f in fields(TrainConfig) if f.name not in ("seed", "schedule"))


@dataclass
class RunLog:
    metrics: list[UpdateMetrics]
    final_policy: PolicyParams
    final_success: float
    wall_time: float


def _rollout_rng(seed: int, round_idx: int, group_idx: int, rollout_idx: int):
    """The RNG substream of one rollout: the per-group sampling API draws
    from it, and ``_block_uniforms`` reproduces it bit for bit for a block of
    rounds at once, by PCG64 state steps."""
    ss = np.random.SeedSequence(
        entropy=seed, spawn_key=(round_idx, group_idx, rollout_idx)
    )
    return np.random.default_rng(ss)


def sample_rollouts(
    policy_old: PolicyParams, task: TaskSpec, group_size: int, uniforms: np.ndarray
) -> RolloutBatch:
    """One rollout per row of the (N, T) `uniforms`, drawn by
    ``PolicyParams.sample``, with rewards and group-normalized advantages (G
    consecutive rows per group), valid by construction, so not checked again.
    Uniforms that are not 2-D, rows that are not whole groups of G >= 2 and a
    policy of another (length, vocab) than the task's raise DomainError."""
    return _sample_round(policy_old, task, group_size, uniforms)[0]


def _sample_round(
    policy_old: PolicyParams, task: TaskSpec, group_size: int, uniforms: np.ndarray
) -> tuple[RolloutBatch, np.ndarray]:
    """``sample_rollouts``, and the flat positions of its ids in
    ``policy_old.log_probs``: the ids' one check, and the old log-probs read
    at them."""
    shape = (policy_old.length, policy_old.vocab)
    if shape != (task.length, task.vocab):
        raise DomainError(f"policy shape {shape} does not match the task's "
                          f"{(task.length, task.vocab)}")
    if np.ndim(uniforms) != 2:
        raise DomainError(f"uniforms of shape {np.shape(uniforms)} are not (N, T)")
    token_ids = policy_old.sample(uniforms)
    positions = policy_old.positions(token_ids)
    old_lp = policy_old.logprobs_at(positions)
    rewards = task.rewards(token_ids)
    batch = RolloutBatch._trusted(
        token_ids=token_ids,
        old_logprobs=old_lp,
        new_logprobs=old_lp,
        mask=np.ones(token_ids.shape, dtype=bool),
        rewards=rewards,
        advantages=group_advantages(rewards, group_size),
        group_size=group_size,
        log_ratios=np.zeros(token_ids.shape),
    )
    return batch, positions


def sample_group(
    policy_old: PolicyParams, task: TaskSpec, group_size: int, rng_streams
) -> RolloutBatch:
    """``sample_rollouts`` of one group of G rollouts, from `rng_streams`, one
    RNG per rollout."""
    uniforms = np.stack([rng_streams[i].random(task.length) for i in range(group_size)])
    return sample_rollouts(policy_old, task, group_size, uniforms)


def refresh_logprobs(batch: RolloutBatch, policy_new: PolicyParams,
                     positions: np.ndarray | None = None) -> RolloutBatch:
    """The batch with new_logprobs and log_ratios under the current policy
    (or policies of a stack), derived without re-checking it.  `positions`
    are the batch's ids as ``policy_new.positions`` gives them, when the
    caller already holds them."""
    if positions is None:
        new = policy_new.token_logprobs(batch.token_ids)
    else:
        new = policy_new.logprobs_at(positions)
    return batch._derive(new_logprobs=new,
                         log_ratios=np.where(batch.mask, new - batch.old_logprobs, 0.0))


def success_probability(policy: PolicyParams, task: TaskSpec) -> float:
    """Exact expected reward under the policy.

    Sparse: the key token's probability at the key position.  Dense: the
    Poisson-binomial tail P(#mismatches <= k) over independent positions.
    """
    probs = policy.probs()
    if task.kind == "sparse":
        return float(probs[task.key_position, task.key_token])
    match_p = np.array(
        [probs[pos, tok] for pos, tok in enumerate(task.target_sequence)]
    )
    # DP over the mismatch count
    dist = np.zeros(task.length + 1)
    dist[0] = 1.0
    for q in 1.0 - match_p:
        dist[1:] = dist[1:] * (1.0 - q) + dist[:-1] * q
        dist[0] *= 1.0 - q
    return float(dist[: task.dense_threshold + 1].sum())


def _divergences(log_ratios: np.ndarray, runs: int) -> dict[int, DivergenceError]:
    """The DivergenceError of each of `runs` equal consecutive blocks of rows
    with a finite token ratio outside [1/limit, limit], keyed by block and
    naming the block's first such row; masked-out log-ratios are 0, and a
    non-finite one is left to ``holder_rows`` (DomainError).  rho needs no
    check of its own: a power mean lies between its row's smallest and
    largest token ratio, min r <= rho(p) <= max r for every p."""
    block, width, errors = len(log_ratios) // runs, log_ratios.shape[1], {}
    outside = np.flatnonzero(np.abs(log_ratios) > np.log(RHO_DIVERGENCE_LIMIT))
    for row in (outside // width).tolist():  # a max over each short row is slower
        extreme = np.abs(log_ratios[row]).max()
        if extreme < np.inf and row // block not in errors:
            errors[row // block] = DivergenceError(
                f"token ratio exp({extreme:.3g}) left the divergence band "
                f"[1/{RHO_DIVERGENCE_LIMIT:.0e}, {RHO_DIVERGENCE_LIMIT:.0e}]",
                row % block,
            )
    return errors


def _block_groups(blocks, block_groups: int, lo: int, count: int) -> np.ndarray:
    """Groups lo .. lo + count - 1 of each listed block of `block_groups`
    consecutive groups, block by block."""
    return (np.asarray(blocks)[:, None] * block_groups + np.arange(lo, lo + count)).ravel()


def _shared_config(configs: list[TrainConfig]) -> TrainConfig:
    """The first config, once every field but seed and schedule is checked
    to be the same in all of them."""
    if not configs:
        raise DomainError("train_many needs at least one config")
    base = configs[0]
    for name in _SHARED_FIELDS:
        if any(getattr(c, name) != getattr(base, name) for c in configs):
            raise DomainError(
                f"stacked configs differ in {name}; only seed and schedule may"
            )
    return base


def train(
    config: TrainConfig,
    task: TaskSpec,
    initial_policy: PolicyParams | None = None,
) -> RunLog:
    """Run the full loop: per round, sample the round's rollouts from the
    current policy, then apply gradient-ascent updates on minibatches of
    groups with p taken from the schedule at the global update index.  The
    one-run case of ``train_many``."""
    return train_many([config], task, initial_policy)[0]


def train_many(
    configs: list[TrainConfig],
    task: TaskSpec,
    initial_policy: PolicyParams | None = None,
) -> list[RunLog]:
    """Run S configs that differ only in `seed` and `schedule` as one stack;
    return their RunLogs in order, each equal to its solo run bit for bit.

    Per round the S policies are one stacked PolicyParams and the rollouts
    one RolloutBatch, run s in rows s*N .. s*N + N - 1; runs that share a seed
    share the round's uniforms.  The sampler turns the round's ids into
    positions in the stack's log-prob table, once.  A minibatch is groups
    lo .. lo + M - 1 of every run's block, selected with one
    ``select_groups`` call and the same groups of the positions: a slice of
    views for one run, one gather for more.  Each distinct minibatch is
    selected once per round, keyed by lo, with its ``minibatch_plan``, and
    refreshed at its positions under the current policies at every update
    that takes it.  Per update one ``batch_terms`` call covers every run,
    with one exponent per row and the plan's token-clip rows, and one
    score-block product over the plan's rows, those of the groups with a
    nonzero advantage, gives the S gradients (a group whose advantages are
    all zero adds exactly 0, so it is skipped); each run keeps its own
    group and minibatch folds.

    Each update first checks every run's refreshed minibatch for token
    ratios outside the divergence band; the runs that trip leave the stack
    before ``batch_terms``.  The round's rollouts, positions and mean rewards
    are then rebuilt for the runs kept, once, the selected minibatches and
    their plans dropped, and the update's minibatch selected, planned and
    refreshed again.  At the end the DivergenceError of the lowest-index
    diverged run is raised, as its solo run raises it, the one a loop of
    solo runs would raise first.  RunLog.wall_time is the stack's.
    """
    start = time.monotonic()
    base = _shared_config(configs)
    if initial_policy is None:
        initial_policy = PolicyParams.uniform(task.length, task.vocab)
    policies = PolicyParams(np.repeat(initial_policy.logits[None], len(configs), axis=0))
    clip = ClipConfig(base.clip_epsilon)
    group_count, rows_per_run = base.num_groups, base.minibatch_size * base.group_size
    live = list(range(len(configs)))  # runs still updating; policy k of the stack
    diverged: dict[int, DivergenceError] = {}
    metrics: list[list[UpdateMetrics]] = [[] for _ in configs]
    step = 0
    block_rounds = max(1, _UNIFORMS_PER_BLOCK // (group_count * base.group_size * task.length))

    for round_idx in range(base.total_rounds):
        seeds = [configs[run].seed for run in live]
        if round_idx % block_rounds == 0:
            count = min(block_rounds, base.total_rounds - round_idx)
            draws = None  # the last block is freed before the next is drawn
            draws = {seed: _block_uniforms(seed, round_idx, count, group_count,
                                           base.group_size, task.length) for seed in set(seeds)}
        uniforms = np.concatenate([draws[seed][round_idx % block_rounds] for seed in seeds])
        # this round's minibatches and their positions, by first group; the last
        # round's, and its positions, are freed before the next are taken
        selected, positions, group_positions = {}, None, None
        rollouts, positions = _sample_round(policies, task, base.group_size, uniforms)
        # one (G, T) block per group, so a selection of groups reads both
        group_positions = positions.reshape(-1, base.group_size, task.length)
        round_rewards = rollouts.rewards.reshape(len(live), -1).mean(axis=1).tolist()

        for update_idx in range(base.updates_per_round):
            lo = (update_idx * base.minibatch_size) % group_count
            while True:
                if lo not in selected:
                    # groups lo .. lo + M - 1 of each run's block: for one run
                    # a slice, so the minibatch and its positions are views
                    groups = (slice(lo, lo + base.minibatch_size) if len(live) == 1 else
                              _block_groups(range(len(live)), group_count, lo,
                                            base.minibatch_size))
                    picked = rollouts.select_groups(groups)
                    positions = group_positions[groups].reshape(-1, task.length)
                    selected[lo] = (picked, positions, minibatch_plan(
                        picked, positions, policies, base.clipping_regime))
                picked, positions, plan = selected[lo]
                minibatch = refresh_logprobs(picked, policies, positions)
                tripped = _divergences(minibatch.log_ratios, len(live))
                if not tripped:
                    break
                # the runs that diverged leave the stack at once; the round is
                # rebuilt for the runs kept, and the minibatch selected again
                diverged.update((live[k], exc) for k, exc in tripped.items())
                keep = [k for k in range(len(live)) if k not in tripped]
                live, round_rewards = [live[k] for k in keep], [round_rewards[k] for k in keep]
                if not live:
                    break
                policies = PolicyParams(policies.logits[keep])
                rollouts = rollouts.select_groups(_block_groups(keep, group_count, 0, group_count))
                group_positions = policies.positions(rollouts.token_ids).reshape(
                    -1, base.group_size, task.length)
                selected.clear()
            if not live:
                break
            ps = [p_at(configs[run].schedule, min(step, configs[run].schedule.total_steps))
                  for run in live]
            terms = batch_terms(minibatch, HolderOrder(np.array(ps).repeat(rows_per_run)),
                                base.clipping_regime, clip, runs=len(live), plan=plan)
            gradient = policy_gradient(policies, minibatch, terms, plan)
            policies = PolicyParams(policies.logits + base.learning_rate * gradient)
            entropy, objective, clip_fraction, v_of_p, log_max, log_min = (
                values.tolist() for values in (
                    policies.mean_entropy(), terms.objective, terms.clip_fraction,
                    terms.v_of_p, terms.log_ratio_max, terms.log_ratio_min,
                )
            )
            for k, run in enumerate(live):
                metrics[run].append(
                    UpdateMetrics(
                        step=step,
                        p_value=ps[k],
                        objective=objective[k],
                        grad_norm=float(np.linalg.norm(gradient[k])),
                        policy_entropy=entropy[k],
                        log_ratio_max=log_max[k],
                        log_ratio_min=log_min[k],
                        clip_fraction=clip_fraction[k],
                        mean_reward=round_rewards[k],
                        v_of_p=v_of_p[k],
                    )
                )
            step += 1
        if not live:
            break

    if diverged:
        raise diverged[min(diverged)]
    finals = [PolicyParams(table) for table in policies.logits]
    successes = [success_probability(policy, task) for policy in finals]
    elapsed = time.monotonic() - start
    return [
        RunLog(metrics=metrics[run], final_policy=policy, final_success=success,
               wall_time=elapsed)
        for run, policy, success in zip(live, finals, successes)
    ]


def default_sparse_task(length: int = 8, vocab: int = 16) -> TaskSpec:
    """Sparse-signal default: reward hinges on one pivotal token."""
    return TaskSpec(kind="sparse", length=length, vocab=vocab, key_position=3,
                    key_token=5)


def default_dense_task(length: int = 8, vocab: int = 2,
                       threshold: int = 1) -> TaskSpec:
    """Dense-signal default: nearly every position must match the target.

    The small vocabulary keeps the (conjunctive) all-but-one-correct event
    reachable from the uniform initialization, so credit is genuinely
    distributed across positions instead of hinging on a rare token.
    """
    target = tuple(i % vocab for i in range(length))
    return TaskSpec(
        kind="dense",
        length=length,
        vocab=vocab,
        target_sequence=target,
        dense_threshold=threshold,
    )


def trend_config(schedule: ScheduleSpec, seed: int = 0,
                 total_rounds: int = 18) -> TrainConfig:
    """Training configuration for the qualitative sparse-vs-dense trend
    experiments: a small rollout budget and a learning rate high enough
    that the choice of aggregation exponent visibly moves the outcome
    within the round budget."""
    return TrainConfig(
        rollouts_per_round=128,
        minibatch_size=4,
        learning_rate=1.0,
        schedule=schedule,
        seed=seed,
        total_rounds=total_rounds,
    )
