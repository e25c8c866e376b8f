"""Tabular policy, synthetic tasks, and the training loop."""

from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from holderpo import (
    ClipConfig,
    DivergenceError,
    DomainError,
    HolderOrder,
    PolicyParams,
    RolloutBatch,
    ScheduleSpec,
    TaskSpec,
    TrainConfig,
    default_dense_task,
    default_sparse_task,
    grad_estimator_seq_clip,
    grad_estimator_token_clip,
    grad_estimator_unclipped,
    refresh_logprobs,
    sample_group,
    success_probability,
    train,
    train_many,
    trend_config,
)
from holderpo import sim
from holderpo.sim import (
    RHO_DIVERGENCE_LIMIT,
    _block_uniforms,
    _divergences,
    _rollout_rng,
    sample_rollouts,
)

from conftest import assert_same_run, make_group


class TestPolicyParams:
    def test_uniform_rows(self):
        policy = PolicyParams.uniform(3, 4)
        np.testing.assert_allclose(policy.probs(), 0.25)
        assert policy.param_dim == 12

    def test_rows_normalize(self, rng):
        policy = PolicyParams(rng.normal(size=(5, 7)))
        np.testing.assert_allclose(policy.probs().sum(axis=1), 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            PolicyParams(np.array([[0.0, np.inf]]))

    @pytest.mark.parametrize("shape", [(3,), (1, 2, 3, 4)])
    def test_rejects_other_ranks(self, shape):
        with pytest.raises(DomainError, match=r"\(T, V\) table"):
            PolicyParams(np.zeros(shape))

    def test_frozen(self):
        policy = PolicyParams.uniform(2, 3)
        with pytest.raises(FrozenInstanceError):
            policy.logits = np.ones((2, 3))

    def test_stack_rows_equal_solo_policies(self, rng):
        """Block s of the rows read against a stack reads policy s, bit for
        bit as the solo policy s reads them."""
        logits = rng.normal(size=(3, 4, 6))
        stack = PolicyParams(logits)
        assert (stack.runs, stack.length, stack.vocab) == (3, 4, 6)
        assert PolicyParams(logits[0]).runs == 1
        ids = rng.integers(0, 6, size=(3, 5, 4))
        token_logprobs = stack.token_logprobs(ids.reshape(15, 4)).reshape(3, 5, 4)
        score_blocks = stack.score_blocks(ids.reshape(15, 4)).reshape(3, 5, 4, 6)
        entropy = stack.mean_entropy()
        assert entropy.shape == (3,)
        for s, table in enumerate(logits):
            solo = PolicyParams(table)
            np.testing.assert_array_equal(stack.log_probs[s], solo.log_probs)
            np.testing.assert_array_equal(token_logprobs[s], solo.token_logprobs(ids[s]))
            np.testing.assert_array_equal(score_blocks[s], solo.score_blocks(ids[s]))
            assert entropy[s] == solo.mean_entropy()

    def test_score_rows_are_the_chosen_rows_of_score_blocks(self, rng):
        """Chosen rows of a stack's batch are scored under their own
        policies, bit for bit as score_blocks scores them; an id outside
        [0, V) in a row not chosen still raises, when the batch's positions
        are taken."""
        stack = PolicyParams(rng.normal(size=(3, 4, 6)))
        ids = rng.integers(0, 6, size=(15, 4))
        every = stack.score_blocks(ids)
        rows = np.array([1, 4, 5, 9, 14])
        positions = stack.positions(ids)
        np.testing.assert_array_equal(stack.score_rows(positions, rows), every[rows])
        np.testing.assert_array_equal(stack.score_rows(positions, slice(5, 10)), every[5:10])
        ids[0, 0] = 6
        with pytest.raises(DomainError, match=r"must lie in \[0, 6\)"):
            stack.positions(ids)

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_token_logprobs_rejects_ids_outside_the_vocabulary(self, bad):
        """An id below 0 or at V or above is a DomainError on a table and on
        a stack; indexing alone would read token V - 1 for an id of -1."""
        table = PolicyParams(np.arange(12.0).reshape(3, 4))
        stack = PolicyParams(np.stack([table.logits, -table.logits]))
        ids = np.array([[0, 3, 1], [3, 0, 2]])
        for policy, read in ((table, ids[0]), (stack, ids)):
            outside = read.copy()
            outside[..., 2] = bad
            with pytest.raises(DomainError, match=r"must lie in \[0, 4\)"):
                policy.token_logprobs(outside)
        np.testing.assert_array_equal(table.token_logprobs(ids[1]),
                                      table.log_probs[[0, 1, 2], [3, 0, 2]])
        np.testing.assert_array_equal(stack.token_logprobs(ids),
                                      stack.log_probs[[[0], [1]], [0, 1, 2], ids])

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_scores_reject_ids_outside_the_vocabulary(self, bad):
        """score_blocks reads ids through the same check as token_logprobs,
        so score_gradients and the gradient estimators, on a batch that
        skipped the construction check, raise DomainError on a table and on
        a stack; indexing alone would score token V - 1 for an id of -1."""
        table = PolicyParams(np.arange(12.0).reshape(3, 4))
        stack = PolicyParams(np.stack([table.logits, -table.logits]))
        outside = np.array([[0, 3, bad], [3, 0, bad]])
        swapped = outside.astype(">i8")  # ids in the other byte order
        group = make_group(np.zeros((4, 3)), [1.0, 0.0, 1.0, 0.0])
        derived = group._derive(token_ids=np.tile(outside, (2, 1)))
        order, clip = HolderOrder(1.0), ClipConfig(0.2)
        for policy in (table, stack):
            for read in (
                lambda: policy.score_blocks(outside),
                lambda: policy.score_blocks(swapped),
                lambda: policy.token_logprobs(swapped[:policy.runs]),
                lambda: policy.score_gradients(outside[0]),
                lambda: grad_estimator_unclipped([derived], policy, order),
                lambda: grad_estimator_seq_clip([derived], policy, order, clip),
                lambda: grad_estimator_token_clip([derived], policy, order, clip),
            ):
                with pytest.raises(DomainError, match=r"must lie in \[0, 4\)"):
                    read()

    @pytest.mark.parametrize("dtype", ["<i8", ">i8", ">i4", "i1", ">u8"])
    def test_ids_are_checked_by_value_in_any_byte_order(self, dtype):
        """The id check reads ids by value whatever their width and byte
        order: ids in [0, V) read what native int64 ids read, and V and 2^56
        (whose low byte is 0) raise DomainError."""
        table = PolicyParams(np.arange(12.0).reshape(3, 4))
        ids = np.array([0, 3, 1])
        np.testing.assert_array_equal(table.token_logprobs(ids.astype(dtype)),
                                      table.token_logprobs(ids))
        np.testing.assert_array_equal(table.score_blocks(ids.astype(dtype)),
                                      table.score_blocks(ids))
        for bad in (4, 2**56):
            if np.can_cast(np.min_scalar_type(bad), dtype):
                with pytest.raises(DomainError, match=r"must lie in \[0, 4\)"):
                    table.token_logprobs(np.array([0, 3, bad], dtype=dtype))

    def test_reads_reject_ids_of_another_length(self):
        policy = PolicyParams(np.zeros((2, 8, 16)))
        for read in (policy.sample, policy.token_logprobs, policy.score_blocks):
            with pytest.raises(DomainError, match=r"is not \(\.\.\., 8\)"):
                read(np.zeros((2, 5), dtype=np.int64))

    def test_stack_token_logprobs_rejects_uneven_rows(self):
        stack = PolicyParams(np.zeros((2, 8, 16)))
        with pytest.raises(DomainError, match="3 batch rows do not split into 2"):
            stack.token_logprobs(np.zeros((3, 8), dtype=np.int64))

    def test_stack_score_blocks_rejects_uneven_rows(self):
        stack = PolicyParams(np.zeros((2, 8, 16)))
        with pytest.raises(DomainError, match="3 batch rows do not split into 2"):
            stack.score_blocks(np.zeros((3, 8), dtype=np.int64))

    def test_score_gradients_rejects_a_stack(self):
        stack = PolicyParams(np.zeros((2, 8, 16)))
        with pytest.raises(DomainError, match="1 batch rows do not split into 2"):
            stack.score_gradients(np.zeros(8, dtype=np.int64))

    def test_score_gradients_shape_and_zero_sum(self, rng):
        policy = PolicyParams(rng.normal(size=(4, 6)))
        tokens = np.array([1, 0, 5, 3])
        grads = policy.score_gradients(tokens)
        assert grads.shape == (4, 24)
        # each row is a softmax score vector: entries sum to zero
        np.testing.assert_allclose(grads.sum(axis=1), 0.0, atol=1e-12)

    def test_score_gradients_match_finite_differences(self, rng):
        policy = PolicyParams(rng.normal(size=(2, 3)))
        tokens = np.array([2, 0])
        analytic = policy.score_gradients(tokens)
        h = 1e-6
        for t in range(2):
            flat = policy.logits.ravel()
            fd = np.zeros_like(flat)
            for j in range(flat.size):
                for sign in (1.0, -1.0):
                    bumped = flat.copy()
                    bumped[j] += sign * h
                    lp = PolicyParams(bumped.reshape(2, 3)).token_logprobs(tokens)
                    fd[j] += sign * lp[t]
            fd /= 2 * h
            np.testing.assert_allclose(analytic[t], fd, atol=1e-6)

    def test_mean_entropy_bounds(self, rng):
        policy = PolicyParams(rng.normal(size=(3, 8)))
        assert 0.0 <= policy.mean_entropy() <= np.log(8) + 1e-12
        assert PolicyParams.uniform(3, 8).mean_entropy() == pytest.approx(np.log(8))


class TestTaskSpec:
    def test_sparse_reward(self):
        task = default_sparse_task()
        hit = np.zeros(8, dtype=np.int64)
        hit[3] = 5
        assert task.reward(hit) == 1.0
        assert task.reward(np.zeros(8, dtype=np.int64)) == 0.0

    def test_dense_reward_threshold(self):
        task = TaskSpec(kind="dense", length=4, vocab=3,
                        target_sequence=(0, 1, 2, 0), dense_threshold=1)
        assert task.reward(np.array([0, 1, 2, 0])) == 1.0
        assert task.reward(np.array([0, 1, 2, 1])) == 1.0
        assert task.reward(np.array([0, 1, 0, 1])) == 0.0

    def test_invalid_specs(self):
        with pytest.raises(DomainError):
            TaskSpec(kind="other", length=4, vocab=3)
        with pytest.raises(DomainError):
            TaskSpec(kind="sparse", length=4, vocab=3, key_position=4)
        with pytest.raises(DomainError):
            TaskSpec(kind="dense", length=4, vocab=3, target_sequence=(0, 1))


class TestTrainConfig:
    def test_divisibility_constraints(self):
        with pytest.raises(DomainError):
            TrainConfig(rollouts_per_round=10, group_size=8)
        with pytest.raises(DomainError):
            TrainConfig(rollouts_per_round=64, group_size=8, minibatch_size=3)

    def test_positive_learning_rate(self):
        with pytest.raises(DomainError):
            TrainConfig(learning_rate=0.0)

    def test_regime_names(self):
        with pytest.raises(DomainError):
            TrainConfig(clipping_regime="soft")

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_rejects_negative_seed(self, seed):
        with pytest.raises(DomainError, match="seed"):
            TrainConfig(seed=seed)

    def test_total_updates(self):
        config = TrainConfig(total_rounds=5, updates_per_round=4)
        assert config.total_updates == 20


class TestSampling:
    def test_deterministic_per_substream(self):
        task = default_sparse_task()
        policy = PolicyParams.uniform(8, 16)
        streams = lambda: [_rollout_rng(7, 2, 1, i) for i in range(4)]
        a = sample_group(policy, task, 4, streams())
        b = sample_group(policy, task, 4, streams())
        np.testing.assert_array_equal(a.token_ids, b.token_ids)

    def test_one_hot_policy_is_deterministic(self):
        task = TaskSpec(kind="sparse", length=4, vocab=5, key_position=1,
                        key_token=2)
        logits = np.full((4, 5), -40.0)
        logits[np.arange(4), [1, 2, 3, 4]] = 40.0
        policy = PolicyParams(logits)
        streams = [_rollout_rng(0, 0, 0, i) for i in range(3)]
        batch = sample_group(policy, task, 3, streams)
        np.testing.assert_array_equal(batch.token_ids, [[1, 2, 3, 4]] * 3)
        np.testing.assert_array_equal(batch.advantages, np.zeros(3))

    def test_uniform_sparse_hit_rate(self):
        task = default_sparse_task(length=4, vocab=8)
        policy = PolicyParams.uniform(4, 8)
        streams = [_rollout_rng(0, 0, 0, i) for i in range(4000)]
        batch_rewards = [
            sample_group(policy, task, 2, streams[i : i + 2]).rewards[0]
            for i in range(0, 4000, 2)
        ]
        assert np.mean(batch_rewards) == pytest.approx(1.0 / 8.0, abs=0.02)

    def test_round_matches_per_group_sampling(self, rng):
        task = default_sparse_task()
        policy = PolicyParams(rng.normal(size=(8, 16)))
        uniforms = _block_uniforms(3, 2, 1, num_groups=3, group_size=4, length=8)[0]
        batch = sample_rollouts(policy, task, 4, uniforms)
        for g in range(3):
            group = batch.select_groups([g])
            streams = [_rollout_rng(3, 2, g, i) for i in range(4)]
            expect = sample_group(policy, task, 4, streams)
            for name in ("token_ids", "old_logprobs", "new_logprobs", "mask",
                         "rewards", "advantages", "log_ratios"):
                np.testing.assert_array_equal(getattr(group, name), getattr(expect, name))

    def test_sampled_batch_passes_the_public_constructor_unchanged(self, rng):
        """sample_rollouts builds its batch without the construction check;
        its arrays pass that check and come out of it as they went in, on a
        stack and with log_ratios zero."""
        task = default_sparse_task()
        uniforms = _block_uniforms(3, 2, 1, num_groups=3, group_size=4, length=8)[0]
        batch = sample_rollouts(PolicyParams(rng.normal(size=(2, 8, 16))), task, 4,
                                np.concatenate([uniforms, uniforms]))
        checked = RolloutBatch(**{f.name: getattr(batch, f.name)
                                  for f in fields(RolloutBatch) if f.init})
        assert batch.group_size == checked.group_size == 4
        for f in fields(RolloutBatch):
            if f.name != "group_size":
                got, want = getattr(batch, f.name), getattr(checked, f.name)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want, strict=True)

    @pytest.mark.parametrize("group_size, rows", [(1, 4), (3, 4)])
    def test_rows_must_form_whole_groups(self, group_size, rows):
        task = default_sparse_task()
        with pytest.raises(DomainError, match="whole groups"):
            sample_rollouts(PolicyParams.uniform(8, 16), task, group_size,
                            np.full((rows, 8), 0.5))

    @pytest.mark.parametrize("shape", [(8,), (2, 4, 8)], ids=["one-row", "stacked"])
    def test_uniforms_must_be_two_dimensional(self, shape):
        """One row per rollout: T uniforms alone, or one (n, T) block per
        policy of a stack, are not an (N, T) round."""
        with pytest.raises(DomainError, match=r"are not \(N, T\)"):
            sample_rollouts(PolicyParams(np.zeros((2, 8, 16))), default_sparse_task(),
                            2, np.full(shape, 0.5))

    def test_stack_samples_each_block_from_its_policy(self, rng):
        task = default_sparse_task()
        logits = rng.normal(size=(2, 8, 16))
        uniforms = _block_uniforms(3, 2, 1, num_groups=3, group_size=4, length=8)[0]
        stacked = sample_rollouts(PolicyParams(logits), task, 4,
                                  np.concatenate([uniforms, uniforms]))
        for s, table in enumerate(logits):
            solo = sample_rollouts(PolicyParams(table), task, 4, uniforms)
            block = stacked.select_groups([3 * s, 3 * s + 1, 3 * s + 2])
            for name in ("token_ids", "old_logprobs", "rewards", "advantages"):
                np.testing.assert_array_equal(getattr(block, name), getattr(solo, name))

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("vocab", [2, 16, 300])
    def test_matches_a_searchsorted_oracle(self, rng, runs, vocab):
        """Each id of PolicyParams.sample, on a table (runs 1) and on a
        stack, is the inverse-CDF index of its uniform on its own run and
        position, searchsorted(cum, u, side="left") capped at V - 1, checked
        one (run, position) at a time: at u = 0, at u equal to an interior
        cum entry, above cum[-1], and under logits of +-700, whose
        probabilities underflow so that cum has flat runs (V = 300 counts in
        uint16)."""
        length, rows = 6, 24
        logits = rng.normal(scale=3.0, size=(runs, length, vocab))
        extreme = rng.random(logits.shape) < 0.3
        logits[extreme] = rng.choice([-700.0, 700.0], size=extreme.sum())
        logits[:, 0] = -700.0  # cum is 0, ..., 0, 1
        logits[:, 0, -1] = 700.0
        logits[:, 1, 0] = 700.0  # cum is 1, ..., 1
        policy = PolicyParams(logits if runs > 1 else logits[0])
        tables = policy.log_probs.reshape(runs, length, vocab)
        cums = [[np.cumsum(np.exp(tables[s, t])) for t in range(length)]
                for s in range(runs)]
        uniforms = rng.random((runs, rows, length))
        for s, t in np.ndindex(runs, length):
            cum = cums[s][t]
            uniforms[s, :8, t] = [0.0, *cum[rng.integers(0, vocab - 1, size=4)], cum[0],
                                  np.nextafter(cum[-1], np.inf), 1.0]
        assert (np.diff(np.array(cums), axis=2) == 0.0).any()
        ids = policy.sample(uniforms.reshape(-1, length)).reshape(runs, rows, length)
        for s, t in np.ndindex(runs, length):
            expect = np.searchsorted(cums[s][t], uniforms[s, :, t], side="left")
            np.testing.assert_array_equal(ids[s, :, t], np.minimum(expect, vocab - 1))
        if runs == 1:  # one (T,) row of uniforms gives one (T,) row of ids
            np.testing.assert_array_equal(policy.sample(uniforms[0, 5]), ids[0, 5])

    @pytest.mark.parametrize("vocab", [2, 5, 16])
    def test_sample_draws_what_per_token_choice_draws(self, vocab):
        """policy.sample(rng.random(T)) takes the stream's next T doubles and
        picks the ids that T calls rng.choice(V, p=probs[t]) pick from the
        same stream, so moving a per-token sampler onto sample moves no id
        and no later draw."""
        policy = PolicyParams(np.random.default_rng(vocab).normal(size=(6, vocab)))
        ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(200):
            got = policy.sample(ours.random(policy.length))
            want = [theirs.choice(vocab, p=row) for row in policy.probs()]
            np.testing.assert_array_equal(got, want)
        assert ours.random() == theirs.random()

    def test_stack_rejects_uneven_rows(self):
        stack = PolicyParams(np.zeros((2, 8, 16)))
        with pytest.raises(DomainError, match="3 batch rows do not split into 2"):
            sample_rollouts(stack, default_sparse_task(), 3, np.full((3, 8), 0.5))

    @pytest.mark.parametrize("shape", [(8, 32), (8, 4), (4, 16)])
    def test_policy_of_another_shape_rejected(self, shape):
        """A policy whose (length, vocab) is not the task's is refused before
        anything is sampled, by sample_group and by train."""
        task = default_sparse_task()
        policy = PolicyParams(np.zeros(shape))
        streams = [_rollout_rng(0, 0, 0, i) for i in range(4)]
        with pytest.raises(DomainError, match="does not match the task's"):
            sample_group(policy, task, 4, streams)
        with pytest.raises(DomainError, match="does not match the task's"):
            train(TrainConfig(total_rounds=2), task, policy)

    def test_refresh_logprobs_updates_ratios(self, rng):
        task = default_sparse_task()
        old = PolicyParams.uniform(8, 16)
        streams = [_rollout_rng(0, 0, 0, i) for i in range(2)]
        batch = sample_group(old, task, 2, streams)
        new = PolicyParams(old.logits + rng.normal(scale=0.2, size=(8, 16)))
        refreshed = refresh_logprobs(batch, new)
        for ids, logprobs in zip(refreshed.token_ids, refreshed.new_logprobs):
            np.testing.assert_allclose(logprobs, new.token_logprobs(ids))
        np.testing.assert_array_equal(refreshed.log_ratios,
                                      refreshed.new_logprobs - batch.old_logprobs)


class TestSuccessProbability:
    def test_sparse_is_key_token_probability(self):
        task = default_sparse_task()
        policy = PolicyParams.uniform(8, 16)
        assert success_probability(policy, task) == pytest.approx(1.0 / 16.0)

    def test_dense_matches_monte_carlo(self, rng):
        task = TaskSpec(kind="dense", length=6, vocab=3,
                        target_sequence=(0, 1, 2, 0, 1, 2), dense_threshold=2)
        policy = PolicyParams(rng.normal(scale=0.7, size=(6, 3)))
        exact = success_probability(policy, task)
        probs = policy.probs()
        cum = probs.cumsum(axis=1)
        draws = rng.random((20000, 6))
        tokens = (cum[None, :, :] < draws[:, :, None]).sum(axis=2)
        hits = [task.reward(row) for row in tokens]
        assert exact == pytest.approx(np.mean(hits), abs=0.01)

    def test_dense_threshold_full_length_is_certain(self):
        task = TaskSpec(kind="dense", length=4, vocab=2,
                        target_sequence=(0, 1, 0, 1), dense_threshold=4)
        assert success_probability(PolicyParams.uniform(4, 2), task) == (
            pytest.approx(1.0)
        )


def check_divergence(batch):
    """Raise what train_many's divergence check finds in a one-run minibatch."""
    for error in _divergences(batch.log_ratios, 1).values():
        raise error


BIG = np.log(RHO_DIVERGENCE_LIMIT) + 1.0  # a log-ratio just outside the band


class TestDivergenceGuard:
    def test_triggers_above_limit(self):
        batch = make_group([[BIG, BIG], [0.0, 0.0]], [1.0, 0.0])
        with pytest.raises(DivergenceError):
            check_divergence(batch)

    def test_quiet_below_limit(self):
        batch = make_group([[1.0, 1.0], [0.0, 0.0]], [1.0, 0.0])
        check_divergence(batch)

    def test_triggers_below_the_inverse_limit(self):
        # the only ratio outside the band is below 1/limit
        batch = make_group([[0.0, 0.0], [-BIG, 0.0]], [1.0, 0.0])
        with pytest.raises(DivergenceError, match=r"^token ratio exp\(14\.8\)") as error:
            check_divergence(batch)
        assert error.value.rollout == 1

    def test_token_band_reported_before_rho(self):
        # rho of rollout 1 is above the limit too; the token band names it
        batch = make_group([[0.0, 0.0], [BIG, BIG]], [1.0, 0.0])
        with pytest.raises(DivergenceError, match=r"^token ratio exp\(14\.8\)"):
            check_divergence(batch)

    def test_token_band_trips_with_rho_inside(self):
        # geometric mean of r and 1/r is 1: only the token band can catch it
        batch = make_group([[BIG, -BIG], [0.0, 0.0]], [1.0, 0.0])
        with pytest.raises(DivergenceError, match="^token ratio"):
            check_divergence(batch)

    def test_first_offending_rollout_wins(self):
        # rollouts 2 and 3 both leave the band; rollout 2 is reported
        batch = make_group([[0.0, 0.0], [0.0, 0.0], [0.0, -15.5], [16.0, 0.0]],
                           [1.0, 0.0, 1.0, 0.0])
        with pytest.raises(DivergenceError, match=r"^token ratio exp\(15\.5\)") as error:
            check_divergence(batch)
        assert error.value.rollout == 2

    def test_non_finite_rows_are_left_to_the_kernel(self):
        # holder_rows raises DomainError for them, in batch_terms
        logs = np.array([[0.0, np.inf], [np.nan, 0.0], [-np.inf, BIG], [0.0, BIG]])
        errors = _divergences(logs, 1)
        assert list(errors) == [0] and errors[0].rollout == 3

    def test_each_run_reports_its_own_first_row(self):
        """The rows form one equal block per run; each block that trips gets
        its own error, its rollout counted within the block."""
        logs = np.zeros((6, 2))
        logs[3, 1], logs[4, 0], logs[5, 0] = 15.5, -16.0, 17.0
        errors = _divergences(logs, 3)
        assert list(errors) == [1, 2]
        assert [errors[k].rollout for k in (1, 2)] == [1, 0]
        assert str(errors[1]).startswith("token ratio exp(15.5)")
        assert str(errors[2]).startswith("token ratio exp(16)")


class TestTrain:
    def small_config(self, **overrides):
        base = dict(
            rollouts_per_round=16, group_size=4, minibatch_size=2,
            updates_per_round=2, total_rounds=3, learning_rate=0.5,
            schedule=ScheduleSpec.constant(1.0, 5), seed=0,
        )
        base.update(overrides)
        return TrainConfig(**base)

    def test_emits_one_metric_per_update(self):
        log = train(self.small_config(), default_sparse_task())
        assert len(log.metrics) == 6
        assert [m.step for m in log.metrics] == list(range(6))

    def test_bit_reproducible(self):
        task = default_sparse_task()
        a = train(self.small_config(), task)
        b = train(self.small_config(), task)
        np.testing.assert_array_equal(a.final_policy.logits, b.final_policy.logits)
        assert [m.to_dict() for m in a.metrics] == [m.to_dict() for m in b.metrics]

    def test_seed_changes_trajectory(self):
        task = default_sparse_task()
        a = train(self.small_config(seed=0), task)
        b = train(self.small_config(seed=1), task)
        assert a.final_success != b.final_success

    def test_schedule_drives_p_column(self):
        spec = ScheduleSpec(2.0, -2.0, 5, "linear", "descending")
        log = train(self.small_config(schedule=spec), default_sparse_task())
        ps = [m.p_value for m in log.metrics]
        assert ps[0] == 2.0
        assert ps[-1] == -2.0
        assert np.all(np.diff(ps) <= 0.0)

    def test_short_schedule_holds_final_value(self):
        spec = ScheduleSpec(2.0, 0.0, 2, "linear", "descending")
        log = train(self.small_config(schedule=spec), default_sparse_task())
        assert [m.p_value for m in log.metrics][2:] == [0.0] * 4

    def test_learning_moves_success_up(self):
        task = default_sparse_task()
        config = trend_config(ScheduleSpec.constant(1.0, 71), seed=0)
        log = train(config, task)
        assert log.final_success > 3.0 / 16.0  # from 1/16 at init

    def test_all_regimes_run(self):
        task = default_sparse_task()
        for regime in ("none", "token", "sequence"):
            log = train(self.small_config(clipping_regime=regime), task)
            assert np.all(np.isfinite(log.final_policy.logits))

    @pytest.mark.parametrize(
        "regime, estimator",
        [
            ("none", lambda mb, pol, order, clip: grad_estimator_unclipped(
                mb, pol, order)),
            ("sequence", grad_estimator_seq_clip),
            ("token", grad_estimator_token_clip),
        ],
    )
    def test_updates_match_per_group_api(self, regime, estimator):
        """Replays train with sample_group, refresh_logprobs and the
        grad_estimator_* functions, one group at a time.  Eight updates per
        round use each group twice, so the second pass is off-policy and
        the gates fire."""
        task = default_sparse_task()
        config = self.small_config(
            clipping_regime=regime, learning_rate=5.0, updates_per_round=8,
            schedule=ScheduleSpec(2.0, -2.0, 7, "linear", "descending"),
        )
        log = train(config, task)
        clip = ClipConfig(config.clip_epsilon)
        policy = PolicyParams.uniform(task.length, task.vocab)
        metrics = iter(log.metrics)
        for round_idx in range(config.total_rounds):
            groups = [
                sample_group(policy, task, config.group_size, [
                    _rollout_rng(config.seed, round_idx, g, i)
                    for i in range(config.group_size)
                ])
                for g in range(config.num_groups)
            ]
            for update_idx in range(config.updates_per_round):
                logged = next(metrics)
                lo = update_idx * config.minibatch_size
                minibatch = [
                    refresh_logprobs(groups[(lo + k) % config.num_groups], policy)
                    for k in range(config.minibatch_size)
                ]
                est = estimator(minibatch, policy, HolderOrder(logged.p_value), clip)
                assert est.clip_fraction == logged.clip_fraction
                step = config.learning_rate * est.vector.reshape(policy.logits.shape)
                policy = PolicyParams(policy.logits + step)
        np.testing.assert_allclose(
            log.final_policy.logits, policy.logits, rtol=1e-12, atol=1e-12
        )
        clipped = any(m.clip_fraction > 0.0 for m in log.metrics)
        assert clipped == (regime != "none")

    def test_initial_policy_respected(self):
        task = default_sparse_task()
        start = PolicyParams(np.full((8, 16), 0.3))
        log = train(self.small_config(learning_rate=1e-9), task, start)
        np.testing.assert_allclose(log.final_policy.logits, 0.3, atol=1e-6)


class TestTrainMany:
    def config(self, **overrides):
        """Off-policy enough that token clipping fires."""
        return TestTrain().small_config(**{
            "clipping_regime": "token", "learning_rate": 5.0, "updates_per_round": 8,
            "schedule": ScheduleSpec(2.0, -2.0, 7, "linear", "descending"),
            **overrides,
        })

    def test_members_equal_solo_runs_from_an_initial_policy(self, rng):
        task = default_sparse_task()
        start = PolicyParams(rng.normal(scale=0.5, size=(8, 16)))
        initial = start.logits.copy()
        configs = [
            self.config(),
            self.config(seed=1, schedule=ScheduleSpec.constant(0.0, 7)),
            self.config(seed=1, schedule=ScheduleSpec.constant(-1.5, 7)),
        ]
        for config, log in zip(configs, train_many(configs, task, start)):
            assert_same_run(log, train(config, task, start))
        assert_same_run(train_many(configs[:1], task, start)[0],
                        train(configs[0], task, start))
        np.testing.assert_array_equal(start.logits, initial)

    @pytest.mark.parametrize("uniforms_per_block", [1, 256])
    def test_uniform_blocks_move_no_bit(self, monkeypatch, uniforms_per_block):
        """Drawn one round per block, or in blocks of two rounds whose last is
        short, the stack runs as it does with all three rounds in one block:
        each round reads its own rows of its block."""
        task = default_sparse_task()
        configs = [self.config(), self.config(seed=1)]
        want = train_many(configs, task)
        monkeypatch.setattr(sim, "_UNIFORMS_PER_BLOCK", uniforms_per_block)
        for got, ref in zip(train_many(configs, task), want):
            assert_same_run(got, ref)

    @pytest.mark.parametrize("name, value", [
        ("learning_rate", 0.25), ("clipping_regime", "none"), ("total_rounds", 2),
        ("group_size", 2), ("clip_epsilon", 0.1),
    ])
    def test_only_seed_and_schedule_may_differ(self, name, value):
        configs = [self.config(), self.config(seed=3, **{name: value})]
        with pytest.raises(DomainError, match=name):
            train_many(configs, default_sparse_task())

    def test_empty_stack_rejected(self):
        with pytest.raises(DomainError):
            train_many([], default_sparse_task())

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (0, 3, 2, 1)])
    def test_lowest_diverged_run_raises_its_solo_error(self, order):
        """Two of four runs diverge, at different updates; the stack raises
        what the lowest-index one raises alone, the error a loop of solo
        runs meets first."""
        task = TaskSpec(kind="sparse", length=6, vocab=8, key_position=2, key_token=3)
        base = TrainConfig(
            rollouts_per_round=16, group_size=4, minibatch_size=2,
            updates_per_round=8, total_rounds=10, learning_rate=100.0,
            clipping_regime="none", schedule=ScheduleSpec.constant(2.0, 79),
        )
        members = [
            base,
            replace(base, seed=1, schedule=ScheduleSpec.constant(-5.0, 79)),
            replace(base, seed=1, schedule=ScheduleSpec.constant(1.0, 79)),
            replace(base, schedule=ScheduleSpec.constant(5.0, 79)),
        ]
        configs = [members[k] for k in order]
        train(configs[0], task)
        train(configs[2], task)
        with pytest.raises(DivergenceError) as solo:
            train(configs[1], task)
        with pytest.raises(DivergenceError) as other:
            train(configs[3], task)
        assert str(solo.value) != str(other.value)
        with pytest.raises(DivergenceError) as stacked:
            train_many(configs, task)
        assert str(stacked.value) == str(solo.value)

    @staticmethod
    def leave_mid_run(monkeypatch, configs, diverging):
        """Trains `configs` as one stack, in which the runs equal to
        `diverging` diverge and the others survive: the stack must raise the
        solo error of `diverging`, rollout index included, while each
        survivor updates exactly as it does alone, before the diverging runs
        leave the stack and after; returns the number of updates the stack
        took with every run, and the row coefficients of each of its
        updates."""
        steps = []  # (policies, gradient, row coefficients) of every update, in order

        def recording(policies, minibatch, terms, plan,
                      policy_gradient=sim.policy_gradient):
            gradient = policy_gradient(policies, minibatch, terms, plan)
            steps.append((policies.logits.copy(), gradient, terms.row_coef))
            return gradient

        monkeypatch.setattr(sim, "policy_gradient", recording)
        task = TaskSpec(kind="sparse", length=6, vocab=8, key_position=2, key_token=3)
        survivors = [k for k, config in enumerate(configs) if config != diverging]
        solo_steps = []
        for run in survivors:
            steps.clear()
            train(configs[run], task)
            solo_steps.append(list(steps))
        steps.clear()
        with pytest.raises(DivergenceError) as solo:
            train(diverging, task)
        diverged_at = len(steps)
        steps.clear()
        with pytest.raises(DivergenceError) as stacked:
            train_many(configs, task)
        assert str(stacked.value) == str(solo.value)
        assert stacked.value.rollout == solo.value.rollout
        assert [len(policies) for policies, *_ in steps] == (
            [len(configs)] * diverged_at + [len(survivors)] * (len(steps) - diverged_at))
        for k, run in enumerate(survivors):
            assert len(solo_steps[k]) == len(steps)
            for (policies, gradient, _), (solo, solo_gradient, _) in zip(steps, solo_steps[k]):
                row = run if len(policies) == len(configs) else k
                np.testing.assert_array_equal(policies[row], solo[0])
                np.testing.assert_array_equal(gradient[row], solo_gradient[0])
        return diverged_at, [coef for *_, coef in steps]

    @staticmethod
    def token_clip_config():
        """Token clipping, and a round's two minibatches each taken by four
        of its eight updates."""
        return TrainConfig(
            rollouts_per_round=16, group_size=4, minibatch_size=2,
            updates_per_round=8, total_rounds=10, learning_rate=100.0,
            clipping_regime="token", schedule=ScheduleSpec.constant(2.0, 79),
        )

    def test_runs_diverging_together_leave_together(self, monkeypatch):
        """Two identical runs of four diverge at the same update: both leave
        the stack at once, the other two go on exactly as they do alone, and
        the error raised is the solo run's, rollout index included."""
        base = TrainConfig(
            rollouts_per_round=16, group_size=4, minibatch_size=2,
            updates_per_round=8, total_rounds=10, learning_rate=100.0,
            clipping_regime="none", schedule=ScheduleSpec.constant(2.0, 79),
        )
        diverging = replace(base, seed=1, schedule=ScheduleSpec.constant(-5.0, 79))
        other = replace(base, seed=1, schedule=ScheduleSpec.constant(1.0, 79))
        self.leave_mid_run(monkeypatch, [base, diverging, diverging, other], diverging)

    def test_token_clip_runs_leave_mid_round(self, monkeypatch):
        """Under token clipping, with each of a round's two minibatches
        taken by four of its eight updates, two runs diverge in the middle
        of a round: the update at which they leave, and the updates after
        it, take minibatches that were selected, and their ids turned into
        positions, for the four-run stack.  The survivors still equal their
        solo runs bit for bit."""
        base = self.token_clip_config()
        diverging = replace(base, schedule=ScheduleSpec.constant(5.0, 79))
        other = replace(base, seed=3, schedule=ScheduleSpec.constant(0.0, 79))
        diverged_at, coefficients = self.leave_mid_run(
            monkeypatch, [base, diverging, diverging, other], diverging)
        # both minibatches were selected before the runs left, and each is
        # taken again by a later update of the same round
        assert 2 <= diverged_at % base.updates_per_round < base.updates_per_round - 2
        # the last survivor has live rows when the others leave, so scoring
        # them at the positions of a run that left would show
        assert coefficients[diverged_at].reshape(2, -1)[1].any()

    @pytest.mark.parametrize("diverging_first", [True, False])
    def test_two_runs_shrink_to_one_mid_round(self, monkeypatch, diverging_first):
        """A two-run stack loses one run in the middle of a round, in either
        order: from then on the survivor's minibatches are slices of the
        round rebuilt for it alone, and it still equals its solo run bit
        for bit; the stack raises the diverged run's solo error."""
        base = self.token_clip_config()
        diverging = replace(base, schedule=ScheduleSpec.constant(5.0, 79))
        survivor = replace(base, seed=3, schedule=ScheduleSpec.constant(0.0, 79))
        configs = [diverging, survivor] if diverging_first else [survivor, diverging]
        diverged_at, coefficients = self.leave_mid_run(monkeypatch, configs, diverging)
        assert 2 <= diverged_at % base.updates_per_round < base.updates_per_round - 2
        assert coefficients[diverged_at].any()

    def test_ids_become_positions_once_per_round(self, monkeypatch):
        """The sampler turns a round's ids into positions, and every
        minibatch of the round reads its rows of them: ``positions`` runs
        once per round, in a solo run and in a stack of three."""
        calls = []

        def counting(policy, token_ids, positions=PolicyParams.positions):
            calls.append(np.shape(token_ids))
            return positions(policy, token_ids)

        monkeypatch.setattr(PolicyParams, "positions", counting)
        configs = [self.config(seed=seed) for seed in range(3)]
        rows, rounds = configs[0].rollouts_per_round, configs[0].total_rounds
        train(configs[0], default_sparse_task())
        assert calls == [(rows, 8)] * rounds
        calls.clear()
        train_many(configs, default_sparse_task())
        assert calls == [(3 * rows, 8)] * rounds

    @staticmethod
    def count_plans(monkeypatch):
        """The row count of the batch of every ``minibatch_plan`` call
        ``train_many`` makes, in order."""
        calls = []

        def counting(batch, positions, policy, regime, minibatch_plan=sim.minibatch_plan):
            calls.append(batch.advantages.size)
            return minibatch_plan(batch, positions, policy, regime)

        monkeypatch.setattr(sim, "minibatch_plan", counting)
        return calls

    def test_each_minibatch_is_planned_once_per_round(self, monkeypatch):
        """A round's two minibatches, each taken by four of its eight
        updates, are planned once each: in a solo run and in a stack of
        three."""
        calls = self.count_plans(monkeypatch)
        base = self.token_clip_config()
        configs = [replace(base, seed=seed, schedule=ScheduleSpec.constant(0.0, 79))
                   for seed in range(3)]
        rows = base.minibatch_size * base.group_size
        train(configs[0], default_sparse_task())
        assert calls == [rows] * 2 * base.total_rounds
        calls.clear()
        train_many(configs, default_sparse_task())
        assert calls == [3 * rows] * 2 * base.total_rounds

    def test_minibatches_planned_again_when_runs_leave(self, monkeypatch):
        """When two runs of four leave mid-round, the minibatches the round
        had planned for four runs are planned again for the two kept, and
        each later round plans its two once, for the two."""
        calls = self.count_plans(monkeypatch)
        task = TaskSpec(kind="sparse", length=6, vocab=8, key_position=2, key_token=3)
        base = self.token_clip_config()
        diverging = replace(base, schedule=ScheduleSpec.constant(5.0, 79))
        other = replace(base, seed=3, schedule=ScheduleSpec.constant(0.0, 79))
        rows = base.minibatch_size * base.group_size
        with pytest.raises(DivergenceError):
            train(diverging, task)
        # the solo run plans both minibatches of every round it reaches
        rounds_before = len(calls) // 2
        assert calls == [rows] * 2 * rounds_before
        calls.clear()
        with pytest.raises(DivergenceError):
            train_many([base, diverging, diverging, other], task)
        assert calls == ([4 * rows] * 2 * rounds_before
                         + [2 * rows] * 2 * (base.total_rounds - rounds_before + 1))


class TestDefaultTasks:
    def test_sparse_shape(self):
        task = default_sparse_task()
        assert (task.length, task.vocab) == (8, 16)

    def test_dense_is_conjunctive(self):
        task = default_dense_task()
        assert task.kind == "dense"
        assert task.dense_threshold == 1
        assert len(task.target_sequence) == task.length
        # the all-but-one-correct event is reachable from uniform init
        p0 = success_probability(
            PolicyParams.uniform(task.length, task.vocab), task
        )
        assert p0 > 0.01
