"""The vectorised block streams against the per-rollout reference RNG."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holderpo.core import DomainError
from holderpo.sim import _UNIFORMS_PER_BLOCK, _rollout_rng
from holderpo.streams import _seed_pool, block_uniforms

LAST_ROUND = 2**32 - 1  # the largest round one uint32 spawn-key word holds


def reference(seed, first_round, rounds, num_groups, group_size, length):
    return np.array([
        [_rollout_rng(seed, r, g, i).random(length)
         for g in range(num_groups) for i in range(group_size)]
        for r in range(first_round, first_round + rounds)
    ])


# One 32-bit word, several words up to the pool size of 4, and more than 4
# words, which SeedSequence mixes in a separate loop.
seeds = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**128 - 1),
    st.integers(2**128, 2**256 - 1),
)


@st.composite
def blocks(draw):
    """(first round, count) with every round of the block below 2^32."""
    rounds = draw(st.integers(1, 4))
    return draw(st.integers(0, LAST_ROUND + 1 - rounds)), rounds


@given(
    seed=seeds,
    block=blocks(),
    num_groups=st.integers(1, 8),
    group_size=st.integers(1, 8),
    length=st.integers(1, 64),
)
@settings(max_examples=100, deadline=None)
# the largest seed of 1 and of 4 words, and the smallest of 2, 5 and 9
@example(seed=2**32 - 1, block=(0, 1), num_groups=2, group_size=3, length=5)
@example(seed=2**32, block=(0, 1), num_groups=2, group_size=3, length=5)
@example(seed=2**128 - 1, block=(0, 1), num_groups=2, group_size=3, length=5)
@example(seed=2**128, block=(0, 1), num_groups=2, group_size=3, length=5)
@example(seed=2**256, block=(0, 1), num_groups=2, group_size=3, length=5)
def test_rows_equal_per_rollout_streams(seed, block, num_groups, group_size, length):
    got = block_uniforms(seed, *block, num_groups, group_size, length)
    assert got.shape == (block[1], num_groups * group_size, length)
    assert np.array_equal(got, reference(seed, *block, num_groups, group_size, length))


@pytest.mark.parametrize(
    "seed",
    # 1, 2, 4, 5, 6 and 9 uint32 words: padded to the pool size, filling it,
    # and mixed in past it
    [0, 1, 2**32 - 1, 2**32, 2**128 - 1, 2**128, 2**160, 2**256],
)
def test_seed_pool_is_seed_sequence_pool(seed):
    pool = _seed_pool(seed)
    assert pool.dtype == np.uint32
    assert np.array_equal(pool, np.random.SeedSequence(seed).pool)


@pytest.mark.parametrize("first_round, rounds", [(LAST_ROUND, 1), (LAST_ROUND - 2, 3)])
def test_blocks_ending_at_the_last_round(first_round, rounds):
    got = block_uniforms(9, first_round, rounds, 2, 3, 5)
    assert np.array_equal(got, reference(9, first_round, rounds, 2, 3, 5))


def test_block_across_a_train_many_block_boundary():
    """The last round of the first block train_many draws for this shape
    and the first round of the second, as one block: each row is its
    rollout's own stream, as in the aligned blocks."""
    num_groups, group_size, length = 16, 8, 32
    per_block = _UNIFORMS_PER_BLOCK // (num_groups * group_size * length)
    assert 1 < per_block < 8
    got = block_uniforms(21, per_block - 1, 2, num_groups, group_size, length)
    assert np.array_equal(got, reference(21, per_block - 1, 2, num_groups, group_size,
                                         length))
    aligned = np.concatenate([
        block_uniforms(21, first, per_block, num_groups, group_size, length)
        for first in (0, per_block)
    ])
    assert np.array_equal(got, aligned[per_block - 1:per_block + 1])


@pytest.mark.parametrize(
    "num_groups, group_size, length",
    [(64, 8, 8), (8, 8, 32)],  # the sweep and long token-clip bench shapes
)
def test_workload_shapes(num_groups, group_size, length):
    got = block_uniforms(5, 14, 2, num_groups, group_size, length)
    assert np.array_equal(got, reference(5, 14, 2, num_groups, group_size, length))


@pytest.mark.parametrize("seed, first_round", [(-1, 0), (0, -1)])
def test_rejects_negative_entropy(seed, first_round):
    with pytest.raises(DomainError, match="non-negative"):
        block_uniforms(seed, first_round, 1, 2, 2, 4)


@pytest.mark.parametrize("first_round, rounds", [(LAST_ROUND + 1, 1), (LAST_ROUND, 2),
                                                 (2**40, 1)])
def test_rejects_rounds_beyond_one_uint32_word(first_round, rounds):
    with pytest.raises(DomainError, match=r"below 2\^32, one uint32 spawn-key word"):
        block_uniforms(0, first_round, rounds, 2, 2, 4)
