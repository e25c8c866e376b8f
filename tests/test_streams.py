"""The vectorised round streams against the per-rollout reference RNG."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holderpo.core import DomainError
from holderpo.sim import _rollout_rng
from holderpo.streams import round_uniforms


def reference(seed, round_idx, num_groups, group_size, length):
    return np.stack([
        _rollout_rng(seed, round_idx, g, i).random(length)
        for g in range(num_groups)
        for i in range(group_size)
    ])


# One 32-bit word, several words up to the pool size of 4, and more than 4
# words, which SeedSequence mixes in a separate loop.
seeds = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**128 - 1),
    st.integers(2**128, 2**256 - 1),
)


@given(
    seed=seeds,
    round_idx=st.integers(0, 2**32 - 1),
    num_groups=st.integers(1, 8),
    group_size=st.integers(1, 8),
    length=st.integers(1, 64),
)
@settings(max_examples=100, deadline=None)
def test_rows_equal_per_rollout_streams(seed, round_idx, num_groups, group_size,
                                        length):
    got = round_uniforms(seed, round_idx, num_groups, group_size, length)
    assert got.shape == (num_groups * group_size, length)
    assert np.array_equal(
        got, reference(seed, round_idx, num_groups, group_size, length)
    )


@pytest.mark.parametrize(
    "num_groups, group_size, length",
    [(64, 8, 8), (8, 8, 32)],  # the sweep and long token-clip bench shapes
)
def test_workload_shapes(num_groups, group_size, length):
    got = round_uniforms(5, 14, num_groups, group_size, length)
    assert np.array_equal(got, reference(5, 14, num_groups, group_size, length))


@pytest.mark.parametrize("seed, round_idx", [(-1, 0), (0, -1)])
def test_rejects_negative_entropy(seed, round_idx):
    with pytest.raises(DomainError, match="non-negative"):
        round_uniforms(seed, round_idx, 2, 2, 4)
