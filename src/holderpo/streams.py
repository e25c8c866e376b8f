"""A block of rounds' rollout uniforms in one vectorised pass.

Rollout i of group g in round r draws its sampling uniforms from
``Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(r, g, i))))``.
``block_uniforms`` returns exactly those bits for every rollout of a
contiguous block of rounds without building a SeedSequence or a Generator per
rollout:

- SeedSequence: the seed's own words are mixed once, on Python ints, into
  the pool ``SeedSequence(seed).pool`` holds, the state every rollout's
  sequence reaches before its spawn key.  The spawn-key words, one uint32
  each for round, group and rollout, are then mixed into a pool of uint32
  arrays with one axis per key word, and ``generate_state`` hashes the pool
  into the four 64-bit words that seed PCG64 for every rollout of the block.
  The hash multipliers form one fixed sequence, so the ones the key words
  need follow from the seed's word count: the seed, padded to the pool size,
  takes the first 4 * max(4, words).  No ``numpy.random`` is imported.
- PCG64: every rollout's 128-bit state advances at once by steps
  x <- M*x + inc.  The first step is seeding's last, from x = s + inc; each
  later step yields one draw, the XSL-RR output of the new state.
- Generator.random: (output >> 11) * 2^-53.

The constants and the order of every mixing step follow numpy's
``bit_generator.pyx`` and ``pcg64.h``; the tests compare against the
per-rollout reference ``sim._rollout_rng``.
"""

from __future__ import annotations

import operator

import numpy as np

from holderpo.core import DomainError

# SeedSequence
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF

# PCG64
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT % 2**64)
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2^-53


def _hashmix(value, init, mult, first, count):
    """numpy's hashmix of `value` as words first .. first + count - 1 of one
    hash, along a last axis of length `count`: word k is hashed as
    (value ^ c_k) * c_(k+1), xor-shifted, where c_k = init * mult^k mod 2^32."""
    consts = np.array([init * pow(mult, k, 2**32) % 2**32
                       for k in range(first, first + count + 1)], dtype=np.uint32)
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _seed_pool(seed: int) -> np.ndarray:
    """``SeedSequence(seed).pool`` on Python ints: numpy's mix_entropy over the
    seed's uint32 words, low word first, padded with zeros to the pool size.
    Each hash takes the next multiplier, as numpy's ``hash_const`` does."""
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return np.array(pool, dtype=np.uint32)


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """(a * b) mod 2^128 on uint64 (hi, lo) halves.  The high half of the
    64x64 product a_lo * b_lo comes from 32-bit partial products, whose sums
    cannot overflow 64 bits."""
    a0, a1 = a_lo & 0xFFFFFFFF, a_lo >> 32
    b0, b1 = b_lo & 0xFFFFFFFF, b_lo >> 32
    low_carry = a1 * b0 + ((a0 * b0) >> 32)
    mid = (low_carry & 0xFFFFFFFF) + a0 * b1
    mul_hi = a1 * b1 + (low_carry >> 32) + (mid >> 32)
    return mul_hi + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def block_uniforms(seed: int, first_round: int, rounds: int, num_groups: int,
                   group_size: int, length: int) -> np.ndarray:
    """(rounds, N, T) sampling uniforms of rounds first_round .. first_round +
    rounds - 1, N = num_groups * group_size: [r, g*G + i] equals
    ``_rollout_rng(seed, first_round + r, g, i).random(length)`` bit for bit.
    A round is one uint32 spawn-key word: from 2^32 on, DomainError, as
    is a negative seed."""
    seed = operator.index(seed)
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    if not 0 <= first_round <= (1 << 32) - rounds:
        raise DomainError(f"rounds {first_round} .. {first_round + rounds - 1} must be "
                          "non-negative and below 2^32, one uint32 spawn-key word each")
    pool = _seed_pool(seed)
    # the seed's words, padded to the pool size, took the first
    # 4 * max(4, words) multipliers; each spawn-key word takes the next 4
    used = _POOL_SIZE * max(_POOL_SIZE, -(-seed.bit_length() // 32))
    round_words = np.arange(first_round, first_round + rounds, dtype=np.uint32)
    for word in (round_words[:, None, None, None],
                 np.arange(num_groups, dtype=np.uint32)[:, None, None],
                 np.arange(group_size, dtype=np.uint32)[:, None]):
        pool = _mix(pool, _hashmix(word, _INIT_A, _MULT_A, used, _POOL_SIZE))
        used += _POOL_SIZE
    # generate_state(4, uint64): cycle the pool into 8 hashed uint32 words,
    # read as little-endian pairs
    words = _hashmix(np.tile(pool, 2), _INIT_B, _MULT_B, 0, 2 * _POOL_SIZE)
    words = np.ascontiguousarray(words.reshape(-1, 2 * _POOL_SIZE), dtype="<u4")
    state = words.view("<u8").astype(np.uint64, copy=False)
    s_hi, s_lo, q_hi, q_lo = state.T

    # PCG64: inc = (initseq << 1) | 1, x = s + inc, then T + 1 steps x <- M*x + inc:
    # the first ends the seeding, each later one gives a draw, XSL-RR of x
    inc_hi, inc_lo = (q_hi << 1) | (q_lo >> 63), (q_lo << 1) | 1
    x_lo = s_lo + inc_lo
    x_hi = s_hi + inc_hi + (x_lo < inc_lo)
    out = np.empty((len(state), length))
    for step in range(length + 1):
        x_hi, x_lo = _mul128(x_hi, x_lo, _PCG_MULT_HI, _PCG_MULT_LO)
        x_lo += inc_lo
        x_hi += inc_hi + (x_lo < inc_lo)
        if step:
            rot, value = x_hi >> 58, x_hi ^ x_lo
            out[:, step - 1] = ((value >> rot) | (value << ((64 - rot) & 63))) >> 11
    out *= _DOUBLE_UNIT
    return out.reshape(rounds, -1, length)
