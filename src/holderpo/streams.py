"""All of a round's rollout uniforms in one vectorised pass.

Rollout i of group g in round r draws its sampling uniforms from
``Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(r, g, i))))``.
``round_uniforms`` returns exactly those bits for every rollout of a round
without building a SeedSequence or a Generator per rollout:

- SeedSequence: the run-entropy words depend on the seed alone and are mixed
  once with Python ints; the spawn-key words are then mixed into a pool of
  uint32 arrays, one row per rollout, and the pool is hashed into the four
  64-bit words that seed PCG64.
- PCG64: seeding leaves the 128-bit state at M*(s + inc) + inc, so draw t
  (1-based) is the XSL-RR output of M^(t+1)*s + C_(t+2)*inc mod 2^128, with
  C_k = 1 + M + ... + M^(k-1).  Both constants are computed per call with
  Python ints and applied to every (rollout, draw) pair at once.
- Generator.random: (output >> 11) * 2^-53.

The constants and the order of every mixing step follow numpy's
``bit_generator.pyx`` and ``pcg64.h``; the tests compare against the
per-rollout reference ``sim._rollout_rng``.
"""

from __future__ import annotations

import operator

import numpy as np

from holderpo.core import DomainError

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

# PCG64
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2^-53


def _words(value: int, name: str) -> list[int]:
    """Little-endian uint32 words of a non-negative int (one word for 0)."""
    value = operator.index(value)
    if value < 0:
        raise DomainError(f"{name} must be a non-negative integer, got {value}")
    words = []
    while True:
        words.append(value & _MASK32)
        value >>= 32
        if not value:
            return words


def _wrap(value):
    """Reduce mod 2^32: Python ints need it, uint32 arrays wrap by themselves."""
    return value & _MASK32 if isinstance(value, int) else value


def _hashmix(value, const, next_const):
    value = _wrap((value ^ const) * next_const)
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = _wrap(_wrap(_MIX_MULT_L * x) - _wrap(_MIX_MULT_R * y))
    return result ^ (result >> _XSHIFT)


class _Hash:
    """SeedSequence's hash with its evolving multiplier: each hashed word
    advances the multiplier once, exactly as numpy's ``hash_const`` does."""

    def __init__(self, init: int, mult: int):
        self.const = init
        self.mult = mult

    def _next(self) -> int:
        const = self.const
        self.const = (const * self.mult) & _MASK32
        return const

    def __call__(self, value: int) -> int:
        const = self._next()
        return _hashmix(value, const, self.const)

    def take(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The next `count` multipliers and their successors as uint32
        arrays, for hashing `count` words at once along the last axis."""
        consts = [self._next() for _ in range(count)] + [self.const]
        consts = np.array(consts, dtype=np.uint32)
        return consts[:-1], consts[1:]


def _seed_pool(entropy: list[int]) -> tuple[list[int], _Hash]:
    """SeedSequence.mix_entropy on Python ints: the pool after `entropy`, and
    the hash ready to mix further words."""
    hash_a = _Hash(_INIT_A, _MULT_A)
    pool = [hash_a(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_a(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        pool = [_mix(cell, hash_a(word)) for cell in pool]
    return pool, hash_a


def _pcg_constants(length: int) -> tuple[np.ndarray, np.ndarray]:
    """uint64 (hi, lo) halves of M^(t+1) (row 0) and C_(t+2) (row 1) for
    t = 1..length, each shaped (2, 1, length)."""
    power, total = _PCG_MULT, 1 + _PCG_MULT  # M^1 and C_2
    consts = [[], []]
    for _ in range(length):
        power = (power * _PCG_MULT) & _MASK128
        total = (total + power) & _MASK128
        consts[0].append(power)
        consts[1].append(total)
    hi = np.array([[c >> 64 for c in row] for row in consts], dtype=np.uint64)
    lo = np.array([[c & _MASK64 for c in row] for row in consts], dtype=np.uint64)
    return hi[:, None, :], lo[:, None, :]


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """(a * b) mod 2^128 on uint64 (hi, lo) halves.  The high half of the
    64x64 product a_lo * b_lo comes from 32-bit partial products, whose sums
    cannot overflow 64 bits."""
    a0, a1 = a_lo & _MASK32, a_lo >> 32
    b0, b1 = b_lo & _MASK32, b_lo >> 32
    low_carry = a1 * b0 + ((a0 * b0) >> 32)
    mid = (low_carry & _MASK32) + a0 * b1
    mul_hi = a1 * b1 + (low_carry >> 32) + (mid >> 32)
    return mul_hi + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def round_uniforms(seed: int, round_idx: int, num_groups: int, group_size: int,
                   length: int) -> np.ndarray:
    """(N, T) sampling uniforms of one round, N = num_groups * group_size:
    row g*G + i equals ``_rollout_rng(seed, round_idx, g, i).random(length)``
    bit for bit."""
    run = _words(seed, "seed")
    run += [0] * (_POOL_SIZE - len(run))
    pool, hash_a = _seed_pool(run + _words(round_idx, "round_idx"))
    pool = np.array(pool, dtype=np.uint32)
    for word in (np.arange(num_groups, dtype=np.uint32)[:, None, None],
                 np.arange(group_size, dtype=np.uint32)[None, :, None]):
        pool = _mix(pool, _hashmix(word, *hash_a.take(_POOL_SIZE)))
    # generate_state(4, uint64): cycle the pool into 8 hashed uint32 words,
    # read as little-endian pairs
    hash_b = _Hash(_INIT_B, _MULT_B)
    words = _hashmix(np.tile(pool, 2), *hash_b.take(2 * _POOL_SIZE))
    words = np.ascontiguousarray(words.reshape(-1, 2 * _POOL_SIZE), dtype="<u4")
    state = words.view("<u8").astype(np.uint64, copy=False)
    s_hi, s_lo, q_hi, q_lo = state.T

    # PCG64 seeding: inc = (initseq << 1) | 1; draw t is the XSL-RR output of
    # M^(t+1)*s + C_(t+2)*inc, both products taken at once on a stacked axis
    inc_hi, inc_lo = (q_hi << 1) | (q_lo >> 63), (q_lo << 1) | 1
    const_hi, const_lo = _pcg_constants(length)
    hi, lo = _mul128(np.stack([s_hi, inc_hi])[:, :, None],
                     np.stack([s_lo, inc_lo])[:, :, None], const_hi, const_lo)
    state_lo = lo[0] + lo[1]
    state_hi = hi[0] + hi[1] + (state_lo < lo[0])
    rot = state_hi >> 58
    value = state_hi ^ state_lo
    value = (value >> rot) | (value << ((64 - rot) & 63))
    return (value >> 11).astype(np.float64) * _DOUBLE_UNIT
