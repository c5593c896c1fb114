"""The per-shot random streams of many shots at once, in numpy integer arithmetic.

Shot i of a run with master seed s draws from ``numpy.random.Generator(PCG64(SeedSequence([s, i])))``
(`engine.derive_rng`).  `block_rows` computes those draws for a block of consecutive shot indices
together, bit for bit: SeedSequence's entropy mixing and state generation, PCG64's seeding,
128-bit steps and XSL-RR output, and ``Generator.random()``'s ``(x >> 11) * 2**-53``.

The dtype rule: both operands of every integer op share one dtype (uint32 in SeedSequence's
pool, uint64 in PCG64), so each constant is a 0-d array or a column of that dtype.  Seeding
makes about a hundred numpy calls on a few words per shot, so call overhead dominates: a numpy
scalar operand (``np.uint64(32)``) costs about twice a 0-d array's, and a Python int is converted
on every call.  Equal dtypes also give equal bits on numpy 1 and 2: numpy 1 casts a 0-d or scalar
operand by value, numpy 2 (NEP 50) by dtype, so a uint64 constant would wrap a uint32 pool on one only.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator

import numpy as np

from .circuit import MAX_SEED

_u32, _u64 = partial(np.array, dtype=np.uint32), partial(np.array, dtype=np.uint64)


def _hash_constants(init: int, mult: int, calls) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply columns of hashmix calls `calls`: call t's are init * mult**t and **(t + 1)."""
    power = [init * pow(mult, t, 2**32) % 2**32 for t in range(max(calls) + 2)]
    return _u32([[power[t]] for t in calls]), _u32([[power[t + 1]] for t in calls])


# numpy's SeedSequence (hashmix/mix over a 4-word pool) and PCG64 (128-bit LCG, XSL-RR) constants.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_ENTROPY_HASH = _hash_constants(_INIT_A, _MULT_A, range(_POOL))  # calls 0..3: one per entropy word
# Mixing round `src` hashes pool[src] once for each other word, calls 4 + 3 * src onward.  It mixes
# the whole pool in one broadcast and puts row src back, so that row's constants go unused.
_ROUNDS = [(src, *_hash_constants(_INIT_A, _MULT_A, [_POOL + 3 * src + dst - (dst > src) for dst in range(_POOL)]))
           for src in range(_POOL)]
# generate_state's 8 words hash the pool words in turn: (2, 4, 1) constants against the (4, n) pool.
_OUTPUT_HASH = tuple(c.reshape(2, _POOL, 1) for c in _hash_constants(0x8B51F9DD, 0x58F38DED, range(2 * _POOL)))
_MIX_L, _MIX_R, _S16 = _u32(0xCA01F9DD), _u32(0x4973F715), _u32(16)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MULT_HI, _MULT_LO = _u64(_PCG_MULT >> 64), _u64(_PCG_MULT & (2**64 - 1))
_MULT_LO_0, _MULT_LO_1 = _u64(_PCG_MULT & 0xFFFFFFFF), _u64(_PCG_MULT >> 32 & 0xFFFFFFFF)
_M32, _ONE, _S11, _S32, _S58, _S63, _S64 = (_u64(v) for v in (0xFFFFFFFF, 1, 11, 32, 58, 63, 64))
_TO_UNIT = np.array(1.0 / 9007199254740992.0)  # 2**-53, as in Generator.random()


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """One hashmix call per row of the constant columns, in uint32 (which wraps mod 2**32)."""
    value = (value ^ xor) * mult
    return value ^ (value >> _S16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _S16)


def _lcg_step(hi: np.ndarray, lo: np.ndarray, inc: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) * _PCG_MULT + inc mod 2**128, in 32-bit limbs of lo; `inc` is (hi, lo, lo's two
    limbs).  `mid` is the high word of lo * _MULT_LO + inc_lo, the carry included, less lo1 *
    _MULT_LO_1: it cannot wrap, as _MULT_LO's two limbs sum to less than 2**32."""
    inc_hi, inc_lo, inc_lo0, inc_lo1 = inc
    lo0, lo1 = lo & _M32, lo >> _S32
    mid = lo0 * _MULT_LO_1 + lo1 * _MULT_LO_0 + inc_lo1 + ((lo0 * _MULT_LO_0 + inc_lo0) >> _S32)
    return hi * _MULT_LO + lo * _MULT_HI + inc_hi + lo1 * _MULT_LO_1 + (mid >> _S32), lo * _MULT_LO + inc_lo


def block_rows(seed: int, start: int, stop: int) -> Iterator[np.ndarray]:
    """The draws of shots start..stop-1, one row per step: row d holds each shot's d-th draw.

    Column j equals ``derive_rng(seed, start + j).random()`` called row by row, bit for bit.
    Seeding happens here, once: the same SeedSequence entropy mixing and ``generate_state(4,
    uint64)`` (one row per pool word, one column per shot), then PCG64 seeding.  Each row asked
    for steps every column once.  Words past an index's own count are zero, as SeedSequence pads
    them, so one block may straddle 2**32.
    """
    if not (0 <= seed <= MAX_SEED and 0 <= start <= stop <= 2**64):
        raise ValueError(f"block_rows needs a 64-bit seed and shot indices, got {seed}, {start}..{stop}")
    n = stop - start
    index = np.arange(n, dtype=np.uint64) + _u64(start % 2**64)  # start is 2**64 only when n is 0
    pool = np.zeros((_POOL, n), dtype=np.uint32)
    pool[0], pool[1] = seed & 0xFFFFFFFF, seed >> 32  # a one-word seed's row 1 is the index's
    first = 1 + (seed >> 32 > 0)
    pool[first] = index  # the low word: assigning to uint32 drops the high one
    pool[first + 1] = index >> _S32
    pool = _hashmix(pool, *_ENTROPY_HASH)
    for src, xor, mult in _ROUNDS:
        mixed = _mix(pool, _hashmix(pool[src], xor, mult))
        mixed[src] = pool[src]
        pool = mixed
    words = _hashmix(pool, *_OUTPUT_HASH).astype(np.uint64).reshape(_POOL, 2, n)
    state_hi, state_lo, seq_hi, seq_lo = words[:, 0] | (words[:, 1] << _S32)
    # PCG64 seeding: inc = seq << 1 | 1; state = 0, step, += initstate, step.
    inc_hi, inc_lo = (seq_hi << _ONE) | (seq_lo >> _S63), (seq_lo << _ONE) | _ONE
    inc = (inc_hi, inc_lo, inc_lo & _M32, inc_lo >> _S32)
    lo = inc_lo + state_lo
    return _pcg64_rows(*_lcg_step(inc_hi + state_hi + (lo < state_lo).astype(np.uint64), lo, inc), inc)


def _pcg64_rows(hi: np.ndarray, lo: np.ndarray, inc: tuple) -> Iterator[np.ndarray]:
    """Step every column, then yield its XSL-RR output as ``(x >> 11) * 2**-53``; forever."""
    while True:
        hi, lo = _lcg_step(hi, lo, inc)
        x, rot = hi ^ lo, hi >> _S58
        yield (((x >> rot) | (x << ((_S64 - rot) & _S63))) >> _S11) * _TO_UNIT
