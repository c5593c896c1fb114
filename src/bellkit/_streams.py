"""The per-shot random streams of many shots at once, in numpy integer arithmetic.

Shot i of a run with master seed s draws from
``numpy.random.Generator(PCG64(SeedSequence([s, i])))`` (`engine.derive_rng`).
`block_rows` computes those draws for a block of consecutive shot indices
together, bit for bit: SeedSequence's entropy mixing and state generation,
PCG64's seeding, 128-bit steps and XSL-RR output, and ``Generator.random()``'s
``(x >> 11) * 2**-53``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .circuit import MAX_SEED


# numpy's SeedSequence (hashmix/mix over a 4-word pool of uint32) and PCG64
# (128-bit LCG, XSL-RR output) constants.  Each hashmix call t multiplies by
# the t-th power of its multiplier, so call t's constants are fixed: hash
# constants t and t + 1, held here as columns that broadcast over shots.
_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_POOL = 4


def _hash_constants(init: int, mult: int, first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply columns of hashmix calls first..first+count-1."""
    consts = np.array([init * pow(mult, t, 2**32) % 2**32 for t in range(first, first + count + 1)], np.uint32)
    return consts[:-1, None], consts[1:, None]


_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_ENTROPY_HASH = _hash_constants(_INIT_A, _MULT_A, 0, _POOL)  # hashmix calls 0..3: one per entropy word
# Mixing round `src` hashes pool[src] once for each other word, calls 4 + 3 * src onward.
_ROUNDS = tuple(
    (src, np.array([dst for dst in range(_POOL) if dst != src]), *_hash_constants(_INIT_A, _MULT_A, _POOL + 3 * src, 3))
    for src in range(_POOL)
)
_OUTPUT_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 0, 2 * _POOL)  # generate_state's 8 uint32 words
_OUTPUT_SOURCE = np.arange(2 * _POOL) % _POOL  # ... taken from the pool words in turn
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MULT_HI, _MULT_LO = _U(_PCG_MULT >> 64), _U(_PCG_MULT & (2**64 - 1))
_MULT_LO_0, _MULT_LO_1 = _U(_PCG_MULT & 0xFFFFFFFF), _U(_PCG_MULT >> 32 & 0xFFFFFFFF)
_TO_UNIT = 1.0 / 9007199254740992.0  # 2**-53, as in Generator.random()


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """One hashmix call per row of the constant columns, in uint32 (which wraps mod 2**32)."""
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> 16)


def _lcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """(hi, lo) * _PCG_MULT + (inc_hi, inc_lo) mod 2**128, multiplying in 32-bit limbs."""
    lo0, lo1 = lo & _M32, lo >> _U(32)
    t = lo1 * _MULT_LO_0 + ((lo0 * _MULT_LO_0) >> _U(32))
    u = lo0 * _MULT_LO_1 + (t & _M32)
    carry_mul = lo1 * _MULT_LO_1 + (t >> _U(32)) + (u >> _U(32))  # high word of lo * _MULT_LO
    hi = hi * _MULT_LO + lo * _MULT_HI + carry_mul
    lo = lo * _MULT_LO + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


def block_rows(seed: int, start: int, stop: int) -> Iterator[np.ndarray]:
    """The draws of shots start..stop-1, one row per step: row d holds each shot's d-th draw.

    Column j equals ``derive_rng(seed, start + j).random()`` called row by row,
    bit for bit.  Seeding happens here, once: the same SeedSequence entropy
    mixing and ``generate_state(4, uint64)`` (one row per pool word, one column
    per shot), then PCG64 seeding.  Each row asked for steps every column once.
    Words past an index's own count are zero, as SeedSequence pads them, so one
    block may straddle 2**32.
    """
    if not (0 <= seed <= MAX_SEED and 0 <= start <= stop <= 2**64):
        raise ValueError(f"block_rows needs a 64-bit seed and shot indices, got {seed}, {start}..{stop}")
    n = stop - start
    index = np.arange(n, dtype=np.uint64) + _U(start % 2**64)  # start is 2**64 only when n is 0
    seed_words = [seed & 0xFFFFFFFF] + ([seed >> 32] if seed >> 32 else [])
    pool = np.zeros((_POOL, n), dtype=np.uint32)
    pool[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    pool[len(seed_words)] = index  # the low word: assigning to uint32 drops the high one
    pool[len(seed_words) + 1] = index >> _U(32)
    pool = _hashmix(pool, *_ENTROPY_HASH)
    for src, dst, xor, mult in _ROUNDS:
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor, mult))
    words = _hashmix(pool[_OUTPUT_SOURCE], *_OUTPUT_HASH).astype(np.uint64)
    state_hi, state_lo, seq_hi, seq_lo = words[0::2] | (words[1::2] << _U(32))
    # PCG64 seeding: inc = seq << 1 | 1; state = 0, step, += initstate, step.
    inc_hi, inc_lo = (seq_hi << _U(1)) | (seq_lo >> _U(63)), (seq_lo << _U(1)) | _U(1)
    lo = inc_lo + state_lo
    hi, lo = _lcg_step(inc_hi + state_hi + (lo < state_lo), lo, inc_hi, inc_lo)
    return _pcg64_rows(hi, lo, inc_hi, inc_lo)


def _pcg64_rows(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray) -> Iterator[np.ndarray]:
    """Step every column, then yield its XSL-RR output as ``(x >> 11) * 2**-53``; forever."""
    while True:
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> _U(58)
        yield (((x >> rot) | (x << ((_U(64) - rot) & _U(63)))) >> _U(11)) * _TO_UNIT

