"""Measurement semantics and the deterministic shot engine.

Randomness contract
-------------------
Every shot draws from its own substream: shot i of a run with master seed s
uses ``numpy.random.Generator(PCG64(SeedSequence([s, i])))``.  The derivation
is platform-independent and independent of execution order.  Within a shot,
draws happen in program order: one uniform for a random-sign preparation,
then one uniform per genuinely probabilistic measurement.  Measurements whose
outcome probability is 0 or 1 within EPS_DET take a deterministic branch and
consume no draw, so adding or removing them never perturbs downstream sampling.

The only operation required of a random stream is ``random() -> float``
uniform on [0, 1); an outcome with probability p is realized when the draw
is strictly below p.  A shot thus depends on a draw only through the side of
p it falls on, so all shots walk one branch tree whose inner nodes are the
steps that draw.  A node is built on first visit by the shot code; a run
stores at most NODE_BUDGET nodes and runs the branches past them unstored.

`run` computes the same ``PCG64(SeedSequence([s, i]))`` draws for blocks of
shots at once (`draws`, numpy integer arithmetic, bit-exact with
``Generator.random()``) once a run has enough shots to repay a block's fixed
cost, and walks each block down the tree a level at a time: the shots at a
node split by one array comparison, and each child is built once for all of
them.  `derive_rng` and the one-shot `walk` stay the reference; shorter runs
use them per shot.
"""

from __future__ import annotations

import enum
import json
import operator
from collections import namedtuple
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterator, Optional, Protocol, Union

import numpy as np

from .bell import EPS_SEP, BellDescriptor, bell_state, separability_defect
from .circuit import (
    MAX_SEED,
    ApplyBellOperator,
    ApplyNamed,
    ApplyRaw,
    BasisPreparation,
    BellPreparation,
    BellRandomSignPreparation,
    CircuitProgram,
    MeasureRelative,
    MeasureValue,
    RawPreparation,
)
from .core import (
    Particle,
    TwoQubitOperator,
    TwoQubitState,
    apply2,
    basis_state,
    bell_operator,
    lift_a,
    lift_b,
    named_operator,
    normalize,
    projector,
)

__all__ = [
    "EPS_DET",
    "RandomStream",
    "RelativeBit",
    "RelativeBitResult",
    "MeasurementRecord",
    "ShotResult",
    "ShotStatistics",
    "relative_bit",
    "measure_relative",
    "measure_value",
    "derive_rng",
    "run_shot",
    "run",
    "outcome_key",
]

EPS_DET = 1e-9  # outcome probabilities within this of 0 or 1 are deterministic

NODE_BUDGET = 4096  # branch-tree nodes one run stores: a memory bound, not a knob
_BLOCK_BYTES = 2**20  # bounds the working set of one block's `draws` call
_DRAWS_BYTES = 256  # that working set per shot, besides 8 bytes per draw (tracemalloc, numpy 2.4)
_BULK_MIN_SHOTS = 24  # below this, a block's fixed cost exceeds per-shot derive_rng
_BULK_MAX_DRAWS = 64  # more steps that can draw run per shot: a block computes all k rows
_P_PLUS_SIGN = 0.5  # a random-sign preparation takes sign + when its draw is below this


class RandomStream(Protocol):
    def random(self) -> float: ...


class RelativeBit(enum.Enum):
    """Whether the two particles agree in value on the |00>/|11> diagonal."""

    SAME = "Same"
    DIFFERENT = "Different"


_RELATIVE_BITS = (RelativeBit.SAME, RelativeBit.DIFFERENT)


@dataclass(frozen=True)
class RelativeBitResult:
    """Outcome of the relative-value question.

    `bit` is None when the state has weight on both diagonals (indeterminate);
    `p_same` always carries |g00|^2 + |g11|^2.
    """

    bit: Optional[RelativeBit]
    p_same: float

    @property
    def determinate(self) -> bool:
        return self.bit is not None


@dataclass(frozen=True)
class MeasurementRecord:
    """One measurement event inside a shot.

    step_index is the 0-based position in the program's step list.
    projected_norm is the norm of the projected state before renormalization
    (1.0 on a deterministic relative branch, where the state is untouched).
    """

    step_index: int
    kind: str  # "relative" | "value"
    particle: Optional[Particle]
    outcome: Union[RelativeBit, int]
    probability: float
    projected_norm: float
    post_state: TwoQubitState


@dataclass(frozen=True)
class ShotResult:
    records: tuple[MeasurementRecord, ...]
    final_state: TwoQubitState


@dataclass(frozen=True)
class ShotStatistics:
    """Aggregated outcomes of a run; equality covers per-shot results too."""

    shots: int
    seed: int
    counts: dict[str, int]
    results: Optional[tuple[ShotResult, ...]] = None

    @property
    def frequencies(self) -> dict[str, float]:
        return {key: count / self.shots for key, count in self.counts.items()}

    def to_payload(self) -> dict:
        return {
            "shots": self.shots,
            "seed": self.seed,
            "counts": {key: self.counts[key] for key in sorted(self.counts)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True)


_First = tuple[float, Optional[int], Optional[TwoQubitState]]


def _first_outcome(s: TwoQubitState, particle: Optional[Particle]) -> _First:
    """First-outcome probability p (Same, or `particle` = 0), the outcome, 0 for
    the first or 1, that p makes certain within EPS_DET (None if it draws), and
    for a value measurement the projection onto `particle` = 0 that gave p."""
    if particle is None:
        p, projected = abs(s.g00) ** 2 + abs(s.g11) ** 2, None
    else:
        projected = apply2(projector(particle, 0), s)
        p = projected.norm() ** 2
    if p >= 1.0 - EPS_DET:
        return p, 0, projected
    if p <= EPS_DET:
        return p, 1, projected
    return p, None, projected


def relative_bit(s: TwoQubitState) -> RelativeBitResult:
    """Read the same/different bit without collapsing the state.

    Determinate iff the state lives on one diagonal: p_same within EPS_DET of
    1 gives SAME, of 0 gives DIFFERENT; anything else is indeterminate.
    """
    p_same, certain, _ = _first_outcome(s, None)
    return RelativeBitResult(None if certain is None else _RELATIVE_BITS[certain], p_same)


def measure_relative(
    s: TwoQubitState,
    rng: Optional[RandomStream],
    step_index: int = 0,
    *,
    first: Optional[_First] = None,
) -> tuple[MeasurementRecord, TwoQubitState]:
    """Measure the same/different bit, collapsing onto the realized diagonal.

    Deterministic inputs (one diagonal empty within EPS_DET) consume no draw
    and pass the state through unchanged.  `first` is ``_first_outcome(s,
    None)`` when the caller has already computed it.
    """
    p_same, outcome, _ = _first_outcome(s, None) if first is None else first
    if outcome is not None:
        post, probability, projected_norm = s, 1.0, 1.0
    else:
        if rng.random() < p_same:
            outcome, probability, projected = 0, p_same, TwoQubitState(s.g00, 0j, 0j, s.g11)
        else:
            outcome, probability = 1, abs(s.g01) ** 2 + abs(s.g10) ** 2
            projected = TwoQubitState(0j, s.g01, s.g10, 0j)
        projected_norm = projected.norm()
        post = normalize(projected)
    record = MeasurementRecord(
        step_index=step_index,
        kind="relative",
        particle=None,
        outcome=_RELATIVE_BITS[outcome],
        probability=probability,
        projected_norm=projected_norm,
        post_state=post,
    )
    return record, post


def measure_value(
    s: TwoQubitState,
    particle: Particle,
    rng: Optional[RandomStream],
    step_index: int = 0,
    *,
    first: Optional[_First] = None,
) -> tuple[MeasurementRecord, TwoQubitState]:
    """Projectively measure one particle's value (Born rule).

    Probabilities within EPS_DET of 0 or 1 take the deterministic branch and
    consume no draw.  The record keeps the projected state's norm before
    renormalization.  The post-state is always a product state: projection
    zeroes one row of the coefficient matrix, so the defect vanishes.
    `first` is ``_first_outcome(s, particle)`` when the caller has already
    computed it; its projection may be None.
    """
    p0, certain, projected = _first_outcome(s, particle) if first is None else first
    outcome = (0 if rng.random() < p0 else 1) if certain is None else certain
    if outcome == 1 or projected is None:
        projected = apply2(projector(particle, outcome), s)
    projected_norm = projected.norm()
    probability = projected_norm**2 if certain is None else 1.0
    post = normalize(projected)
    defect = separability_defect(post)
    if defect > EPS_SEP:
        raise ArithmeticError(f"post-measurement state is not a product state (defect {defect:.3g})")
    record = MeasurementRecord(
        step_index=step_index,
        kind="value",
        particle=particle,
        outcome=outcome,
        probability=probability,
        projected_norm=projected_norm,
        post_state=post,
    )
    return record, post


def derive_rng(seed: int, shot_index: int) -> np.random.Generator:
    """The documented substream for one shot: PCG64(SeedSequence([seed, i]))."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, shot_index])))


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


def draws(seed: int, start: int, stop: int, k: int) -> np.ndarray:
    """The first `k` draws of shots start..stop-1, as a (k, stop - start) array.

    Column j equals ``derive_rng(seed, start + j).random(k)`` bit for bit: the
    same SeedSequence entropy mixing and ``generate_state(4, uint64)`` (one row
    per pool word, one column per shot), PCG64 seeding and steps, and
    ``(x >> 11) * 2**-53``.  Words past an index's own count are zero, as
    SeedSequence pads them, so one block may straddle 2**32.
    """
    if not (0 <= seed <= MAX_SEED and 0 <= start <= stop <= 2**64):
        raise ValueError(f"draws needs a 64-bit seed and shot indices, got {seed}, {start}..{stop}")
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
    out = np.empty((k, n))
    for row in range(k):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> _U(58)
        out[row] = ((x >> rot) | (x << ((_U(64) - rot) & _U(63)))) >> _U(11)
    out *= _TO_UNIT
    return out


def _prepare(program: CircuitProgram, rng: RandomStream) -> TwoQubitState:
    prep = program.preparation
    if isinstance(prep, BasisPreparation):
        return basis_state(prep.index)
    if isinstance(prep, BellPreparation):
        return bell_state(prep.descriptor)
    if isinstance(prep, BellRandomSignPreparation):
        sign = 1 if rng.random() < _P_PLUS_SIGN else -1
        return bell_state(BellDescriptor(prep.bell_class, sign, prep.s0))
    if isinstance(prep, RawPreparation):
        return prep.state
    raise TypeError(f"unknown preparation {prep!r}")


def _lift_for(particle: Particle, op) -> TwoQubitOperator:
    return lift_a(op) if particle == "A" else lift_b(op)


def _compiled_steps(program: CircuitProgram) -> list[tuple]:
    """Resolve each step to an action tag plus a precomputed operator."""
    compiled: list[tuple] = []
    for index, step in enumerate(program.steps):
        if isinstance(step, ApplyNamed):
            compiled.append(("apply", _lift_for(step.particle, named_operator(step.name))))
        elif isinstance(step, ApplyBellOperator):
            compiled.append(("apply", bell_operator()))
        elif isinstance(step, ApplyRaw):
            compiled.append(("apply", _lift_for(step.particle, step.operator)))
        elif isinstance(step, MeasureRelative):
            compiled.append(("measure", index, None))
        elif isinstance(step, MeasureValue):
            compiled.append(("measure", index, step.particle))
        else:
            raise TypeError(f"unknown step {step!r}")
    return compiled


def outcome_key(records: tuple[MeasurementRecord, ...]) -> str:
    """Canonical counts key: comma-joined outcome tokens, or "none"."""
    if not records:
        return "none"
    tokens = []
    for r in records:
        if r.kind == "relative":
            if not isinstance(r.outcome, RelativeBit):
                raise TypeError(f"relative record with outcome {r.outcome!r}, expected a RelativeBit")
            tokens.append(f"rel={r.outcome.value}")
        else:
            tokens.append(f"{r.particle}={r.outcome}")
    return ",".join(tokens)


# Inner node: first-outcome p, `at` = (action position, state, records), [child 0, child 1].
# A node keeps no first-outcome projection: each of its children is built only once.
_Node = namedtuple("_Node", ["p", "at", "children"])
_Leaf = tuple[ShotResult, str]  # a shot's result and its counts key


class _BranchTree:
    """One program's lazily built branch tree; leaves are `_Leaf`s."""

    def __init__(self, program: CircuitProgram, budget: int) -> None:
        self.program = program
        self.actions = [("prepare",), *_compiled_steps(program)]
        self.budget, self.size = budget, 1
        drawn = isinstance(program.preparation, BellRandomSignPreparation)  # the sign is drawn
        self.max_draws = drawn + sum(action[0] == "measure" for action in self.actions)
        self.root = _Node(_P_PLUS_SIGN, (0, None, ()), [None, None]) if drawn else self._build(0, None, ())

    def _step(self, action: tuple, state, records: tuple, rng: Optional[RandomStream], first=None):
        """Run one action; `first` is a measurement's already known `_first_outcome`."""
        if action[0] == "prepare":
            return _prepare(self.program, rng), records
        if action[0] == "apply":
            return apply2(action[1], state), records
        if action[2] is None:
            record, state = measure_relative(state, rng, step_index=action[1], first=first)
        else:
            record, state = measure_value(state, action[2], rng, step_index=action[1], first=first)
        return state, records + (record,)

    def _build(self, position: int, state, records: tuple):
        """Run the actions from `position` up to the next one that draws."""
        for position in range(position, len(self.actions)):
            action = self.actions[position]
            first = None
            if action[0] == "measure":
                first = _first_outcome(state, action[2])
                if first[1] is None:
                    return _Node(first[0], (position, state, records), [None, None])
            state, records = self._step(action, state, records, None, first)  # draws nothing
        return ShotResult(records=records, final_state=state), outcome_key(records)

    def _child(self, node: _Node, branch: int, draw: float):
        """The child of `node` on `branch`, which `draw` took; built and stored on first visit."""
        child = node.children[branch]
        if child is None:
            position, state, records = node.at
            replay = SimpleNamespace(random=lambda: draw)
            child = self._build(
                position + 1, *self._step(self.actions[position], state, records, replay, (node.p, None, None))
            )
            if self.size < self.budget:  # once full, never stores again
                node.children[branch] = child
                self.size += 1
        return child

    def walk(self, rng: Optional[RandomStream]) -> _Leaf:
        """Take one shot from the root to its leaf, drawing from `rng` at each inner node."""
        node = self.root
        while isinstance(node, _Node):
            draw = rng.random()
            node = self._child(node, 0 if draw < node.p else 1, draw)
        return node

    def walk_block(self, block: np.ndarray) -> list[tuple[_Leaf, np.ndarray]]:
        """Take every column of `block` (one shot each, row d its draw at depth d) to its leaf.

        The walk goes a level at a time: the ascending columns that reach a node
        split by the same ``draw < node.p`` as `walk`, and a child is built once
        for all of them.  Returns each reached leaf with its columns, ordered by
        first column, so that counts keep the order in which shots reach keys.
        """
        rows, n = block.shape
        level = [(self.root, np.arange(n))]
        leaves = []
        for row in block:
            reached = []
            for node, taken in level:
                below = row[taken] < node.p
                for branch, side in enumerate((taken[below], taken[~below])):
                    if len(side):
                        child = self._child(node, branch, float(row[side[0]]))
                        (reached if isinstance(child, _Node) else leaves).append((child, side))
            level = reached
            if not level:
                return sorted(leaves, key=lambda leaf: leaf[1][0])
        raise RuntimeError(f"a path through the branch tree needs more than the {rows} draws of its block")


def _block_shots(k: int) -> int:
    """Shots per block of `k` draws each, so that one `draws` call stays within _BLOCK_BYTES."""
    return _BLOCK_BYTES // (_DRAWS_BYTES + 8 * k)


def _leaf_groups(tree: _BranchTree, shots: int, seed: int) -> Iterator[tuple[_Leaf, int, object]]:
    """(leaf, shot count, shot index or indices) groups covering shots 0..shots-1, in first-shot order.

    Runs below _BULK_MIN_SHOTS, over _BULK_MAX_DRAWS, or on a numpy whose
    ``Generator.random()`` differs from `draws` walk each shot with `derive_rng`.
    """
    if not isinstance(tree.root, _Node):  # no shot draws: no stream is derived
        yield tree.root, shots, slice(None)
        return
    k = tree.max_draws
    if shots >= _BULK_MIN_SHOTS and k <= _BULK_MAX_DRAWS:
        block_shots = _block_shots(k)
        for start in range(0, shots, block_shots):
            block = draws(seed, start, min(start + block_shots, shots), k)
            if start == 0 and not np.array_equal(block[:, 0], derive_rng(seed, 0).random(k)):
                break  # this numpy's Generator.random() no longer matches `draws`: keep the contract
            for leaf, columns in tree.walk_block(block):
                yield leaf, len(columns), columns + start
        else:
            return
    for index in range(shots):
        yield tree.walk(derive_rng(seed, index)), 1, index


def run_shot(program: CircuitProgram, rng: RandomStream) -> ShotResult:
    """Execute one shot: prepare, apply steps in order, record measurements."""
    return _BranchTree(program, budget=0).walk(rng)[0]


def _integer(name: str, value) -> int:
    """`value` as an int, as `operator.index` reads it; bools are rejected too."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def run(
    program: CircuitProgram,
    shots: Optional[int] = None,
    seed: Optional[int] = None,
    *,
    keep_results: bool = False,
    workers: int = 1,
) -> ShotStatistics:
    """Run the program for `shots` independent shots and aggregate outcomes.

    shots/seed default to the program's own settings; they and `workers` must
    be integers (bool and float are a TypeError).  `workers` must be >= 1 and
    has no effect; it is accepted for compatibility.
    """
    shots = _integer("shots", program.shots if shots is None else shots)
    seed = _integer("seed", program.seed if seed is None else seed)
    workers = _integer("workers", workers)
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if not (0 <= seed <= MAX_SEED):
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    tree = _BranchTree(program, NODE_BUDGET)
    counts: dict[str, int] = {}
    slots = np.empty(shots, dtype=object) if keep_results else None
    for (shot, key), count, index in _leaf_groups(tree, shots, seed):
        counts[key] = counts.get(key, 0) + count
        if keep_results:
            slots[index] = shot
    return ShotStatistics(
        shots=shots,
        seed=seed,
        counts=counts,
        results=tuple(slots.tolist()) if keep_results else None,
    )
