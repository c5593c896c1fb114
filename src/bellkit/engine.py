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
"""

from __future__ import annotations

import enum
import json
from collections import namedtuple
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Protocol, Union

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


def _first_outcome(s: TwoQubitState, particle: Optional[Particle]) -> tuple[float, Optional[int]]:
    """First-outcome probability p (Same, or `particle` = 0) and the outcome, 0
    for the first or 1, that p makes certain within EPS_DET; None if it draws."""
    if particle is None:
        p = abs(s.g00) ** 2 + abs(s.g11) ** 2
    else:
        p = apply2(projector(particle, 0), s).norm() ** 2
    if p >= 1.0 - EPS_DET:
        return p, 0
    if p <= EPS_DET:
        return p, 1
    return p, None


def relative_bit(s: TwoQubitState) -> RelativeBitResult:
    """Read the same/different bit without collapsing the state.

    Determinate iff the state lives on one diagonal: p_same within EPS_DET of
    1 gives SAME, of 0 gives DIFFERENT; anything else is indeterminate.
    """
    p_same, certain = _first_outcome(s, None)
    return RelativeBitResult(None if certain is None else _RELATIVE_BITS[certain], p_same)


def measure_relative(
    s: TwoQubitState, rng: RandomStream, step_index: int = 0
) -> tuple[MeasurementRecord, TwoQubitState]:
    """Measure the same/different bit, collapsing onto the realized diagonal.

    Deterministic inputs (one diagonal empty within EPS_DET) consume no draw
    and pass the state through unchanged.
    """
    p_same, outcome = _first_outcome(s, None)
    if outcome is not None:
        post, probability, projected_norm = s, 1.0, 1.0
    else:
        if rng.random() < p_same:
            outcome, probability, projected = 0, p_same, TwoQubitState(s.g00, 0.0, 0.0, s.g11)
        else:
            outcome, probability = 1, abs(s.g01) ** 2 + abs(s.g10) ** 2
            projected = TwoQubitState(0.0, s.g01, s.g10, 0.0)
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
    s: TwoQubitState, particle: Particle, rng: RandomStream, step_index: int = 0
) -> tuple[MeasurementRecord, TwoQubitState]:
    """Projectively measure one particle's value (Born rule).

    Probabilities within EPS_DET of 0 or 1 take the deterministic branch and
    consume no draw.  The record keeps the projected state's norm before
    renormalization.  The post-state is always a product state: projection
    zeroes one row of the coefficient matrix, so the defect vanishes.
    """
    p0, certain = _first_outcome(s, particle)
    outcome = (0 if rng.random() < p0 else 1) if certain is None else certain
    projected = apply2(projector(particle, outcome), s)
    projected_norm = projected.norm()
    probability = projected_norm**2 if certain is None else 1.0
    post = normalize(projected)
    assert separability_defect(post) <= EPS_SEP
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
            assert isinstance(r.outcome, RelativeBit)
            tokens.append(f"rel={r.outcome.value}")
        else:
            tokens.append(f"{r.particle}={r.outcome}")
    return ",".join(tokens)


# Inner node: first-outcome p, `at` = (action position, state, records), [child 0, child 1].
_Node = namedtuple("_Node", ["p", "at", "children"])


class _BranchTree:
    """One program's lazily built branch tree; leaves are (ShotResult, key)."""

    def __init__(self, program: CircuitProgram, budget: int) -> None:
        self.program = program
        self.actions = [("prepare",), *_compiled_steps(program)]
        self.budget, self.size = budget, 1
        drawn = isinstance(program.preparation, BellRandomSignPreparation)  # the sign is drawn
        self.root = _Node(_P_PLUS_SIGN, (0, None, ()), [None, None]) if drawn else self._build(0, None, ())

    def _step(self, action: tuple, state, records: tuple, rng: Optional[RandomStream]):
        if action[0] == "prepare":
            return _prepare(self.program, rng), records
        if action[0] == "apply":
            return apply2(action[1], state), records
        if action[2] is None:
            record, state = measure_relative(state, rng, step_index=action[1])
        else:
            record, state = measure_value(state, action[2], rng, step_index=action[1])
        return state, records + (record,)

    def _build(self, position: int, state, records: tuple):
        """Run the actions from `position` up to the next one that draws."""
        for position in range(position, len(self.actions)):
            action = self.actions[position]
            if action[0] == "measure":
                p, certain = _first_outcome(state, action[2])
                if certain is None:
                    return _Node(p, (position, state, records), [None, None])
            state, records = self._step(action, state, records, None)  # draws nothing
        return ShotResult(records=records, final_state=state), outcome_key(records)

    def walk(self, rng: Optional[RandomStream]) -> tuple[ShotResult, str]:
        """Take one shot from the root to its leaf, drawing from `rng` at each inner node."""
        node = self.root
        while isinstance(node, _Node):
            draw = rng.random()
            branch = 0 if draw < node.p else 1
            child = node.children[branch]
            if child is None:
                position, state, records = node.at
                replay = SimpleNamespace(random=lambda: draw)  # the draw taken just above
                child = self._build(position + 1, *self._step(self.actions[position], state, records, replay))
                if self.size < self.budget:  # once full, never stores again
                    node.children[branch] = child
                    self.size += 1
            node = child
        return node


def run_shot(program: CircuitProgram, rng: RandomStream) -> ShotResult:
    """Execute one shot: prepare, apply steps in order, record measurements."""
    return _BranchTree(program, budget=0).walk(rng)[0]


def run(
    program: CircuitProgram,
    shots: Optional[int] = None,
    seed: Optional[int] = None,
    *,
    keep_results: bool = False,
    workers: int = 1,
) -> ShotStatistics:
    """Run the program for `shots` independent shots and aggregate outcomes.

    shots/seed default to the program's own settings.  `workers` must be >= 1
    and has no effect; it is accepted for compatibility.
    """
    shots = program.shots if shots is None else shots
    seed = program.seed if seed is None else seed
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if not (0 <= seed <= MAX_SEED):
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    tree = _BranchTree(program, NODE_BUDGET)
    draws = isinstance(tree.root, _Node)  # a stream is derived only for shots that draw
    counts: dict[str, int] = {}
    results: list[ShotResult] = []
    for index in range(shots):
        shot, key = tree.walk(derive_rng(seed, index) if draws else None)
        counts[key] = counts.get(key, 0) + 1
        if keep_results:
            results.append(shot)
    return ShotStatistics(
        shots=shots,
        seed=seed,
        counts=counts,
        results=tuple(results) if keep_results else None,
    )
