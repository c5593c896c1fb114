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
steps that draw, with one child per side, or branch.  A node is built on first
visit; a run stores at most NODE_BUDGET nodes and runs the branches past them unstored.

Once a run has enough shots to repay a block's fixed cost, `run` computes the
same ``PCG64(SeedSequence([s, i]))`` draws for blocks of shots at once
(`_streams.block_rows`, numpy integer arithmetic, bit-exact with
``Generator.random()``) and walks each block down the tree a level at a time,
so that a shot's d-th draw decides its d-th branch (`_BranchTree.walk_block`).
`derive_rng` and the one-shot `walk` stay the reference; shorter runs use them
per shot.  A run derives no stream when the leaves a shot can reach without a
drawing measurement share one key (`_leaf_groups`): as only a random-sign root
draws without adding a token, the root and its two children decide it.

`compile` validates a program once and reads the meaning that each of its statements
carries (`circuit`'s statement classes).  `run` and `run_shot` take its `CompiledProgram`,
or compile a plain program on entry, so they never sample a program that `validate` rejects.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterator, Optional, Protocol, Union

import numpy as np

from .bell import EPS_SEP, separability_defect
from .circuit import MAX_SEED, CircuitProgram, Diagnostic, MeasureRelative, MeasureValue, validate
from .core import (
    EPS_ZERO,
    Particle,
    TwoQubitState,
    _Value,
    _norm,
    _require_integer,
    _require_normalized,
    _require_type,
    _set,
    apply2,
    normalize,
    projector,
)
from ._streams import block_rows

__all__ = [
    "EPS_DET",
    "CompiledProgram",
    "InvalidProgram",
    "compile",
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
_BLOCK_SHOTS = 4096  # shots per block: a peak of 0.9 MiB of seeding and walk arrays (tracemalloc, numpy 2.4)
_BULK_MIN_SHOTS = 16  # BENCH_level_build.json's crossover; blocks now win from about 10 (BENCH_stream_kernel.json)
_SPLIT_EACH_MAX = 4  # levels this narrow split node by node, wider ones in one sort: fewer numpy calls (measured)
_P_PLUS_SIGN = 0.5  # a random-sign preparation takes sign + when its draw is below this
# Streams that draw onto branch 0 and 1 of any node: its p is 0.5 or inside (EPS_DET, 1 - EPS_DET).
_BRANCH_STREAMS = (SimpleNamespace(random=lambda: 0.0), SimpleNamespace(random=lambda: 1.0))


class RandomStream(Protocol):
    def random(self) -> float: ...


class RelativeBit(enum.Enum):
    """Whether the two particles agree in value on the |00>/|11> diagonal."""

    SAME = "Same"
    DIFFERENT = "Different"


_RELATIVE_BITS = (RelativeBit.SAME, RelativeBit.DIFFERENT)


class RelativeBitResult(_Value):
    """Outcome of the relative-value question.

    `bit` is None when the state has weight on both diagonals (indeterminate);
    `p_same` always carries |g00|^2 + |g11|^2.
    """

    def __init__(self, bit: Optional[RelativeBit], p_same: float) -> None:
        _set(self, "bit", bit)
        _set(self, "p_same", p_same)

    @property
    def determinate(self) -> bool:
        return self.bit is not None


class MeasurementRecord(_Value):
    """One measurement event inside a shot.

    step_index is the 0-based position in the program's step list.
    projected_norm is the norm of the projected state before renormalization
    (1.0 on a deterministic relative branch, where the state is untouched).
    """

    def __init__(
        self, step_index: int, kind: str, particle: Optional[Particle], outcome: Union[RelativeBit, int],
        probability: float, projected_norm: float, post_state: TwoQubitState,
    ) -> None:
        _set(self, "step_index", step_index)
        _set(self, "kind", kind)  # "relative" | "value"
        _set(self, "particle", particle)
        _set(self, "outcome", outcome)
        _set(self, "probability", probability)
        _set(self, "projected_norm", projected_norm)
        _set(self, "post_state", post_state)


class ShotResult(_Value):
    def __init__(self, records: tuple[MeasurementRecord, ...], final_state: TwoQubitState) -> None:
        _set(self, "records", records)
        _set(self, "final_state", final_state)


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
        import json  # only JSON output loads it
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
    return p, _certain(p), projected


def _certain(p: float) -> Optional[int]:
    """The outcome, 0 (the first) or 1, that a first-outcome probability p makes certain within
    EPS_DET; None if it draws."""
    return 0 if p >= 1.0 - EPS_DET else 1 if p <= EPS_DET else None


def relative_bit(s: TwoQubitState) -> RelativeBitResult:
    """Read the same/different bit without collapsing the state.

    Determinate iff the state lives on one diagonal: p_same within EPS_DET of
    1 gives SAME, of 0 gives DIFFERENT; anything else is indeterminate.  A state
    that is not normalized (`s.subnormalized`) is a ValueError.
    """
    _require_normalized(s, "relative_bit")
    p_same, certain, _ = _first_outcome(s, None)
    return RelativeBitResult(None if certain is None else _RELATIVE_BITS[certain], p_same)


def measure_relative(
    s: TwoQubitState, rng: Optional[RandomStream], step_index: int = 0
) -> tuple[MeasurementRecord, TwoQubitState]:
    """Measure the same/different bit, collapsing onto the realized diagonal.

    Deterministic inputs (one diagonal empty within EPS_DET) consume no draw
    and pass the state through unchanged.
    """
    p_same, outcome, _ = _first_outcome(s, None)
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
    record = MeasurementRecord(step_index, "relative", None, _RELATIVE_BITS[outcome], probability, projected_norm, post)
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
    record = MeasurementRecord(step_index, "value", particle, outcome, probability, projected_norm, post)
    return record, post


def derive_rng(seed: int, shot_index: int) -> np.random.Generator:
    """The documented substream for one shot: PCG64(SeedSequence([seed, i]))."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, shot_index])))


class InvalidProgram(ValueError):
    """A program that `validate` rejects; `diagnostics` is its full sorted list, warnings included."""

    def __init__(self, diagnostics: list[Diagnostic]) -> None:
        super().__init__("; ".join(d.render() for d in diagnostics if d.severity == "error"))
        self.diagnostics = tuple(diagnostics)


class CompiledProgram(_Value):
    """A program that `validate` accepts, its warnings, and what its statements mean, as `compile`
    reads it from them: `prepared` is the prepared state, or a random sign's states of sign + and -,
    of which a draw takes one, and `actions` holds per step ("apply", lifted operator) or
    ("measure", step index, particle or None for a relative measurement)."""

    shots = property(lambda self: self.program.shots)
    seed = property(lambda self: self.program.seed)

    def __init__(
        self, program: CircuitProgram, warnings: tuple[Diagnostic, ...], prepared: tuple[TwoQubitState, ...],
        actions: tuple[tuple, ...],
    ) -> None:
        _set(self, "program", program)
        _set(self, "warnings", warnings)
        _set(self, "prepared", prepared)
        _set(self, "actions", actions)


def compile(program: Union[CircuitProgram, CompiledProgram]) -> CompiledProgram:
    """Validate `program` once and read what its preparation and steps mean, as their classes
    carry it; raise InvalidProgram on any error.  A compiled program is returned as it is."""
    if isinstance(program, CompiledProgram):
        return program
    _require_type("program", program, CircuitProgram, CompiledProgram)
    diagnostics = validate(program)
    if any(d.severity == "error" for d in diagnostics):
        raise InvalidProgram(diagnostics)
    actions = tuple(
        ("measure", i, step._measured) if isinstance(step, (MeasureRelative, MeasureValue)) else ("apply", step._lifted)
        for i, step in enumerate(program.steps)
    )
    return CompiledProgram(program, tuple(diagnostics), program.preparation._prepared, actions)


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


class _Node:
    """Inner node: first-outcome p, `at` = (action position, state, records), [child 0, child 1].

    A node keeps no first-outcome projection: each of its children is built only once.
    A node that `_build_level` built holds an amplitude vector and the outcome tokens so
    far instead of a state and records, and its leaves hold no result.
    """

    __slots__ = ("p", "at", "children")

    def __init__(self, p: float, at: tuple, children: list) -> None:
        self.p, self.at, self.children = p, at, children


_Leaf = tuple[Optional[ShotResult], str]  # a shot's result (None for a counts-only build) and its counts key

# Outcome tokens of a measurement (None: relative) and the two amplitudes, of |00>, |01>,
# |10>, |11>, that each outcome keeps: the diagonal of its projector, also as a mask.
_TOKENS = {None: tuple(f"rel={bit.value}" for bit in _RELATIVE_BITS), "A": ("A=0", "A=1"), "B": ("B=0", "B=1")}
_KEPT = {None: np.array([[0, 3], [1, 2]]), "A": np.array([[0, 1], [2, 3]]), "B": np.array([[0, 2], [1, 3]])}
_KEEP = {particle: (kept[:, :, None] == np.arange(4)).any(axis=1) * 1.0 for particle, kept in _KEPT.items()}


def _pair_norms(pairs: list) -> list[float]:
    """`core._norm` of each state whose nonzero amplitudes are at most a pair: the others add
    +0.0 to its sum of squares, which changes no bit, so only the pair's squares are summed."""
    try:
        return [math.sqrt(abs(a) ** 2 + abs(b) ** 2) for a, b in pairs]
    except OverflowError:  # as `core._norm`: a square past the float range makes the norm inf
        return [_norm(a, b, 0j, 0j) for a, b in pairs]


def _first_p(vectors: np.ndarray, particle: Optional[Particle]) -> list[float]:
    """`_first_outcome`'s p for each row, with its scalar arithmetic: Python's abs and ``** 2``
    (libm's pow, which on about one value in a thousand rounds differently from numpy's square)."""
    pairs = vectors[:, _KEPT[particle][0]].tolist()
    if particle is None:
        return [abs(a) ** 2 + abs(b) ** 2 for a, b in pairs]
    return [n**2 for n in _pair_norms(pairs)]


def _collapse(vectors: np.ndarray, particle: Optional[Particle], outcomes: list[int]) -> np.ndarray:
    """Each row projected on its outcome of the measurement and normalized, as `normalize`.

    The magnitudes equal the scalar code's bit for bit: the norm is `core._norm`'s, and
    dividing each part by it is what CPython's ``complex / float`` does, up to the sign of
    a zero.  As `normalize`, it refuses a (near-)zero or an infinite norm.  A collapse
    zeroes a row or a column of the coefficient matrix, so unlike `measure_value` it needs
    no separability check: the defect is exactly 0.
    """
    norms = _pair_norms(np.take_along_axis(vectors, _KEPT[particle][outcomes], axis=1).tolist())
    if min(norms) <= EPS_ZERO:
        raise ValueError("cannot normalize a state with (near-)zero norm")
    if max(norms) == math.inf:
        raise ValueError("cannot normalize a state whose norm overflows")
    projected = vectors * _KEEP[particle][outcomes]
    parts = projected.view(np.float64)
    parts /= np.array(norms)[:, None]
    return projected


def _check_finite(vectors: np.ndarray) -> None:
    """Raise the ValueError that `TwoQubitState` raises for a row with a non-finite amplitude."""
    if not np.isfinite(vectors).all():
        TwoQubitState(*vectors[~np.isfinite(vectors).all(axis=1)][0].tolist())


class _BranchTree:
    """One program's lazily built branch tree; leaves are `_Leaf`s.  Action 0 prepares."""

    def __init__(self, program: Union[CircuitProgram, CompiledProgram], budget: int) -> None:
        compiled = compile(program)
        self.prepared, self.actions = compiled.prepared, (("prepare",), *compiled.actions)
        self.budget, self.size = budget, 1
        drawn = len(self.prepared) == 2  # the sign is drawn
        self.root = _Node(_P_PLUS_SIGN, (0, None, ()), [None, None]) if drawn else self._build(0, None, ())

    def _step(self, action: tuple, state, records: tuple, rng: Optional[RandomStream], first=None):
        """Run one action; `first` is a value measurement's already known `_first_outcome`."""
        if action[0] == "prepare":
            return self.prepared[0 if len(self.prepared) == 1 or rng.random() < _P_PLUS_SIGN else 1], records
        if action[0] == "apply":
            return apply2(action[1], state), records
        # A child is built through the public measure_* calls, steered by _BRANCH_STREAMS (and measure_value by
        # `first=`), not from its outcome directly, and measure_value keeps its separability_defect check:
        # bench/tracing.py times all three by name, and `bench/run.py --trace 1` exits 4 on a workload whose batch
        # never calls one of them.  On the trace workload, a kept run's `_child` is measure_relative's only caller.
        if action[2] is None:
            record, state = measure_relative(state, rng, step_index=action[1])
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

    def _child(self, node: _Node, branch: int):
        """The child of `node` on `branch`, built on first visit by replaying the branch, and stored."""
        child = node.children[branch]
        if child is None:
            position, state, records = node.at
            replay = _BRANCH_STREAMS[branch]
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
            node = self._child(node, 0 if rng.random() < node.p else 1)
        return node

    def _vector_at(self, node: _Node, branch: int) -> tuple:
        """The `at` of a node the shot code built (the root or a child of it) as `_build_level`
        holds it: (position, amplitude vector, outcome tokens); a random-sign root's `branch`
        is its sign."""
        position, state, records = node.at
        if position == 0:  # the random sign is the drawn step
            state = self.prepared[branch]
        return position, state.vector, tuple(outcome_key((record,)) for record in records)

    def _build_level(self, missing: list[tuple[_Node, int]]) -> list:
        """Build each (node, branch) child in one numpy pass; no result objects are made.

        Row i of an (m, 4) stack starts as its parent's state at the parent's
        drawing step, whose outcome is the branch.  Walking the actions from the
        first such step on, each action runs on every row at it: an apply step
        as one stacked matmul (bit-exact with `apply2`), a measurement as
        `_first_p`, stopping the rows it leaves to chance, then as `_collapse`.
        The rows still running after the last action are leaves.  p and every
        branch depend on magnitudes only, which equal `_child`'s bit for bit, so
        the children equal `_child`'s up to the signs of zero amplitudes.
        """
        ats = [node.at if type(node.at[1]) is np.ndarray else self._vector_at(node, b) for node, b in missing]
        outcome, tokens = [branch for _, branch in missing], [at[2] for at in ats]
        entering = {}  # rows by the position of their first step
        for row, at in enumerate(ats):
            entering.setdefault(at[0], []).append(row)
        vectors, last = np.array([at[1] for at in ats]), max(entering)
        children, running = [None] * len(missing), []  # running: rows past their first step, short of a drawing one
        for position in range(min(entering), len(self.actions)):
            action, rows = self.actions[position], entering.get(position, [])
            if action[0] == "apply" and running:
                applied = np.matmul(action[1].matrix, vectors[running][:, :, None])[:, :, 0]
                _check_finite(applied)
                vectors[running] = applied
            elif action[0] == "measure":
                particle, decided, arriving = action[2], [], vectors[running]
                for row, p, vector in zip(running, _first_p(arriving, particle) if running else (), arriving):
                    certain = _certain(p)
                    if certain is None:  # a drawing step: the row stops here as a node
                        children[row] = _Node(p, (position, vector, tokens[row]), [None, None])
                    else:
                        outcome[row] = certain
                        decided.append(row)
                running, known = decided, rows + decided
                collapsing = rows if particle is None else known  # a certain relative outcome keeps the state
                if collapsing:
                    vectors[collapsing] = _collapse(vectors[collapsing], particle, [outcome[row] for row in collapsing])
                names = _TOKENS[particle]
                for row in known:
                    tokens[row] += (names[outcome[row]],)
            running += rows
            if not running and position >= last:
                break
        for row in running:
            children[row] = (None, ",".join(tokens[row]) or "none")
        return children

    def walk_block(self, rows: Iterator[np.ndarray], n: int, keep: bool) -> list[tuple[_Leaf, np.ndarray]]:
        """Take columns 0..n-1, one shot each, to their leaves, reading row d of `rows` at depth d.

        The walk goes a level at a time and asks for a row only while a column
        is alive.  The ascending columns at a node split by the same
        ``draw < node.p`` as `walk` (`_split`), and the level's missing (node,
        branch) children are built together: by `_child`, with their results,
        if `keep`, else by `_build_level`; a tree is walked one way only.  The
        root's children, at most two, are built by `_child` either way: the
        shot code builds one or two nodes faster than a numpy pass.  Returns
        each reached leaf with its columns, ordered by first column, so that
        counts keep the order in which shots reach keys.
        """
        level, leaves = [(self.root, np.arange(n))], []
        while level:
            row = next(rows)
            groups = _split(level, row)
            children = [node.children[branch] for node, branch, _ in groups]
            missing = [j for j, child in enumerate(children) if child is None]
            if missing:
                wanted = [groups[j][:2] for j in missing]  # (node, branch)
                if keep or wanted[0][0] is self.root:
                    built = [self._child(*want) for want in wanted]
                else:
                    built = self._build_level(wanted)
                    stored = wanted[: max(self.budget - self.size, 0)]  # as `_child` stores, in order
                    for (node, branch), child in zip(stored, built):
                        node.children[branch] = child
                    self.size += len(stored)
                for j, child in zip(missing, built):
                    children[j] = child
            level = []
            for (_, _, columns), child in zip(groups, children):
                (level if isinstance(child, _Node) else leaves).append((child, columns))
        return sorted(leaves, key=lambda leaf: leaf[1][0])


def _split(level: list[tuple[_Node, np.ndarray]], row: np.ndarray) -> list[tuple[_Node, int, np.ndarray]]:
    """The (node, branch, ascending columns) groups into which ``row < node.p`` splits a
    level: a column's draw decides its branch and is not needed past it.

    A level of a few nodes splits node by node; a wider one in one stable sort
    of all its columns by (node, branch), which costs a fixed few numpy calls
    however many nodes there are.
    """
    if len(level) <= _SPLIT_EACH_MAX:
        groups = []
        for node, taken in level:
            below = row[taken] < node.p
            sides = (taken[below], taken[~below])
            groups.extend((node, branch, side) for branch, side in enumerate(sides) if len(side))
        return groups
    columns = np.concatenate([taken for _, taken in level])
    at = np.repeat(np.arange(len(level)), [len(taken) for _, taken in level])
    code = 2 * at + 1 - (row[columns] < np.array([node.p for node, _ in level])[at])  # 2 * node + branch
    order = np.argsort(code, kind="stable")
    columns, sizes = columns[order], np.bincount(code)
    reached = np.flatnonzero(sizes)
    ends = np.cumsum(sizes[reached]).tolist()
    return [
        (level[child >> 1][0], child & 1, columns[first:end])
        for child, first, end in zip(reached.tolist(), [0, *ends], ends)
    ]


class _DrawMismatch(Exception):
    """This numpy's ``Generator.random()`` differs from `block_rows`."""


def _checked(rows: Iterator[np.ndarray], rng: np.random.Generator) -> Iterator[np.ndarray]:
    """`rows`, each checked in column 0 against the next draw of `rng`.

    The `derive_rng(seed, 0)` that `_leaf_groups` passes is the only derive_rng call in the shots
    and trace benchmark workloads, whose runs all take blocks: without it, their `--trace 1` exits 4.
    """
    for row in rows:
        if row[0] != rng.random():
            raise _DrawMismatch
        yield row


def _leaf_groups(program: CompiledProgram, shots: int, seed: int, keep: bool) -> Iterator[tuple[_Leaf, int, object]]:
    """(leaf, shot count, shot index or indices) groups covering shots 0..shots-1, in first-shot order.

    One rule spares a run every stream: when the leaves a shot can reach without a drawing
    measurement share one counts key, that leaf is every shot's.  They are the root, or a
    counts-only run's two children of a random-sign root (a kept run needs one leaf object).
    These 3 nodes are enough: a measurement that draws appends a different token per branch.
    Other runs below _BULK_MIN_SHOTS, or on a numpy whose ``Generator.random()`` differs
    from `block_rows` in shot 0, walk each shot with `derive_rng`.
    """
    tree = _BranchTree(program, NODE_BUDGET)
    reached = [tree.root]
    if not keep and len(program.prepared) == 2:  # the root draws the sign, which adds no token
        reached = [tree._child(tree.root, branch) for branch in (0, 1)]
    if not any(isinstance(leaf, _Node) for leaf in reached) and len({leaf[1] for leaf in reached}) == 1:
        yield reached[0], shots, slice(None)
        return
    if shots >= _BULK_MIN_SHOTS:
        try:
            for start in range(0, shots, _BLOCK_SHOTS):
                stop = min(start + _BLOCK_SHOTS, shots)
                rows = block_rows(seed, start, stop)
                for leaf, columns in tree.walk_block(
                    _checked(rows, derive_rng(seed, 0)) if start == 0 else rows, stop - start, keep
                ):
                    yield leaf, len(columns), columns + start
            return
        except _DrawMismatch:  # raised in the first block, before any group: keep the contract
            tree = _BranchTree(program, NODE_BUDGET)  # its nodes may hold vectors, which `walk` cannot step
    for index in range(shots):
        yield tree.walk(derive_rng(seed, index)), 1, index


def run_shot(program: Union[CircuitProgram, CompiledProgram], rng: RandomStream) -> ShotResult:
    """Execute one shot (of a program compiled once, in a loop): prepare, apply steps, record measurements."""
    if not callable(getattr(rng, "random", None)):
        raise TypeError(f"rng must have a callable random(), got {type(rng).__name__}")
    return _BranchTree(program, budget=0).walk(rng)[0]


def run(
    program: Union[CircuitProgram, CompiledProgram],
    shots: Optional[int] = None,
    seed: Optional[int] = None,
    *,
    keep_results: bool = False,
    workers: int = 1,
) -> ShotStatistics:
    """Run the program for `shots` independent shots and aggregate outcomes.

    A plain program is compiled first (InvalidProgram if `validate` rejects it,
    whatever `shots` is).  shots/seed default to the program's own settings;
    they and `workers` must be integers (bool and float are a TypeError).
    `workers` must be >= 1 and has no effect; it is accepted for compatibility.
    `keep_results` keeps one ShotResult per shot: MemoryError when they cannot fit.
    """
    program = compile(program)
    shots = _require_integer("shots", program.shots if shots is None else shots)
    seed = _require_integer("seed", program.seed if seed is None else seed)
    workers = _require_integer("workers", workers)
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if not (0 <= seed <= MAX_SEED):
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    counts: dict[str, int] = {}
    try:
        slots = np.empty(shots, dtype=object) if keep_results else None
    except (ValueError, OverflowError):  # numpy refuses 2**60 or more slots before allocating
        raise MemoryError(f"cannot keep {shots} shot results") from None
    for (shot, key), count, index in _leaf_groups(program, shots, seed, keep_results):
        counts[key] = counts.get(key, 0) + count
        if keep_results:
            slots[index] = shot
    return ShotStatistics(shots, seed, counts, tuple(slots.tolist()) if keep_results else None)
