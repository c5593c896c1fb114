"""Shared test utilities: scripted random streams, a program generator, a one-shot reference interpreter and a one-particle one."""

from __future__ import annotations

import sys

import numpy as np

from bellkit import circuit
from bellkit.bell import BellDescriptor, bell_state
from bellkit.checks import _operators, _products, _unit_vectors, _unitaries, random_two_qubit_state
from bellkit.core import (
    INV_SQRT2,
    SingleQubitOperator,
    SingleQubitState,
    TwoQubitState,
    apply2,
    basis_state,
    bell_operator,
    lift_a,
    lift_b,
    named_operator,
)
from bellkit.engine import EPS_DET, ShotResult, measure_relative, measure_value


# One-sample draws through the batched helpers of `checks`; `bellkit check` itself uses only its random_two_qubit_state.


def random_single_qubit_state(rng: np.random.Generator) -> SingleQubitState:
    return SingleQubitState.from_vector(_unit_vectors(rng.normal(size=(2, 2))))


def random_product_state(rng: np.random.Generator) -> TwoQubitState:
    return TwoQubitState.from_vector(_products(rng.normal(size=(2, 2, 2))))


def random_operator(rng: np.random.Generator) -> SingleQubitOperator:
    return SingleQubitOperator(_operators(rng.normal(size=(2, 2, 2))))


def random_unitary(rng: np.random.Generator) -> SingleQubitOperator:
    return SingleQubitOperator(_unitaries(rng.normal(size=(2, 2, 2))))


class ScriptedStream:
    """Feeds a fixed sequence of uniforms; raises if over-consumed."""

    def __init__(self, values: list[float]) -> None:
        self.values = list(values)
        self.consumed = 0

    def random(self) -> float:
        if self.consumed >= len(self.values):
            raise AssertionError("random stream consumed more draws than scripted")
        value = self.values[self.consumed]
        self.consumed += 1
        return value


def count_calls(monkeypatch, module: str, name: str) -> list:
    """Wrap bellkit.<module>.<name> wherever a bellkit module binds it; returns the list of
    each call's positional arguments, which grows as the wrapper is called."""
    original, calls = getattr(sys.modules[f"bellkit.{module}"], name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, bound in list(sys.modules.items()):
        if key == "bellkit" or key.startswith("bellkit."):
            for attribute, value in list(vars(bound).items()):
                if value is original:
                    monkeypatch.setattr(bound, attribute, counting)
    return calls


def random_program(rng: np.random.Generator) -> circuit.CircuitProgram:
    """A random program that parses and validates cleanly."""
    kind = rng.integers(0, 4)
    if kind == 0:
        preparation = circuit.BasisPreparation(index=int(rng.integers(0, 4)))
    elif kind == 1:
        preparation = circuit.BellPreparation(
            descriptor=BellDescriptor(
                bell_class="phi" if rng.random() < 0.5 else "psi",
                sign=1 if rng.random() < 0.5 else -1,
                s0=INV_SQRT2 if rng.random() < 0.25 else float(rng.random()),
            )
        )
    elif kind == 2:
        preparation = circuit.BellRandomSignPreparation(
            bell_class="phi" if rng.random() < 0.5 else "psi",
            s0=INV_SQRT2 if rng.random() < 0.25 else float(rng.random()),
        )
    else:
        preparation = circuit.RawPreparation(state=random_two_qubit_state(rng))

    steps: list[circuit.Step] = []
    for _ in range(int(rng.integers(0, 7))):
        step_kind = rng.integers(0, 5)
        particle = "A" if rng.random() < 0.5 else "B"
        if step_kind == 0:
            name = ("identity", "flip", "t_plus", "t_minus")[rng.integers(0, 4)]
            steps.append(circuit.ApplyNamed(name=name, particle=particle))
        elif step_kind == 1:
            steps.append(circuit.ApplyBellOperator())
        elif step_kind == 2:
            steps.append(circuit.ApplyRaw(particle=particle, operator=_unitary(rng)))
        elif step_kind == 3:
            steps.append(circuit.MeasureRelative())
        else:
            steps.append(circuit.MeasureValue(particle=particle))

    shots = circuit.DEFAULT_SHOTS if rng.random() < 0.3 else int(rng.integers(1, 10**6))
    seed = circuit.DEFAULT_SEED if rng.random() < 0.3 else int(rng.integers(0, 2**64, dtype=np.uint64))
    return circuit.CircuitProgram(
        preparation=preparation, steps=tuple(steps), shots=shots, seed=seed
    )


def _unitary(rng: np.random.Generator) -> SingleQubitOperator:
    return random_unitary(rng)


def interpret(program: circuit.CircuitProgram, rng) -> ShotResult:
    """One shot of `program`, straight through in program order with no branch tree: the
    preparation (a random sign draws first, + below 0.5), then each step's apply2,
    measure_relative or measure_value."""
    prep = program.preparation
    if isinstance(prep, circuit.BasisPreparation):
        state = basis_state(prep.index)
    elif isinstance(prep, circuit.BellPreparation):
        state = bell_state(prep.descriptor)
    elif isinstance(prep, circuit.BellRandomSignPreparation):
        state = bell_state(BellDescriptor(prep.bell_class, 1 if rng.random() < 0.5 else -1, prep.s0))
    else:
        state = prep.state
    records = []
    for index, step in enumerate(program.steps):
        if isinstance(step, circuit.MeasureRelative):
            record, state = measure_relative(state, rng, step_index=index)
            records.append(record)
        elif isinstance(step, circuit.MeasureValue):
            record, state = measure_value(state, step.particle, rng, step_index=index)
            records.append(record)
        elif isinstance(step, circuit.ApplyBellOperator):
            state = apply2(bell_operator(), state)
        else:
            op = named_operator(step.name) if isinstance(step, circuit.ApplyNamed) else step.operator
            state = apply2((lift_a if step.particle == "A" else lift_b)(op), state)
    return ShotResult(records=tuple(records), final_state=state)


# ROADMAP item 9's relative-value view: a program with no raw step runs as one particle's 2-vector,
# indexed by A's value, plus the relative bit (0 Same, 1 Different).  a|00> + b|11> is (0, (a, b)) and
# a|01> + b|10> is (1, (a, b)).  Per step: whether it toggles the bit, and its 2x2 matrix on Same and on
# Different; written out here from the table, not taken from bellkit's lifts.
_I2, _X2, _Z2 = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
_H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) * np.sqrt(0.5)
ONE_PARTICLE_STEPS = {
    **{(name, particle): (False, _I2, _I2) for name in ("identity", "t_plus") for particle in "AB"},
    ("flip", "A"): (True, _X2, _X2),
    ("flip", "B"): (True, _I2, _I2),
    ("t_minus", "A"): (False, _Z2, _Z2),
    ("t_minus", "B"): (False, _Z2, -_Z2),
    ("bellop", None): (False, _H2, _H2),
}


def _two_particle(bit: int, vector: np.ndarray) -> np.ndarray:
    """The 4-vector (g00, g01, g10, g11) that (bit, vector) stands for."""
    return np.array([vector[0], 0, 0, vector[1]] if bit == 0 else [0, vector[0], vector[1], 0], dtype=complex)


def interpret_one_particle(program: circuit.CircuitProgram, rng):
    """One shot of a program with no raw preparation or step, in the relative-value view; draws
    are taken as the engine takes them, and a probability within EPS_DET of 0 or 1 draws none.
    Returns the records as (key token, probability, post 4-vector) and the final 4-vector."""
    prep = program.preparation
    if isinstance(prep, circuit.BasisPreparation):
        bit, vector = (prep.index >> 1) ^ (prep.index & 1), np.eye(2, dtype=complex)[prep.index >> 1]
    else:
        if isinstance(prep, circuit.BellPreparation):
            bell_class, sign, s0 = prep.descriptor.bell_class, prep.descriptor.sign, prep.descriptor.s0
        else:
            bell_class, sign, s0 = prep.bell_class, 1 if rng.random() < 0.5 else -1, prep.s0
        s1 = np.sqrt(1.0 - s0 * s0)
        bit, vector = (0, np.array([s0, sign * s1], dtype=complex)) if bell_class == "phi" else (
            1, np.array([s1, sign * s0], dtype=complex))
    records = []
    for step in program.steps:
        if isinstance(step, (circuit.ApplyNamed, circuit.ApplyBellOperator)):
            key = (step.name, step.particle) if isinstance(step, circuit.ApplyNamed) else ("bellop", None)
            toggles, on_same, on_different = ONE_PARTICLE_STEPS[key]
            vector = (on_different if bit else on_same) @ vector
            bit ^= toggles
        elif isinstance(step, circuit.MeasureRelative):
            records.append((f"rel={('Same', 'Different')[bit]}", 1.0, _two_particle(bit, vector)))
        else:
            first = 0 if step.particle == "A" else bit  # the A value at which the measured value is 0
            p0 = abs(vector[first]) ** 2
            certain = 0 if p0 >= 1 - EPS_DET else 1 if p0 <= EPS_DET else None
            outcome = (0 if rng.random() < p0 else 1) if certain is None else certain
            kept = first ^ outcome
            probability = abs(vector[kept]) ** 2 if certain is None else 1.0
            vector = np.eye(2, dtype=complex)[kept] * (vector[kept] / abs(vector[kept]))
            records.append((f"{step.particle}={outcome}", probability, _two_particle(bit, vector)))
    return records, _two_particle(bit, vector)
