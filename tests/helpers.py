"""Shared test utilities: scripted random streams and a program generator."""

from __future__ import annotations

import sys

import numpy as np

from bellkit import circuit
from bellkit.bell import BellDescriptor
from bellkit.checks import random_two_qubit_state, random_unitary
from bellkit.core import INV_SQRT2, SingleQubitOperator


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
