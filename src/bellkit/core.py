"""Two-qubit state vectors, one-particle operators, and their four-dimensional lifts.

States are dense complex vectors in the computational basis ordered
|00>, |01>, |10>, |11>; the basis index of |ab> is 2*a + b, where the first
bit belongs to particle A and the second to particle B.  One-particle
operators act on a single qubit and are lifted to the pair with `lift_a`
and `lift_b`; the entangling change of basis between the computational and
Bell bases is `bell_operator`.

All values are immutable; every function is pure.  Constructors store each
amplitude as a finite Python `complex` (ints, floats and numpy scalars are
converted) and raise `ValueError` naming the first non-finite field; an
operator stores a read-only complex copy of a finite matrix of its shape.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import FrozenInstanceError, dataclass, field
from operator import attrgetter
from typing import Literal, Union

import numpy as np

__all__ = [
    "EPS_NORM",
    "EPS_OP",
    "EPS_ZERO",
    "INV_SQRT2",
    "Particle",
    "SingleQubitState",
    "TwoQubitState",
    "SingleQubitOperator",
    "TwoQubitOperator",
    "Operator",
    "basis_state",
    "tensor",
    "apply1",
    "apply2",
    "lift_a",
    "lift_b",
    "compose",
    "named_operator",
    "OPERATOR_NAMES",
    "bell_operator",
    "projector",
    "inner",
    "norm",
    "normalize",
    "states_close",
    "states_equal_up_to_phase",
    "format_real",
    "state_text",
]

# Comparison tolerances; fixed here and reused by every other module.
EPS_NORM = 1e-9   # normalization checks
EPS_OP = 1e-9     # operator property checks (unitarity, projector laws)
EPS_ZERO = 1e-12  # treat amplitudes/norms at or below this as exactly zero

# Canonical double for 1/sqrt(2); sqrt(0.5) rounds to this exact value.
INV_SQRT2 = math.sqrt(0.5)

Particle = Literal["A", "B"]


def _store_amplitudes(obj, names: tuple[str, ...]) -> None:
    """Store each named field of `obj` as a complex; ValueError names the first non-finite one."""
    for name in names:
        z = complex(getattr(obj, name))
        if not cmath.isfinite(z):
            raise ValueError(f"{name} must be finite, got {z!r}")
        object.__setattr__(obj, name, z)


def _norm(g00: complex, g01: complex, g10: complex, g11: complex) -> float:
    """Euclidean norm of four amplitudes, summed left to right; inf when a square overflows."""
    try:
        return math.sqrt(abs(g00) ** 2 + abs(g01) ** 2 + abs(g10) ** 2 + abs(g11) ** 2)
    except OverflowError:
        return math.inf


_set = object.__setattr__  # a value class's __init__ sets each field once with it, past __setattr__


class _ValueType(type):
    """Gives a value class the `__slots__` that its `__init__`'s parameters name, in order."""

    def __new__(mcs, name: str, bases: tuple, namespace: dict):
        init = namespace.get("__init__")
        fields = init.__code__.co_varnames[1 : init.__code__.co_argcount] if init else ()
        cls = super().__new__(mcs, name, bases, {**namespace, "__slots__": fields})
        cls.__match_args__, cls._shown = fields, tuple(f for f in fields if f not in cls._hidden)
        cls._key = attrgetter("__class__", *cls._shown)  # with the class, a tuple however few are shown
        return cls


class _Value(metaclass=_ValueType):
    """Base of the frozen value classes that are not dataclasses.  The parameters of a subclass's
    `__init__` are its fields, each set once with `_set`.  As a frozen dataclass's do, ==, hash and
    repr use the fields that `_hidden` does not name, and assignment raises FrozenInstanceError."""

    _hidden: tuple[str, ...] = ()

    def __eq__(self, other: object):
        return self._key(self) == self._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._shown)})"

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy, deepcopy and pickle rebuild a value through its __init__
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


class SingleQubitState(_Value):
    """Amplitudes (amp0, amp1) over the one-particle basis |0>, |1>."""

    def __init__(self, amp0: complex, amp1: complex) -> None:
        _set(self, "amp0", amp0)
        _set(self, "amp1", amp1)
        if not (type(amp0) is complex and type(amp1) is complex and cmath.isfinite(amp0) and cmath.isfinite(amp1)):
            _store_amplitudes(self, ("amp0", "amp1"))

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.amp0, self.amp1], dtype=complex)

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "SingleQubitState":
        return cls(*np.asarray(vec, dtype=complex).reshape(2).tolist())


@dataclass(frozen=True)
class TwoQubitState:
    """Amplitudes g(ab) over |00>, |01>, |10>, |11>.

    `subnormalized` is derived at construction: it records that the vector's
    norm differs from 1 by more than EPS_NORM.  Projections return their
    result verbatim rather than silently renormalizing, so transient values
    with this flag set do occur; renormalize with `normalize` when needed.
    """

    g00: complex
    g01: complex
    g10: complex
    g11: complex
    subnormalized: bool = field(init=False)

    def __post_init__(self) -> None:
        g00, g01, g10, g11 = self.g00, self.g01, self.g10, self.g11
        n = math.inf
        if type(g00) is complex and type(g01) is complex and type(g10) is complex and type(g11) is complex:
            n = _norm(g00, g01, g10, g11)
        # A finite norm implies finite amplitudes; otherwise coerce and check each field.
        if not n < math.inf:
            _store_amplitudes(self, ("g00", "g01", "g10", "g11"))
            n = _norm(self.g00, self.g01, self.g10, self.g11)
        object.__setattr__(self, "subnormalized", abs(n - 1.0) > EPS_NORM)
        object.__setattr__(self, "_norm_value", n)  # not a field: no part of ==, hash or repr

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.g00, self.g01, self.g10, self.g11], dtype=complex)

    @property
    def amplitudes(self) -> tuple[complex, complex, complex, complex]:
        return (self.g00, self.g01, self.g10, self.g11)

    def norm(self) -> float:
        return self._norm_value

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "TwoQubitState":
        return cls(*np.asarray(vec, dtype=complex).reshape(4).tolist())


def _require_normalized(s: TwoQubitState, caller: str) -> None:
    """Raise ValueError, naming `caller`, for a state whose `subnormalized` flag is set."""
    if s.subnormalized:
        got = "the zero vector" if s.norm() == 0.0 else f"norm {s.norm()!r}"
        raise ValueError(f"{caller} needs a normalized state, got {got}")


def _require_type(name: str, value, *kinds: type) -> None:
    """Raise TypeError, naming the parameter `name`, for a `value` of none of `kinds`."""
    if not isinstance(value, kinds):
        raise TypeError(f"{name} must be a {' or '.join(k.__name__ for k in kinds)}, got {type(value).__name__}")


def basis_state(index: int) -> TwoQubitState:
    """Computational basis state |ab> with index = 2*a + b."""
    if index not in (0, 1, 2, 3):
        raise ValueError(f"basis index must be 0..3, got {index}")
    amps = [0j, 0j, 0j, 0j]
    amps[index] = 1 + 0j
    return TwoQubitState(*amps)


def _unitarity_defect(m: np.ndarray) -> np.ndarray:
    """max |m^H m - I| of each matrix in a (..., n, n) stack; huge entries give inf or nan: not unitary."""
    eye = np.eye(m.shape[-1], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(m.conj().swapaxes(-1, -2) @ m - eye).max(axis=(-2, -1))


class _MatrixOperator:
    """Immutable wrapper around a read-only complex matrix."""

    _shape: tuple[int, int] = (0, 0)
    __slots__ = ("_matrix",)

    def __init__(self, matrix) -> None:
        m = np.array(matrix, dtype=complex)
        if m.shape != self._shape:
            raise ValueError(f"expected a {self._shape[0]}x{self._shape[1]} matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("operator entries must be finite")
        m.flags.writeable = False
        object.__setattr__(self, "_matrix", m)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    def entry(self, row: int, col: int) -> complex:
        return complex(self._matrix[row, col])

    def is_unitary(self, tol: float = EPS_OP) -> bool:
        return bool(_unitarity_defect(self._matrix) <= tol)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return bool(np.array_equal(self._matrix, other._matrix))

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which __eq__ already treats as equal.
        return hash((type(self).__name__, (self._matrix + 0.0).tobytes()))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        rows = "; ".join(
            " ".join(f"{z.real:+g}{z.imag:+g}i" for z in row) for row in self._matrix
        )
        return f"{type(self).__name__}([{rows}])"


class SingleQubitOperator(_MatrixOperator):
    """2x2 complex operator on one particle."""

    _shape = (2, 2)


class TwoQubitOperator(_MatrixOperator):
    """4x4 complex operator on the pair."""

    _shape = (4, 4)

    def is_projector(self, tol: float = EPS_OP) -> bool:
        m = self._matrix
        return bool(
            np.max(np.abs(m @ m - m)) <= tol and np.max(np.abs(m.conj().T - m)) <= tol
        )


Operator = Union[SingleQubitOperator, TwoQubitOperator]

# The four named one-particle operators: identity, value flip, and the two
# sign branches diag(1, +1) / diag(1, -1).  t_plus coincides with identity.
_NAMED_OPERATORS: dict[str, SingleQubitOperator] = {
    "identity": SingleQubitOperator([[1, 0], [0, 1]]),
    "flip": SingleQubitOperator([[0, 1], [1, 0]]),
    "t_plus": SingleQubitOperator([[1, 0], [0, 1]]),
    "t_minus": SingleQubitOperator([[1, 0], [0, -1]]),
}

OPERATOR_NAMES: tuple[str, ...] = tuple(_NAMED_OPERATORS)

_BELL_OPERATOR = TwoQubitOperator(
    np.array(
        [
            [1, 0, 0, 1],
            [0, 1, 1, 0],
            [0, 1, -1, 0],
            [1, 0, 0, -1],
        ],
        dtype=complex,
    )
    * INV_SQRT2
)

_EYE2 = np.eye(2, dtype=complex)


def named_operator(name: str) -> SingleQubitOperator:
    """Look up one of: identity, flip, t_plus, t_minus."""
    try:
        return _NAMED_OPERATORS[name]
    except KeyError:
        known = ", ".join(OPERATOR_NAMES)
        raise ValueError(f"unknown operator name {name!r} (known: {known})") from None


def bell_operator() -> TwoQubitOperator:
    """Self-inverse unitary mapping the computational basis to the Bell basis."""
    return _BELL_OPERATOR


def tensor(a: SingleQubitState, b: SingleQubitState) -> TwoQubitState:
    """Product state with g(ij) = a_i * b_j; normalized iff both inputs are."""
    return TwoQubitState(
        a.amp0 * b.amp0,
        a.amp0 * b.amp1,
        a.amp1 * b.amp0,
        a.amp1 * b.amp1,
    )


def apply1(op: SingleQubitOperator, s: SingleQubitState) -> SingleQubitState:
    return SingleQubitState(*(op.matrix @ s.vector).tolist())


def apply2(op: TwoQubitOperator, s: TwoQubitState) -> TwoQubitState:
    return TwoQubitState(*(op.matrix @ s.vector).tolist())


def _lift(m: np.ndarray, particle: Particle) -> np.ndarray:
    """A (..., 2, 2) stack of one-particle matrices lifted to the (..., 4, 4) stack acting on `particle`.

    On A the lift carries op(i, j) at the entries (2i+k, 2j+k), k in {0,1}: the
    broadcast product op[i, j] * I[k, l] at (2i+k, 2j+l), which is the
    elementwise multiply that np.kron(op, I) performs, bit for bit.  On B it is
    block-diagonal with one copy of op per A value: I[k, l] * op[i, j] at
    (2k+i, 2l+j), as np.kron(I, op).
    """
    if particle == "A":
        blocks = m[..., :, None, :, None] * _EYE2[:, None, :]
    else:
        blocks = _EYE2[:, None, :, None] * m[..., None, :, None, :]
    return blocks.reshape(*m.shape[:-2], 4, 4)


# Each named operator lifted to either particle once, by its identity: lift_a and lift_b return these.
_LIFTED_NAMED = {(id(op), p): TwoQubitOperator(_lift(op.matrix, p)) for op in _NAMED_OPERATORS.values() for p in "AB"}


def lift_a(op: SingleQubitOperator) -> TwoQubitOperator:
    """Act with `op` on particle A and leave B untouched."""
    _require_type("op", op, SingleQubitOperator)
    return _LIFTED_NAMED.get((id(op), "A")) or TwoQubitOperator(_lift(op.matrix, "A"))


def lift_b(op: SingleQubitOperator) -> TwoQubitOperator:
    """Act with `op` on particle B and leave A untouched."""
    _require_type("op", op, SingleQubitOperator)
    return _LIFTED_NAMED.get((id(op), "B")) or TwoQubitOperator(_lift(op.matrix, "B"))


_PROJECTORS: dict[tuple[str, int], TwoQubitOperator] = {
    (particle, value): lift(SingleQubitOperator(np.diag(d)))
    for value, d in enumerate(([1, 0], [0, 1]))
    for particle, lift in (("A", lift_a), ("B", lift_b))
}


def projector(particle: Particle, value: int) -> TwoQubitOperator:
    """Projector onto the subspace where `particle` has the given bit value (one of four constants)."""
    if value not in (0, 1):
        raise ValueError(f"projector value must be 0 or 1, got {value}")
    if particle not in ("A", "B"):
        raise ValueError(f"particle must be 'A' or 'B', got {particle!r}")
    return _PROJECTORS[particle, value]


def compose(f: Operator, g: Operator) -> Operator:
    """Operator product f.g: applying the result equals applying g, then f."""
    if type(f) is not type(g):
        raise ValueError("compose requires two operators of the same dimension")
    return type(f)(f.matrix @ g.matrix)


def inner(s: TwoQubitState, t: TwoQubitState) -> complex:
    """Inner product <s|t>, conjugate-linear in the first argument."""
    return complex(np.vdot(s.vector, t.vector))


def norm(s: TwoQubitState) -> float:
    return s.norm()


def normalize(s: TwoQubitState) -> TwoQubitState:
    n = s.norm()
    if n <= EPS_ZERO:
        raise ValueError("cannot normalize a state with (near-)zero norm")
    if n == math.inf:
        raise ValueError("cannot normalize a state whose norm overflows")
    return TwoQubitState(s.g00 / n, s.g01 / n, s.g10 / n, s.g11 / n)


def states_close(s: TwoQubitState, t: TwoQubitState, tol: float = EPS_NORM) -> bool:
    """Componentwise equality within tol (phase-sensitive)."""
    return all(abs(x - y) <= tol for x, y in zip(s.amplitudes, t.amplitudes))


def states_equal_up_to_phase(s: TwoQubitState, t: TwoQubitState, tol: float = EPS_NORM) -> bool:
    """True when the normalized states satisfy |<s|t>| = 1 within tol."""
    return abs(abs(inner(s, t)) - 1.0) <= tol


def format_real(x: float) -> str:
    """Canonical text for a double: 17 significant digits, round-trip exact."""
    return format(float(x), ".17g")


def _reim_text(values) -> str:
    """Complex values as alternating re/im, .17g each, space-separated."""
    return " ".join(format_real(x) for z in values for x in (z.real, z.imag))


def state_text(s: TwoQubitState) -> str:
    """Canonical rendering: g00 g01 g10 g11 as alternating re/im, .17g each."""
    return _reim_text(s.amplitudes)
