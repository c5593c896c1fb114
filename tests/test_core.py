"""Core types and operator algebra.

Expected matrices for the lifts are built from the index rules by an
independent oracle (explicit loops), never from the implementation's own
Kronecker products.
"""

import cmath
import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from helpers import random_operator, random_single_qubit_state, random_unitary

from bellkit import bell, checks, circuit, cli, core, engine

INV = math.sqrt(0.5)


def lift_a_oracle(m: np.ndarray) -> np.ndarray:
    """Index rule: entry (2i+k, 2j+k) = m[i, j], zero elsewhere."""
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                out[2 * i + k, 2 * j + k] = m[i, j]
    return out


def lift_b_oracle(m: np.ndarray) -> np.ndarray:
    """Index rule: one copy of m per A value, block-diagonal."""
    out = np.zeros((4, 4), dtype=complex)
    for k in range(2):
        for i in range(2):
            for j in range(2):
                out[2 * k + i, 2 * k + j] = m[i, j]
    return out


class TestStates:
    def test_basis_order_is_a_then_b(self):
        # |10> means A=1, B=0 and sits at index 2.
        s = core.basis_state(2)
        assert s.amplitudes == (0, 0, 1, 0)
        assert core.basis_state(1).amplitudes == (0, 1, 0, 0)

    def test_basis_state_rejects_bad_index(self):
        with pytest.raises(ValueError):
            core.basis_state(4)

    def test_constructors_reject_non_finite(self):
        with pytest.raises(ValueError):
            core.TwoQubitState(float("nan"), 0, 0, 0)
        with pytest.raises(ValueError):
            core.SingleQubitState(complex(0, float("inf")), 0)

    def test_subnormalized_flag(self):
        assert not core.basis_state(0).subnormalized
        assert core.TwoQubitState(0.5, 0, 0, 0).subnormalized
        assert core.TwoQubitState(1, 0, 0, 1).subnormalized

    def test_norm_and_normalize(self):
        s = core.TwoQubitState(1, 0, 0, 1)
        assert core.norm(s) == pytest.approx(math.sqrt(2), abs=1e-15)
        n = core.normalize(s)
        assert core.states_close(n, core.TwoQubitState(INV, 0, 0, INV), 1e-15)

    def test_normalize_zero_vector_raises(self):
        with pytest.raises(ValueError):
            core.normalize(core.TwoQubitState(0, 0, 0, 1e-13))

    def test_normalize_overflowing_norm_raises(self):
        # Each square overflows, so the norm is inf: dividing by it would give the zero vector.
        s = core.TwoQubitState(1e200, 1e200, 0, 0)
        with pytest.raises(ValueError, match="cannot normalize a state whose norm overflows"):
            core.normalize(s)
        with pytest.raises(ValueError, match="cannot normalize a state whose norm overflows"):
            engine.measure_value(s, "A", None)
        with pytest.raises(ValueError, match="cannot normalize a state whose norm overflows"):
            engine._collapse(s.vector[None, :], "A", [0])  # the level pass's collapse

    def test_inner_conjugate_linear_in_first_argument(self):
        s = core.TwoQubitState(1j, 0, 0, 0)
        t = core.basis_state(0)
        assert core.inner(s, t) == pytest.approx(-1j)
        assert core.inner(t, s) == pytest.approx(1j)

    def test_equality_predicates(self):
        s = core.TwoQubitState(INV, 0, 0, INV)
        phase = cmath.exp(0.7j)
        t = core.TwoQubitState(*(phase * g for g in s.amplitudes))
        assert core.states_close(s, s, 1e-15)
        assert not core.states_close(s, t, 1e-6)
        assert core.states_equal_up_to_phase(s, t, 1e-12)
        assert not core.states_equal_up_to_phase(s, core.basis_state(1), 1e-6)


class TestNamedOperators:
    def test_matrices(self):
        assert np.array_equal(core.named_operator("identity").matrix, np.eye(2))
        assert np.array_equal(core.named_operator("flip").matrix, [[0, 1], [1, 0]])
        assert np.array_equal(core.named_operator("t_plus").matrix, [[1, 0], [0, 1]])
        assert np.array_equal(core.named_operator("t_minus").matrix, [[1, 0], [0, -1]])

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown operator"):
            core.named_operator("hadamard")

    def test_all_named_are_unitary(self):
        for name in core.OPERATOR_NAMES:
            assert core.named_operator(name).is_unitary(1e-15)

    def test_huge_entries_are_not_unitary_and_warn_nothing(self):
        # M^H M overflows to inf and inf - inf; the suite turns any RuntimeWarning into an error.
        assert not core.SingleQubitOperator([[1e200, 0], [0, 1]]).is_unitary()
        assert not core.lift_a(core.SingleQubitOperator([[1e200, 1e200], [0, 1]])).is_unitary()

    def test_apply1_sign_branch(self):
        s = core.SingleQubitState(0.6, 0.8j)
        out = core.apply1(core.named_operator("t_minus"), s)
        assert out.amp0 == 0.6 and out.amp1 == -0.8j

    def test_apply1_flip(self):
        s = core.SingleQubitState(0.6, 0.8)
        out = core.apply1(core.named_operator("flip"), s)
        assert (out.amp0, out.amp1) == (0.8, 0.6)

    def test_operator_shape_and_finiteness_validation(self):
        with pytest.raises(ValueError):
            core.SingleQubitOperator([[1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError):
            core.TwoQubitOperator(np.full((4, 4), np.nan))

    def test_operators_are_immutable(self):
        op = core.named_operator("flip")
        with pytest.raises(AttributeError):
            op.matrix = np.eye(2)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5


class TestTensorAndLifts:
    def test_tensor_example(self):
        # (|0>+|1>)/sqrt(2) on A with |1> on B puts equal weight on |01>,|11>.
        a = core.SingleQubitState(INV, INV)
        b = core.SingleQubitState(0, 1)
        s = core.tensor(a, b)
        assert core.states_close(s, core.TwoQubitState(0, INV, 0, INV), 1e-15)

    def test_lift_diag_examples(self):
        t_minus = core.named_operator("t_minus")
        assert np.array_equal(
            core.lift_a(t_minus).matrix, np.diag([1, 1, -1, -1]).astype(complex)
        )
        assert np.array_equal(
            core.lift_b(t_minus).matrix, np.diag([1, -1, 1, -1]).astype(complex)
        )

    def test_lift_flip_matrices(self):
        flip = core.named_operator("flip")
        expected_a = np.array(
            [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex
        )
        expected_b = np.array(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        assert np.array_equal(core.lift_a(flip).matrix, expected_a)
        assert np.array_equal(core.lift_b(flip).matrix, expected_b)

    def test_lift_matches_index_rule_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            op = random_operator(rng)
            assert np.array_equal(core.lift_a(op).matrix, lift_a_oracle(op.matrix))
            assert np.array_equal(core.lift_b(op).matrix, lift_b_oracle(op.matrix))

    def test_lift_homomorphism_and_commutation(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            s_op, t_op = random_operator(rng), random_operator(rng)
            for lift in (core.lift_a, core.lift_b):
                lhs = lift(core.compose(s_op, t_op)).matrix
                rhs = core.compose(lift(s_op), lift(t_op)).matrix
                assert np.max(np.abs(lhs - rhs)) <= 1e-10
            ab = core.compose(core.lift_a(s_op), core.lift_b(t_op)).matrix
            ba = core.compose(core.lift_b(t_op), core.lift_a(s_op)).matrix
            assert np.max(np.abs(ab - ba)) <= 1e-10

    def test_lift_consistency_with_tensor(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            s_op = random_operator(rng)
            a, b = random_single_qubit_state(rng), random_single_qubit_state(rng)
            via_a = core.apply2(core.lift_a(s_op), core.tensor(a, b))
            assert np.max(np.abs(via_a.vector - core.tensor(core.apply1(s_op, a), b).vector)) <= 1e-10
            via_b = core.apply2(core.lift_b(s_op), core.tensor(a, b))
            assert np.max(np.abs(via_b.vector - core.tensor(a, core.apply1(s_op, b)).vector)) <= 1e-10

    def test_lifting_preserves_unitarity(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            u = random_unitary(rng)
            assert core.lift_a(u).is_unitary()
            assert core.lift_b(u).is_unitary()

    def test_compose_applies_g_then_f(self):
        # flip and t_minus anticommute, so a product taken in the wrong order flips a sign.
        rng = np.random.default_rng(11)
        flip, t_minus = core.named_operator("flip"), core.named_operator("t_minus")
        for f, g in ((flip, t_minus), (t_minus, flip)):
            for _ in range(20):
                s = random_single_qubit_state(rng)
                once = core.apply1(core.compose(f, g), s).vector
                assert np.max(np.abs(once - core.apply1(f, core.apply1(g, s)).vector)) <= 1e-12
                for lift in (core.lift_a, core.lift_b):
                    state = core.tensor(s, random_single_qubit_state(rng))
                    lifted_f, lifted_g = lift(f), lift(g)
                    once = core.apply2(core.compose(lifted_f, lifted_g), state).vector
                    twice = core.apply2(lifted_f, core.apply2(lifted_g, state)).vector
                    assert np.max(np.abs(once - twice)) <= 1e-12

    def test_compose_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            core.compose(core.named_operator("flip"), core.bell_operator())

    @pytest.mark.parametrize("lift", [core.lift_a, core.lift_b])
    def test_a_lift_of_a_pair_operator_is_a_type_error(self, lift):
        with pytest.raises(TypeError, match="^op must be a SingleQubitOperator, got TwoQubitOperator$"):
            lift(core.TwoQubitOperator(np.eye(4)))


class TestBellOperatorAndProjectors:
    def test_bell_operator_matrix(self):
        expected = INV * np.array(
            [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]], dtype=complex
        )
        assert np.array_equal(core.bell_operator().matrix, expected)

    def test_bell_operator_is_self_inverse_unitary(self):
        b = core.bell_operator()
        assert b.is_unitary(1e-12)
        assert np.max(np.abs(core.compose(b, b).matrix - np.eye(4))) <= 1e-12

    def test_projector_matrices(self):
        assert np.array_equal(core.projector("A", 0).matrix, np.diag([1, 1, 0, 0]).astype(complex))
        assert np.array_equal(core.projector("A", 1).matrix, np.diag([0, 0, 1, 1]).astype(complex))
        assert np.array_equal(core.projector("B", 0).matrix, np.diag([1, 0, 1, 0]).astype(complex))
        assert np.array_equal(core.projector("B", 1).matrix, np.diag([0, 1, 0, 1]).astype(complex))

    def test_projector_laws(self):
        for particle in ("A", "B"):
            p0, p1 = core.projector(particle, 0), core.projector(particle, 1)
            assert p0.is_projector(1e-15) and p1.is_projector(1e-15)
            assert np.array_equal(p0.matrix + p1.matrix, np.eye(4))
        with pytest.raises(ValueError):
            core.projector("A", 2)
        with pytest.raises(ValueError):
            core.projector("C", 0)

    def test_projection_of_bell_pair_is_exact(self):
        phi_plus = core.TwoQubitState(INV, 0, 0, INV)
        projected = core.apply2(core.projector("A", 0), phi_plus)
        assert projected.amplitudes == (INV, 0, 0, 0)
        assert projected.subnormalized


class TestCanonicalText:
    def test_format_real_round_trips(self):
        rng = np.random.default_rng(11)
        values = [0.0, 1.0, -0.5, INV, 1e-300, 1e300, 0.1]
        values += list(rng.normal(size=50))
        for x in values:
            assert float(core.format_real(x)) == x

    def test_state_text_golden(self):
        s = core.TwoQubitState(INV, 0, 0, -INV)
        assert core.state_text(s) == (
            "0.70710678118654757 0 0 0 0 0 -0.70710678118654757 0"
        )

    def test_inv_sqrt2_constant(self):
        assert core.INV_SQRT2 == 0.7071067811865476


def _planted_matrix(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Random complex entries with some parts replaced by +0.0 and -0.0."""
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    parts = m.view(float)
    parts[rng.random(parts.shape) < 0.3] = 0.0
    parts[rng.random(parts.shape) < 0.3] = -0.0
    return m


def _reference_norm(s: core.TwoQubitState) -> float:
    return math.sqrt(abs(s.g00) ** 2 + abs(s.g01) ** 2 + abs(s.g10) ** 2 + abs(s.g11) ** 2)


def _stored(s) -> tuple:
    """The amplitude fields a state stores: a TwoQubitState's are its dataclass fields up to `subnormalized`."""
    return dataclasses.astuple(s)[:4] if isinstance(s, core.TwoQubitState) else (s.amp0, s.amp1)


class TestConstructorContract:
    """What every state and operator constructor accepts, stores and rejects."""

    BAD = (float("nan"), float("inf"), -float("inf"), complex(0, float("nan")), complex(float("inf"), 0))

    @pytest.mark.parametrize("cls, fields", [
        (core.TwoQubitState, ("g00", "g01", "g10", "g11")),
        (core.SingleQubitState, ("amp0", "amp1")),
    ])
    def test_non_finite_amplitude_names_its_field(self, cls, fields):
        for position, name in enumerate(fields):
            for bad in self.BAD:
                values = [0.5 + 0.5j] * len(fields)
                values[position] = bad
                with pytest.raises(ValueError, match=f"^{name} must be finite"):
                    cls(*values)

    @pytest.mark.parametrize("cls, width", [(core.TwoQubitState, 4), (core.SingleQubitState, 2)])
    def test_numbers_are_stored_as_python_complex(self, cls, width):
        for value in (1, 0.5, -0.0, np.float64(0.25), np.complex128(0.5 - 0.5j), np.int64(1), 0.5j):
            s = cls(*([value] * width))
            for stored in _stored(s):
                assert type(stored) is complex
                assert stored == complex(value)
                assert math.copysign(1.0, stored.real) == math.copysign(1.0, complex(value).real)

    def test_overflowing_norm_still_constructs(self):
        # Each square is finite; their sum overflows to inf.
        s = core.TwoQubitState(1e154, 1e154, 1e154, 1e154)
        assert s.subnormalized and core.norm(s) == math.inf
        assert all(type(g) is complex for g in s.amplitudes)

    def test_overflowing_square_is_an_infinite_norm(self):
        s = core.TwoQubitState(1e200, 0, 0, 0)
        assert s.subnormalized and core.norm(s) == math.inf and s.g00 == 1e200

    def test_norm_and_subnormalized_follow_the_summation_formula(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            g = rng.normal(size=4) + 1j * rng.normal(size=4)
            g = g / np.linalg.norm(g) * rng.choice([1.0, 1 + 5e-10, 1 + 2e-9, 0.5])
            for s in (core.TwoQubitState(*g.tolist()), core.TwoQubitState(*g.real.tolist())):
                assert core.norm(s) == _reference_norm(s)
                assert s.subnormalized == (abs(_reference_norm(s) - 1.0) > core.EPS_NORM)

    @pytest.mark.parametrize("cls, shape", [
        (core.SingleQubitOperator, (2, 2)),
        (core.TwoQubitOperator, (4, 4)),
    ])
    def test_operator_messages(self, cls, shape):
        with pytest.raises(ValueError) as wrong:
            cls(np.eye(3))
        assert str(wrong.value) == f"expected a {shape[0]}x{shape[1]} matrix, got shape (3, 3)"
        for bad in self.BAD:
            for position in range(shape[0] * shape[1]):
                m = np.eye(shape[0], dtype=complex).ravel()
                m[position] = bad
                with pytest.raises(ValueError) as non_finite:
                    cls(m.reshape(shape))
                assert str(non_finite.value) == "operator entries must be finite"

    @pytest.mark.parametrize("cls, size", [(core.SingleQubitOperator, 2), (core.TwoQubitOperator, 4)])
    def test_operators_store_a_read_only_complex_copy(self, cls, size):
        source = np.arange(size * size).reshape(size, size)
        op = cls(source)
        assert op.matrix.dtype == complex and not op.matrix.flags.writeable
        source[0, 0] = 99
        assert op.entry(0, 0) == 0


class TestKernelsBitExact:
    """The broadcast lifts and list-based constructors give numpy's own bytes."""

    def test_lifts_equal_kron_byte_for_byte(self):
        rng = np.random.default_rng(13)
        eye = np.eye(2, dtype=complex)
        matrices = [_planted_matrix(rng, (2, 2)) for _ in range(2000)]
        matrices += [core.named_operator(name).matrix for name in core.OPERATOR_NAMES]
        matrices.append(np.array([[-0.0, 0.0 - 0.0j], [complex(-0.0, -0.0), 1.0]]))
        for m in matrices:
            op = core.SingleQubitOperator(m)
            assert core.lift_a(op).matrix.tobytes() == np.kron(m, eye).tobytes()
            assert core.lift_b(op).matrix.tobytes() == np.kron(eye, m).tobytes()

    def test_projectors_equal_kron_byte_for_byte(self):
        eye = np.eye(2, dtype=complex)
        for value, d in enumerate(([1, 0], [0, 1])):
            p = np.diag(d).astype(complex)
            assert core.projector("A", value).matrix.tobytes() == np.kron(p, eye).tobytes()
            assert core.projector("B", value).matrix.tobytes() == np.kron(eye, p).tobytes()

    def test_apply_is_numpys_matvec(self):
        rng = np.random.default_rng(14)
        for _ in range(2000):
            op = core.TwoQubitOperator(_planted_matrix(rng, (4, 4)))
            s = core.TwoQubitState(*_planted_matrix(rng, (1, 4)).ravel().tolist())
            out = core.apply2(op, s)
            assert out.vector.tobytes() == (op.matrix @ s.vector).tobytes()
            assert core.norm(out) == _reference_norm(out)
            op1 = core.SingleQubitOperator(_planted_matrix(rng, (2, 2)))
            s1 = core.SingleQubitState(*_planted_matrix(rng, (1, 2)).ravel().tolist())
            assert core.apply1(op1, s1).vector.tobytes() == (op1.matrix @ s1.vector).tobytes()

    def test_from_vector_keeps_every_double(self):
        rng = np.random.default_rng(15)
        for _ in range(500):
            v = _planted_matrix(rng, (1, 4)).ravel()
            for s, width in ((core.TwoQubitState.from_vector(v), 4), (core.SingleQubitState.from_vector(v[:2]), 2)):
                reference = [complex(v[i]) for i in range(width)]
                stored = _stored(s)
                assert all(type(z) is complex for z in stored)
                assert np.array(stored).tobytes() == np.array(reference).tobytes()


class TestOperatorHash:
    def test_equal_operators_hash_equal_across_signed_zeros(self):
        a = core.lift_a(core.named_operator("t_minus"))
        b = core.TwoQubitOperator(np.diag([1, 1, -1, -1]))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        c = core.SingleQubitOperator([[1, -0.0], [complex(0.0, -0.0), 1]])
        d = core.SingleQubitOperator(np.eye(2))
        assert c == d and hash(c) == hash(d) and len({c, d}) == 1

    def test_unequal_operators_still_differ(self):
        assert core.named_operator("flip") != core.named_operator("t_minus")
        assert len({core.named_operator(name) for name in core.OPERATOR_NAMES}) == 3


# Reference copies of the value classes that are not dataclasses, as frozen dataclasses, with
# their former __post_init__ behaviour.  Each has its class's name, so that the reprs compare.
_POS = dict(default=(1, 1), compare=False, repr=False)


@dataclasses.dataclass(frozen=True)
class SingleQubitState:
    amp0: complex
    amp1: complex

    def __post_init__(self):
        for name in ("amp0", "amp1"):
            z = complex(getattr(self, name))
            if not cmath.isfinite(z):
                raise ValueError(f"{name} must be finite, got {z!r}")
            object.__setattr__(self, name, z)


@dataclasses.dataclass(frozen=True)
class BellDescriptor:
    bell_class: str
    sign: int
    s0: float = INV

    def __post_init__(self):
        if self.bell_class not in ("phi", "psi"):
            raise ValueError(f"bell_class must be 'phi' or 'psi', got {self.bell_class!r}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        s0 = float(self.s0)
        if not (math.isfinite(s0) and 0.0 <= s0 <= 1.0):
            raise ValueError(f"s0 must lie in [0, 1], got {self.s0!r}")
        object.__setattr__(self, "s0", s0)


@dataclasses.dataclass(frozen=True)
class StateClassification:
    kind: str
    phase: complex = 1 + 0j
    basis_index: object = None
    bell: object = None
    factors: object = None


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    line: int
    column: int
    severity: str
    message: str


@dataclasses.dataclass(frozen=True)
class BasisPreparation:
    index: int
    source_pos: tuple = dataclasses.field(**_POS)


@dataclasses.dataclass(frozen=True)
class BellPreparation:
    descriptor: object
    source_pos: tuple = dataclasses.field(**_POS)


@dataclasses.dataclass(frozen=True)
class BellRandomSignPreparation:
    bell_class: str
    s0: float = INV
    source_pos: tuple = dataclasses.field(**_POS)


@dataclasses.dataclass(frozen=True)
class RawPreparation:
    state: object
    source_pos: tuple = dataclasses.field(**_POS)


@dataclasses.dataclass(frozen=True)
class ApplyNamed:
    name: str
    particle: str
    source_pos: tuple = dataclasses.field(**_POS)


@dataclasses.dataclass(frozen=True)
class ApplyBellOperator:
    source_pos: tuple = dataclasses.field(**_POS)


@dataclasses.dataclass(frozen=True)
class ApplyRaw:
    particle: str
    operator: object
    source_pos: tuple = dataclasses.field(**_POS)


@dataclasses.dataclass(frozen=True)
class MeasureRelative:
    source_pos: tuple = dataclasses.field(**_POS)


@dataclasses.dataclass(frozen=True)
class MeasureValue:
    particle: str
    source_pos: tuple = dataclasses.field(**_POS)


@dataclasses.dataclass(frozen=True)
class CircuitProgram:
    preparation: object
    steps: tuple = ()
    shots: int = 1024
    seed: int = 0
    shots_pos: tuple = dataclasses.field(**_POS)
    seed_pos: tuple = dataclasses.field(**_POS)

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))


@dataclasses.dataclass(frozen=True)
class RelativeBitResult:
    bit: object
    p_same: float


@dataclasses.dataclass(frozen=True)
class MeasurementRecord:
    step_index: int
    kind: str
    particle: object
    outcome: object
    probability: float
    projected_norm: float
    post_state: object


@dataclasses.dataclass(frozen=True)
class ShotResult:
    records: tuple
    final_state: object


@dataclasses.dataclass(frozen=True)
class CompiledProgram:
    program: object
    warnings: tuple
    prepared: tuple
    actions: tuple


@dataclasses.dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _value_samples() -> list:
    """(bellkit class, its reference, two argument tuples that differ in a compared field)."""
    s = core.TwoQubitState(0.6, 0, 0, 0.8j)
    t = core.basis_state(2)
    flip, t_minus = core.named_operator("flip"), core.named_operator("t_minus")
    phi, psi = bell.BellDescriptor("phi", 1), bell.BellDescriptor("psi", -1, 0.25)
    a, b = circuit.BasisPreparation(1), circuit.MeasureValue("B")
    program = circuit.CircuitProgram(a, (b,), 9, 4)
    same = engine.RelativeBit.SAME
    record = engine.MeasurementRecord(0, "relative", None, same, 1.0, 1.0, s)
    pairs = {
        core.SingleQubitState: ((0.6, 0.8j), (0.8j, 0.6)),
        bell.BellDescriptor: (("phi", 1, 0.5), ("phi", -1, 0.5)),
        bell.StateClassification: (("basis", 1j, 2), ("bell", 1 + 0j, None, phi)),
        circuit.Diagnostic: ((3, 5, "error", "unknown keyword"), (3, 5, "warning", "unknown keyword")),
        circuit.BasisPreparation: ((0,), (3,)),
        circuit.BellPreparation: ((phi,), (psi,)),
        circuit.BellRandomSignPreparation: (("phi",), ("psi", 0.25)),
        circuit.RawPreparation: ((s,), (t,)),
        circuit.ApplyNamed: (("flip", "A"), ("flip", "B")),
        circuit.ApplyBellOperator: ((), None),
        circuit.ApplyRaw: (("A", flip), ("A", t_minus)),
        circuit.MeasureRelative: ((), None),
        circuit.MeasureValue: (("A",), ("B",)),
        circuit.CircuitProgram: ((a, (b,), 9, 4), (a, (b, b), 9, 4)),
        engine.RelativeBitResult: ((same, 1.0), (None, 0.5)),
        engine.MeasurementRecord: ((0, "relative", None, same, 1.0, 1.0, s), (0, "value", "A", 0, 0.36, 0.6, t)),
        engine.ShotResult: (((record,), s), ((), s)),
        engine.CompiledProgram: ((program, (), (t,), ()), (program, (), (t, s), ())),
        checks.CheckResult: (("statistics", True), ("statistics", False, "off by 5 sigma")),
    }
    return [(cls, globals()[cls.__name__], *args) for cls, args in pairs.items()]


_VALUE_SAMPLES = _value_samples()


def _all_fields(value) -> tuple:
    return tuple(getattr(value, f.name) for f in dataclasses.fields(globals()[type(value).__name__]))


class TestValueClasses:
    """The value classes that are not dataclasses behave as their frozen-dataclass references."""

    @pytest.mark.parametrize("cls, ref, a, b", _VALUE_SAMPLES, ids=lambda x: getattr(x, "__name__", None))
    def test_repr_equality_and_hash(self, cls, ref, a, b):
        for args in (a, b) if b is not None else (a,):
            value, same = cls(*args), cls(*args)
            assert repr(value) == repr(ref(*args))
            assert value == same and not value != same and hash(value) == hash(same)
            assert value != ref(*args) and value.__eq__(ref(*args)) is NotImplemented
        if b is not None:
            assert cls(*a) != cls(*b) and not cls(*a) == cls(*b) and hash(cls(*a)) != hash(cls(*b))
            assert ref(*a) != ref(*b)

    @pytest.mark.parametrize("cls, ref, a, b", _VALUE_SAMPLES, ids=lambda x: getattr(x, "__name__", None))
    def test_positions_take_no_part(self, cls, ref, a, b):
        positions = [f.name for f in dataclasses.fields(ref) if f.name.endswith("_pos")]
        assert set(positions) == set(cls._hidden) & set(cls.__match_args__)
        moved = cls(*a, **{name: (7, 9) for name in positions})
        assert [getattr(moved, name) for name in positions] == [(7, 9)] * len(positions)
        assert moved == cls(*a) and hash(moved) == hash(cls(*a)) and repr(moved) == repr(cls(*a))

    @pytest.mark.parametrize("cls, ref, a, b", _VALUE_SAMPLES, ids=lambda x: getattr(x, "__name__", None))
    def test_construction(self, cls, ref, a, b):
        fields = dataclasses.fields(ref)
        assert cls.__match_args__ == ref.__match_args__ == tuple(f.name for f in fields)
        full = _all_fields(ref(*a))
        assert _all_fields(cls(*full)) == full
        assert _all_fields(cls(**dict(zip(cls.__match_args__, full)))) == full
        required = [f for f in fields if f.default is dataclasses.MISSING]
        assert _all_fields(cls(*a[: len(required)])) == _all_fields(ref(*a[: len(required)]))
        if required:
            with pytest.raises(TypeError):
                cls(*a[: len(required) - 1])
        with pytest.raises(TypeError):
            cls(*full, None)
        with pytest.raises(TypeError):
            cls(*a, unexpected=None)

    @pytest.mark.parametrize("cls, ref, a, b", _VALUE_SAMPLES, ids=lambda x: getattr(x, "__name__", None))
    def test_frozen(self, cls, ref, a, b):
        value = cls(*a)
        for name in [*cls.__match_args__, "other"]:
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
                setattr(value, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
                delattr(value, name)
        assert issubclass(dataclasses.FrozenInstanceError, AttributeError)
        assert _all_fields(value) == _all_fields(cls(*a)) and not hasattr(value, "__dict__")

    @pytest.mark.parametrize("cls, ref, a, b", _VALUE_SAMPLES, ids=lambda x: getattr(x, "__name__", None))
    def test_copy_and_pickle(self, cls, ref, a, b):
        moved = {name: (7, 9) for name in cls._hidden if name in cls.__match_args__}
        value, reference = cls(*a, **moved), ref(*a, **moved)
        for round_trip in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            try:
                round_trip(reference)
            except AttributeError as exc:  # a field the reference cannot copy either (an operator)
                with pytest.raises(type(exc)):
                    round_trip(value)
                continue
            copied = round_trip(value)
            assert type(copied) is cls and copied == value and _all_fields(copied) == _all_fields(value)

    def test_init_keeps_the_former_post_init(self):
        for args in (("chi", 1), ("phi", 0), ("phi", True, 2.0), ("psi", -1, float("nan")), ("psi", 1, -0.5)):
            with pytest.raises(ValueError) as expected:
                BellDescriptor(*args)
            with pytest.raises(ValueError) as got:
                bell.BellDescriptor(*args)
            assert str(got.value) == str(expected.value)
        assert repr(bell.BellDescriptor("phi", 1, np.float64(0.25))) == repr(BellDescriptor("phi", 1, np.float64(0.25)))
        assert type(bell.BellDescriptor("psi", -1, 1).s0) is float
        nan, inf = float("nan"), float("inf")
        for args in ((1, 0), (np.float64(0.6), np.int64(0)), (-0.0, 0.5j), (inf, 0), (0, complex(0, nan))):
            try:
                expected = _all_fields(SingleQubitState(*args))
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    core.SingleQubitState(*args)
                assert str(got.value) == str(exc)
                continue
            got = _all_fields(core.SingleQubitState(*args))
            assert [type(z) for z in got] == [complex, complex] and repr(got) == repr(expected)
        steps = [circuit.MeasureRelative(), circuit.MeasureValue("A")]
        assert circuit.CircuitProgram(circuit.BasisPreparation(0), steps).steps == tuple(steps)

    def test_only_two_classes_are_dataclasses(self):
        classes = {value for module in (core, bell, circuit, engine, checks, cli) for value in vars(module).values()
                   if isinstance(value, type) and value.__module__.startswith("bellkit")}
        assert {cls for cls in classes if dataclasses.is_dataclass(cls)} == {core.TwoQubitState, engine.ShotStatistics}
        converted = {cls for cls, *_ in _VALUE_SAMPLES}
        assert converted == {cls for cls in classes if issubclass(cls, core._Value) and "__init__" in vars(cls)}
