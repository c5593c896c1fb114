"""Bell family, separability defect, factorization, and classification."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bellkit import bell, core, engine
from bellkit.checks import (
    nearest_product_distance,
    random_product_state,
    random_two_qubit_state,
)

INV = math.sqrt(0.5)


def descriptor(cls, sign, s0=INV):
    return bell.BellDescriptor(bell_class=cls, sign=sign, s0=s0)


class TestBellStates:
    @pytest.mark.parametrize(
        "cls,sign,expected",
        [
            ("phi", 1, (INV, 0, 0, INV)),
            ("phi", -1, (INV, 0, 0, -INV)),
            ("psi", 1, (0, INV, INV, 0)),
            ("psi", -1, (0, INV, -INV, 0)),
        ],
    )
    def test_standard_states(self, cls, sign, expected):
        state = bell.bell_state(descriptor(cls, sign))
        assert np.max(np.abs(state.vector - np.array(expected, dtype=complex))) <= 1e-15

    def test_generalized_family_at_s0_06(self):
        assert bell.bell_state(descriptor("phi", 1, 0.6)).amplitudes == (0.6, 0, 0, 0.8)
        assert bell.bell_state(descriptor("phi", -1, 0.6)).amplitudes == (0.6, 0, 0, -0.8)
        assert bell.bell_state(descriptor("psi", 1, 0.6)).amplitudes == (0, 0.8, 0.6, 0)
        assert bell.bell_state(descriptor("psi", -1, 0.6)).amplitudes == (0, 0.8, -0.6, 0)

    def test_family_is_normalized_for_random_s0(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            d = descriptor(
                "phi" if rng.random() < 0.5 else "psi",
                1 if rng.random() < 0.5 else -1,
                float(rng.random()),
            )
            assert abs(core.norm(bell.bell_state(d)) - 1.0) <= 1e-9

    def test_standard_states_are_orthonormal(self):
        states = [
            bell.bell_state(descriptor(cls, sign))
            for cls in ("phi", "psi")
            for sign in (1, -1)
        ]
        for i, s in enumerate(states):
            for j, t in enumerate(states):
                expected = 1.0 if i == j else 0.0
                assert abs(core.inner(s, t) - expected) <= 1e-12

    @pytest.mark.parametrize("s0", [0.0, 1e-6, 0.6, INV, 1.0])
    def test_complex_construction_keeps_every_bit(self, s0, monkeypatch):
        # The float construction, coerced field by field, is the reference; the signed zeros included.
        other = math.sqrt(1.0 - s0 * s0)
        expected = {}
        for sign in (1, -1):
            expected["phi", sign] = core.TwoQubitState(s0, 0.0, 0.0, sign * other)
            expected["psi", sign] = core.TwoQubitState(0.0, other, sign * s0, 0.0)

        def coerced(*args):
            raise AssertionError("bell_state took the coercion path")

        monkeypatch.setattr(core, "_store_amplitudes", coerced)
        for (cls, sign), reference in expected.items():
            state = bell.bell_state(descriptor(cls, sign, s0))
            assert core.state_text(state) == core.state_text(reference)
            signs = [math.copysign(1.0, part) for z in state.amplitudes for part in (z.real, z.imag)]
            assert signs == [math.copysign(1.0, part) for z in reference.amplitudes for part in (z.real, z.imag)]
            assert state == reference and state.subnormalized == reference.subnormalized

    def test_descriptor_validation(self):
        with pytest.raises(ValueError):
            bell.BellDescriptor("phi", 1, 1.5)
        with pytest.raises(ValueError):
            bell.BellDescriptor("phi", 1, -0.1)
        with pytest.raises(ValueError):
            bell.BellDescriptor("chi", 1)
        with pytest.raises(ValueError):
            bell.BellDescriptor("phi", 2)


class TestSeparabilityDefect:
    def test_frozen_values(self):
        assert bell.separability_defect(core.basis_state(0)) == 0.0
        # Uniform superposition is the product of two balanced qubits.
        uniform = core.TwoQubitState(0.5, 0.5, 0.5, 0.5)
        assert bell.separability_defect(uniform) == 0.0
        phi_plus = bell.bell_state(descriptor("phi", 1))
        assert abs(bell.separability_defect(phi_plus) - 0.5) <= 1e-12
        # s0 = 0.6 member: |0.6 * 0.8| = 0.48.
        skewed = bell.bell_state(descriptor("phi", 1, 0.6))
        assert abs(bell.separability_defect(skewed) - 0.48) <= 1e-15

    def test_product_states_have_zero_defect(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            assert bell.separability_defect(random_product_state(rng)) <= 1e-8

    def test_defect_bounded_by_half(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            assert bell.separability_defect(random_two_qubit_state(rng)) <= 0.5 + 1e-12


class TestFactorize:
    def test_product_round_trip_is_exact_including_phase(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            s = random_product_state(rng)
            factors = bell.factorize(s)
            assert factors is not None
            a, b = factors
            assert abs(a.norm() - 1.0) <= 1e-12 and abs(b.norm() - 1.0) <= 1e-12
            rebuilt = core.tensor(a, b)
            assert np.max(np.abs(rebuilt.vector - s.vector)) <= 1e-8

    def test_entangled_states_refuse(self):
        for cls in ("phi", "psi"):
            for sign in (1, -1):
                assert bell.factorize(bell.bell_state(descriptor(cls, sign))) is None

    def test_factorize_dominant_row_selection(self):
        # B factor must come from the heavier row even when row 0 is tiny.
        a = core.SingleQubitState(0.1, math.sqrt(1 - 0.01))
        b = core.SingleQubitState(0.6j, 0.8)
        s = core.tensor(a, b)
        factors = bell.factorize(s)
        assert factors is not None
        assert np.max(np.abs(core.tensor(*factors).vector - s.vector)) <= 1e-12


class TestClassify:
    def test_basis_states(self):
        for index in range(4):
            got = bell.classify(core.basis_state(index))
            assert got.kind == "basis" and got.basis_index == index
            assert got.phase == 1.0

    def test_basis_with_phase(self):
        s = core.TwoQubitState(0, 1j, 0, 0)
        got = bell.classify(s)
        assert got.kind == "basis" and got.basis_index == 1
        assert abs(got.phase - 1j) <= 1e-12
        assert np.max(np.abs(got.reconstruct().vector - s.vector)) <= 1e-8

    def test_standard_bell_states(self):
        for cls in ("phi", "psi"):
            for sign in (1, -1):
                d = descriptor(cls, sign)
                got = bell.classify(bell.bell_state(d))
                assert got.kind == "bell" and got.bell == d and got.phase == 1.0

    def test_bell_with_global_phase(self):
        base = bell.bell_state(descriptor("psi", -1, 0.6))
        s = core.TwoQubitState(*(-g for g in base.amplitudes))
        got = bell.classify(s)
        assert got.kind == "bell"
        assert got.bell == descriptor("psi", -1, 0.6)
        assert abs(got.phase + 1.0) <= 1e-12
        assert np.max(np.abs(got.reconstruct().vector - s.vector)) <= 1e-8

    def test_complex_relative_phase_is_general(self):
        # Support pattern matches phi but the relative phase is i, not +-1.
        s = core.TwoQubitState(0.6, 0, 0, 0.8j)
        assert bell.classify(s).kind == "general"

    def test_product_states(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            s = random_product_state(rng)
            got = bell.classify(s)
            assert got.kind in ("product", "basis")
            assert np.max(np.abs(got.reconstruct().vector - s.vector)) <= 1e-8

    def test_generic_states_are_general(self):
        rng = np.random.default_rng(26)
        hits = 0
        for _ in range(200):
            s = random_two_qubit_state(rng)
            if bell.separability_defect(s) > 1e-3:
                assert bell.classify(s).kind in ("general", "bell")
                hits += 1
        assert hits > 150  # random states are overwhelmingly entangled

    def test_endpoints_classify_as_basis(self):
        cases = [
            ("phi", 0.0, 3),
            ("phi", 1.0, 0),
            ("psi", 0.0, 1),
            ("psi", 1.0, 2),
        ]
        for cls, s0, index in cases:
            for sign in (1, -1):
                got = bell.classify(bell.bell_state(descriptor(cls, sign, s0)))
                assert got.kind == "basis" and got.basis_index == index

    def test_round_trip_recovers_descriptor_exactly(self):
        rng = np.random.default_rng(27)
        for _ in range(300):
            d = descriptor(
                "phi" if rng.random() < 0.5 else "psi",
                1 if rng.random() < 0.5 else -1,
                float(rng.uniform(1e-6, 1 - 1e-6)),
            )
            got = bell.classify(bell.bell_state(d))
            assert got.kind == "bell" and got.bell == d

    def test_reconstruct_raises_on_general(self):
        with pytest.raises(ValueError):
            bell.StateClassification(kind="general").reconstruct()

    @pytest.mark.parametrize("kind", ["basis", "bell", "product"])
    def test_reconstruct_without_payload_raises(self, kind):
        with pytest.raises(ValueError, match=f"'{kind}' classification without"):
            bell.StateClassification(kind=kind).reconstruct()

    def test_reconstruct_without_payload_raises_under_optimized_interpreter(self):
        # -O strips asserts, so the check must be an explicit raise.
        code = (
            "from bellkit.bell import StateClassification\n"
            "for kind in ('basis', 'bell', 'product'):\n"
            "    try:\n"
            "        StateClassification(kind=kind).reconstruct()\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(bell.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert len(done.stdout.splitlines()) == 3


class TestZeroVector:
    def test_factorize_names_the_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            bell.factorize(core.TwoQubitState(0, 0, 0, 0))

    def test_classify_names_the_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            bell.classify(core.TwoQubitState(0, 0, 0, 0))


class TestUnnormalizedStates:
    # phi+ at twice its squared norm, |00> at norm 2, phi+ at norm 0.14: no answer would be right.
    STATES = [core.TwoQubitState(1, 0, 0, 1), core.TwoQubitState(2, 0, 0, 0), core.TwoQubitState(0.1, 0, 0, 0.1)]

    @pytest.mark.parametrize("state", STATES, ids=["phi-norm-1.41", "basis-norm-2", "phi-norm-0.14"])
    @pytest.mark.parametrize("function", [bell.classify, bell.factorize, engine.relative_bit], ids=lambda f: f.__name__)
    def test_is_a_value_error_naming_the_norm(self, function, state):
        message = f"{function.__name__} needs a normalized state, got norm {state.norm()!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            function(state)


class TestNearestProductOracle:
    def test_oracle_agrees_with_defect_classification(self):
        rng = np.random.default_rng(28)
        states = [random_product_state(rng) for _ in range(30)]
        states += [random_two_qubit_state(rng) for _ in range(30)]
        for s in states:
            by_defect = bell.separability_defect(s) <= bell.EPS_SEP
            by_search = nearest_product_distance(s) <= 1e-4
            assert by_defect == by_search

    def test_oracle_distance_scale(self):
        rng = np.random.default_rng(29)
        product = random_product_state(rng)
        assert nearest_product_distance(product) <= 1e-6
        phi_plus = bell.bell_state(descriptor("phi", 1))
        # Nearest product state to a maximally entangled state is far away.
        assert nearest_product_distance(phi_plus) == pytest.approx(
            math.sqrt(2 - math.sqrt(2)), abs=1e-9
        )
