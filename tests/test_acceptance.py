"""Acceptance gate: nine end-to-end criteria, one test and one PASS line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
under plain `pytest -v` each criterion still reports as its own test.
"""

import json

import numpy as np
from helpers import random_program

from bellkit import cli
from bellkit.bell import BellDescriptor, bell_state, classify, factorize, separability_defect
from bellkit.checks import (
    check_bell_family,
    check_factorization,
    check_flip_toggle,
    check_lifting_algebra,
    check_measurement_theorems,
    check_nearest_product_oracle,
)
from bellkit.circuit import format_program, parse
from bellkit.core import apply2, basis_state, bell_operator, lift_a, named_operator, normalize, projector
from bellkit.engine import run

BELL_ORDER = [
    BellDescriptor("phi", 1),
    BellDescriptor("phi", -1),
    BellDescriptor("psi", 1),
    BellDescriptor("psi", -1),
]


def max_err(state, expected_vector):
    return float(np.max(np.abs(state.vector - np.asarray(expected_vector, dtype=complex))))


def assert_passes(group):
    """Run one `bellkit check` group, the single home of the property it checks, and assert it passes."""
    result = group()
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_1_exact_bell_pipeline():
    entangler = bell_operator()
    flip_a = lift_a(named_operator("flip"))

    phi_plus = apply2(entangler, basis_state(0))
    assert max_err(phi_plus, bell_state(BellDescriptor("phi", 1)).vector) <= 1e-12

    psi_plus = apply2(flip_a, phi_plus)
    assert max_err(psi_plus, bell_state(BellDescriptor("psi", 1)).vector) <= 1e-12

    final = apply2(entangler, psi_plus)
    assert max_err(final, basis_state(1).vector) <= 1e-12
    print("PASS criterion 1: entangle/flip/disentangle pipeline exact within 1e-12")


def test_criterion_2_flip_class_table():
    # flip-toggle: phi± <-> psi± with the sign kept, exact to 1e-12, on the four Bell states and 100 more.
    assert_passes(check_flip_toggle)

    # Computational basis: flipping A toggles the first value bit.
    flip_a = lift_a(named_operator("flip"))
    for index, image in ((0, 2), (1, 3), (2, 0), (3, 1)):
        got = apply2(flip_a, basis_state(index))
        assert max_err(got, basis_state(image).vector) <= 1e-12
    print("PASS criterion 2: flip maps basis and Bell family exactly (flip-toggle within 1e-12)")


def test_criterion_3_projector_theorem():
    # measurement-theorems: P_A0 phi± = (1/sqrt 2)|00> within 1e-12, and sampled post-measurement states factor.
    assert_passes(check_measurement_theorems)

    for descriptor in BELL_ORDER:
        state = bell_state(descriptor)
        for particle in ("A", "B"):
            for value in (0, 1):
                post = normalize(apply2(projector(particle, value), state))
                assert separability_defect(post) <= 1e-8
    print("PASS criterion 3: projection collapses Bell states to products (defect <= 1e-8)")


def test_criterion_4_separability_criterion():
    # factorization: 1000 products factor and re-tensor; bell-family: each Bell state's defect is 0.5;
    # nearest-product-oracle: the defect test agrees with the largest-Schmidt-coefficient distance on 200 states.
    for group in (check_factorization, check_bell_family, check_nearest_product_oracle):
        assert_passes(group)

    for sign in (1, -1):  # the factorization group tries phi± only
        assert factorize(bell_state(BellDescriptor("psi", sign))) is None
    print("PASS criterion 4: determinant defect matches factorization and a 200-state Schmidt-coefficient oracle")


def test_criterion_5_lifting_theorem():
    # lifting-algebra: one-factor action, homomorphism and A/B commutation, within 1e-10.
    assert_passes(check_lifting_algebra)
    print("PASS criterion 5: lifting acts on one factor, is a homomorphism, and A/B lifts commute")


def test_criterion_6_measurement_statistics():
    program, diags = parse("prepare bell phi +\nmeasure value A\nmeasure value B\n")
    assert diags == [] and program is not None
    stats = run(program, shots=100_000, seed=424242)
    freqs = stats.frequencies
    assert abs(freqs["A=0,B=0"] - 0.5) <= 0.006
    assert abs(freqs["A=1,B=1"] - 0.5) <= 0.006
    assert "A=0,B=1" not in stats.counts and "A=1,B=0" not in stats.counts

    skewed, diags = parse("prepare bell phi + s0=0.6\nmeasure value A\n")
    assert diags == [] and skewed is not None
    skewed_stats = run(skewed, shots=100_000, seed=424243)
    assert abs(skewed_stats.frequencies["A=0"] - 0.36) <= 0.006
    print("PASS criterion 6: Born statistics match 0.5/0.5 and 0.36 within 0.006 at 1e5 shots")


def test_criterion_7_relative_bit_determinism():
    program, diags = parse("prepare bell-random-sign phi\napply flip A\nmeasure relative\n")
    assert diags == [] and program is not None
    stats = run(program, shots=10_000, seed=777, keep_results=True)
    assert stats.counts == {"rel=Different": 10_000}

    assert stats.results is not None
    plus = 0
    for shot in stats.results:
        label = classify(shot.final_state)
        assert label.kind == "bell" and label.bell is not None
        assert label.bell.bell_class == "psi"
        plus += label.bell.sign == 1
    assert abs(plus / 10_000 - 0.5) <= 0.02
    print("PASS criterion 7: relative bit is Different in 10000/10000 shots; sign stays 50/50")


def test_criterion_8_dsl_round_trip_and_fuzz():
    rng = np.random.default_rng(1008)
    for _ in range(500):
        program = random_program(rng)
        text = format_program(program)
        reparsed, diags = parse(text)
        assert diags == [] and reparsed == program

    fuzz_rng = np.random.default_rng(1088)
    for _ in range(10_000):
        size = int(fuzz_rng.integers(0, 257))
        blob = bytes(fuzz_rng.integers(0, 256, size=size, dtype=np.uint8))
        program, diags = parse(blob.decode("utf-8", errors="replace"))
        if program is None:
            assert diags
        else:
            assert diags == []
    print("PASS criterion 8: 500 programs round trip; 1e4 fuzz inputs parse without crashing")


def test_criterion_9_byte_identical_reproducibility(tmp_path, capsys):
    path = tmp_path / "sampled.bk"
    path.write_text(
        "prepare bell-random-sign psi s0=0.6\n"
        "apply flip B\n"
        "measure relative\n"
        "measure value A\n"
        "shots 2000\n"
        "seed 31\n",
        encoding="utf-8",
    )

    def invoke(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 0
        return captured.out

    serial_args = ["run", str(path), "--format", "json", "--trace"]
    first = invoke(serial_args)
    second = invoke(serial_args)
    assert first == second

    parallel_args = serial_args + ["--workers", "4"]
    third = invoke(parallel_args)
    fourth = invoke(parallel_args)
    assert third == fourth
    assert third == first
    assert json.loads(first)["shots"] == 2000
    print("PASS criterion 9: identical invocations are byte-identical, serial and parallel")
