"""Program text parsing, static validation, and canonical formatting."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from helpers import random_program

from bellkit import circuit, engine
from bellkit.bell import BellDescriptor
from bellkit.circuit import (
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
    format_program,
    parse,
    validate,
)
from bellkit.core import INV_SQRT2, SingleQubitOperator, TwoQubitState

INV = math.sqrt(0.5)


def parse_ok(source):
    program, diags = parse(source)
    assert diags == [] and program is not None
    return program


def parse_errors(source):
    program, diags = parse(source)
    assert program is None and diags
    return [(d.line, d.column, d.severity, d.message) for d in diags]


class TestParse:
    def test_full_program(self):
        program = parse_ok(
            "# toggle the relative bit, then read it\n"
            "prepare bell phi + s0=0.6\n"
            "apply flip A\n"
            "measure relative\n"
            "measure value B\n"
            "shots 2048\n"
            "seed 99\n"
        )
        assert program.preparation == BellPreparation(
            descriptor=BellDescriptor("phi", 1, 0.6)
        )
        assert program.steps == (
            ApplyNamed(name="flip", particle="A"),
            MeasureRelative(),
            MeasureValue(particle="B"),
        )
        assert program.shots == 2048 and program.seed == 99

    def test_defaults(self):
        program = parse_ok("prepare basis 10\n")
        assert program.preparation == BasisPreparation(index=2)
        assert program.steps == ()
        assert program.shots == 1024 and program.seed == 0

    def test_default_s0_is_inverse_root_two(self):
        program = parse_ok("prepare bell psi -")
        assert program.preparation.descriptor == BellDescriptor("psi", -1, INV_SQRT2)
        random_sign = parse_ok("prepare bell-random-sign psi")
        assert random_sign.preparation == BellRandomSignPreparation(bell_class="psi")

    def test_raw_preparation_and_operator(self):
        program = parse_ok(
            "prepare raw 0.6 0 0 0 0 0 -0.8 0\n"
            "apply raw B 0 0 1 0 1 0 0 0\n"
        )
        assert program.preparation.state == TwoQubitState(0.6, 0, 0, -0.8)
        step = program.steps[0]
        assert isinstance(step, ApplyRaw) and step.particle == "B"
        assert np.array_equal(step.operator.matrix, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_comments_blanks_and_crlf(self):
        program = parse_ok(
            "\r\n"
            "prepare basis 00 # start from the ground pair\r\n"
            "   # full-line comment\r\n"
            "measure value A\r\n"
        )
        assert program.preparation == BasisPreparation(index=0)
        assert program.steps == (MeasureValue(particle="A"),)

    def test_missing_final_newline(self):
        assert parse_ok("prepare basis 00").preparation == BasisPreparation(index=0)

    def test_source_positions_are_recorded_but_not_compared(self):
        plain = parse_ok("prepare basis 00\nmeasure relative\n")
        indented = parse_ok("  prepare basis 00\n\n   measure relative\n")
        assert plain == indented
        assert indented.preparation.source_pos == (1, 3)
        assert indented.steps[0].source_pos == (3, 4)

    def test_shots_and_seed_positions(self):
        program = parse_ok("prepare basis 00\nshots 9\nseed 4\n")
        assert program.shots_pos == (2, 7)
        assert program.seed_pos == (3, 6)

    def test_seed_accepts_full_unsigned_64_bit_range(self):
        program = parse_ok(f"prepare basis 00\nseed {2**64 - 1}\n")
        assert program.seed == 2**64 - 1


# Every statement form's arity, one line after a valid preparation: one token too few is
# reported at the line's last token, one too many at the first extra token; a trailing s0=
# may be left out. Then a bare keyword and an unknown kind for each keyword that takes one.
_ARITY = [
    ("prepare basis", 9, "expected: prepare basis <00|01|10|11>"),
    ("prepare basis 00 11", 18, "unexpected extra argument; expected: prepare basis <00|01|10|11>"),
    ("prepare bell phi", 14, "expected: prepare bell <phi|psi> <+|-> [s0=<real>]"),
    ("prepare bell s0=0.5", 14, "expected: prepare bell <phi|psi> <+|-> [s0=<real>]"),
    ("prepare bell phi + x y", 22, "unexpected extra argument; expected: prepare bell <phi|psi> <+|-> [s0=<real>]"),
    ("prepare bell phi + s0=0.5 x", 27,
     "unexpected extra argument; expected: prepare bell <phi|psi> <+|-> [s0=<real>]"),
    ("prepare bell-random-sign", 9, "expected: prepare bell-random-sign <phi|psi> [s0=<real>]"),
    ("prepare bell-random-sign psi x y", 32,
     "unexpected extra argument; expected: prepare bell-random-sign <phi|psi> [s0=<real>]"),
    ("prepare bell-random-sign psi s0=0.5 x", 37,
     "unexpected extra argument; expected: prepare bell-random-sign <phi|psi> [s0=<real>]"),
    ("prepare raw 1 0 0 0 0 0 0", 25, "expected: prepare raw <8 reals: re im per amplitude>"),
    ("prepare raw 1 0 0 0 0 0 0 0 9", 29,
     "unexpected extra argument; expected: prepare raw <8 reals: re im per amplitude>"),
    ("apply identity", 7, "expected: apply identity <A|B>"),
    ("apply identity A B", 18, "unexpected extra argument; expected: apply identity <A|B>"),
    ("apply flip", 7, "expected: apply flip <A|B>"),
    ("apply flip A B", 14, "unexpected extra argument; expected: apply flip <A|B>"),
    ("apply t_plus", 7, "expected: apply t_plus <A|B>"),
    ("apply t_plus A B", 16, "unexpected extra argument; expected: apply t_plus <A|B>"),
    ("apply t_minus", 7, "expected: apply t_minus <A|B>"),
    ("apply t_minus A B", 17, "unexpected extra argument; expected: apply t_minus <A|B>"),
    ("apply bellop A", 14, "unexpected extra argument; expected: apply bellop"),
    ("apply raw A 1 0 0 0 0 0 0", 25, "expected: apply raw <A|B> <8 reals: re im, row-major>"),
    ("apply raw A 1 0 0 0 0 0 0 0 9", 29,
     "unexpected extra argument; expected: apply raw <A|B> <8 reals: re im, row-major>"),
    ("measure relative A", 18, "unexpected extra argument; expected: measure relative"),
    ("measure value", 9, "expected: measure value <A|B>"),
    ("measure value A B", 17, "unexpected extra argument; expected: measure value <A|B>"),
    ("shots", 1, "expected: shots <integer>"),
    ("shots 1 2", 9, "unexpected extra argument; expected: shots <integer>"),
    ("seed", 1, "expected: seed <integer>"),
    ("seed 1 2", 8, "unexpected extra argument; expected: seed <integer>"),
    ("prepare", 1, "expected: prepare <basis|bell|bell-random-sign|raw> ..."),
    ("apply", 1, "expected: apply <operator> ..."),
    ("measure", 1, "expected: measure <relative|value> ..."),
    ("prepare cat A", 9, "unknown preparation kind 'cat'"),
    ("apply cat A", 7, "unknown operator 'cat' (expected identity|flip|t_plus|t_minus|bellop|raw)"),
    ("measure cat A", 9, "unknown measurement kind 'cat'"),
]


class TestParseErrors:
    @pytest.mark.parametrize("line, column, message", _ARITY, ids=[line for line, _, _ in _ARITY])
    def test_statement_arity(self, line, column, message):
        assert parse_errors(f"prepare basis 00\n{line}\n") == [(2, column, "error", message)]

    def test_unknown_keyword(self):
        assert parse_errors("prpare basis 00\n") == [
            (1, 1, "error", "unknown keyword 'prpare'"),
            (1, 1, "error", "missing prepare statement"),
        ]

    def test_missing_prepare_alone(self):
        assert parse_errors("measure relative\n") == [
            (1, 1, "error", "missing prepare statement"),
        ]

    def test_malformed_prepare_reports_only_its_own_error(self):
        assert parse_errors("prepare bogus\n") == [
            (1, 9, "error", "unknown preparation kind 'bogus'"),
        ]
        assert parse_errors("shots 5\nprepare basis 2\nmeasure value A\n") == [
            (2, 15, "error", "expected basis label 00|01|10|11, got '2'"),
        ]

    def test_missing_prepare_is_still_reported_beside_other_errors(self):
        assert parse_errors("apply flip Q\nmeasure value A\n") == [
            (1, 12, "error", "expected particle A or B, got 'Q'"),
            (1, 1, "error", "missing prepare statement"),
        ]

    def test_empty_source(self):
        assert parse_errors("") == [(1, 1, "error", "missing prepare statement")]

    def test_bad_basis_label(self):
        assert parse_errors("prepare basis 02\n")[0] == (
            1, 15, "error", "expected basis label 00|01|10|11, got '02'",
        )

    def test_bad_sign_token(self):
        assert parse_errors("prepare bell phi 0.5\n")[0] == (
            1, 18, "error", "expected sign + or -, got '0.5'",
        )

    def test_bad_bell_class(self):
        assert parse_errors("prepare bell chi +\n")[0] == (
            1, 14, "error", "expected Bell class phi or psi, got 'chi'",
        )

    def test_s0_out_of_range(self):
        assert parse_errors("prepare bell phi + s0=1.5\n")[0] == (
            1, 20, "error", "s0 out of [0, 1]: 1.5",
        )

    def test_s0_malformed(self):
        assert parse_errors("prepare bell phi + s0=abc\n")[0] == (
            1, 20, "error", "malformed number for s0: 'abc'",
        )

    def test_s0_requires_key_prefix(self):
        assert parse_errors("prepare bell-random-sign phi 0.3\n")[0] == (
            1, 30, "error", "expected s0=<real>, got '0.3'",
        )

    def test_too_few_arguments_points_at_last_token(self):
        assert parse_errors("prepare basis 00\nmeasure value\n")[0] == (
            2, 9, "error", "expected: measure value <A|B>",
        )

    def test_extra_argument_points_at_first_extra_token(self):
        assert parse_errors("prepare basis 00\nshots 10 20\n")[0] == (
            2, 10, "error", "unexpected extra argument; expected: shots <integer>",
        )

    def test_bad_particle(self):
        assert parse_errors("prepare basis 00\napply flip C\n")[0] == (
            2, 12, "error", "expected particle A or B, got 'C'",
        )

    def test_unknown_operator_lists_known_names(self):
        assert parse_errors("prepare basis 00\napply warp A\n")[0] == (
            2, 7, "error",
            "unknown operator 'warp' (expected identity|flip|t_plus|t_minus|bellop|raw)",
        )

    def test_unknown_measurement_kind(self):
        assert parse_errors("prepare basis 00\nmeasure parity\n")[0] == (
            2, 9, "error", "unknown measurement kind 'parity'",
        )

    def test_malformed_shots(self):
        assert parse_errors("prepare basis 00\nshots x\n")[0] == (
            2, 7, "error", "malformed number for shots: 'x'",
        )

    def test_malformed_raw_amplitude(self):
        assert parse_errors("prepare raw 1 0 0 0 0 nope 0 0\n")[0] == (
            1, 23, "error", "malformed number for amplitude: 'nope'",
        )

    def test_non_finite_raw_amplitude(self):
        assert parse_errors("prepare raw inf 0 0 0 0 0 0 0\n")[0] == (
            1, 13, "error", "malformed number for amplitude: 'inf'",
        )

    def test_seed_out_of_range(self):
        expected = "malformed number for seed: out of unsigned 64-bit range"
        assert parse_errors(f"prepare basis 00\nseed {2**64}\n")[0] == (2, 6, "error", expected)
        assert parse_errors("prepare basis 00\nseed -1\n")[0] == (2, 6, "error", expected)

    @pytest.mark.parametrize("text", ["\u0661\u0662", "1_000", "+3", "\uff11\uff12", "1e3", "0x10"])
    def test_integers_are_ascii_digits_only(self, text):
        for keyword in ("shots", "seed"):
            assert parse_errors(f"prepare basis 00\n{keyword} {text}\n")[0] == (
                2, len(keyword) + 2, "error", f"malformed number for {keyword}: {text!r}",
            )

    @pytest.mark.parametrize("text", ["\u0660.5", "0.\u0665", "1_0.5", "0.5\u0663", "0x1p-1", "Infinity", "nan"])
    def test_reals_are_ascii_decimals_only(self, text):
        assert parse_errors(f"prepare raw {text} 0 0 0 0 0 0 0\n")[0] == (
            1, 13, "error", f"malformed number for amplitude: {text!r}",
        )
        assert parse_errors(f"prepare bell phi + s0={text}\n")[0] == (
            1, 20, "error", f"malformed number for s0: {text!r}",
        )

    def test_ascii_number_forms_still_parse(self):
        program = parse_ok(
            "prepare raw +1 -0 0.0 .0 0. 0e0 0E-5 -1.5e+2\napply raw A 1 0 0 0 0 0 1 0\nshots 0012\nseed 00\n"
        )
        assert program.preparation.state == TwoQubitState(1, 0, 0, -150j)
        assert (program.shots, program.seed) == (12, 0)
        assert parse_ok("prepare basis 00\nshots -5\n").shots == -5  # validate rejects it, with its own diagnostic

    def test_bell_reports_a_bad_sign_and_a_bad_s0_together(self):
        assert parse_errors("prepare bell phi x s0=2\n") == [
            (1, 18, "error", "expected sign + or -, got 'x'"),
            (1, 20, "error", "s0 out of [0, 1]: 2"),
        ]

    def test_duplicate_statements(self):
        got = parse_errors(
            "prepare basis 00\n"
            "prepare basis 11\n"
            "shots 1\n"
            "shots 2\n"
            "seed 1\n"
            "seed 2\n"
        )
        assert got == [
            (2, 1, "error", "duplicate prepare statement"),
            (4, 1, "error", "duplicate shots statement"),
            (6, 1, "error", "duplicate seed statement"),
        ]

    def test_all_errors_are_collected(self):
        got = parse_errors("prepare basis 5\napply flip Q\nmeasure twice\n")
        assert [(line, col) for line, col, _, _ in got] == [(1, 15), (2, 12), (3, 9)]

    def test_all_or_nothing(self):
        program, diags = parse("prepare basis 00\nmeasure value A\nbogus\n")
        assert program is None and len(diags) == 1

    @pytest.mark.parametrize("source,kind", [(None, "NoneType"), (b"prepare basis 00\n", "bytes")])
    def test_a_source_that_is_not_a_str_is_a_type_error(self, source, kind):
        with pytest.raises(TypeError, match=f"^source must be a str, got {kind}$"):
            parse(source)


_PREPARATION_TYPES = "BasisPreparation or BellPreparation or BellRandomSignPreparation or RawPreparation"
_STEP_TYPES = "ApplyNamed or ApplyBellOperator or ApplyRaw or MeasureRelative or MeasureValue"
_BASIS = BasisPreparation(0)


class TestValidate:
    def test_a_program_that_is_not_a_circuit_program_is_a_type_error(self):
        with pytest.raises(TypeError, match="^program must be a CircuitProgram, got NoneType$"):
            validate(None)

    @pytest.mark.parametrize("call", [
        validate, engine.compile, engine.run, lambda p: engine.run_shot(p, engine.derive_rng(0, 0)), format_program,
    ], ids=["validate", "compile", "run", "run_shot", "format_program"])
    @pytest.mark.parametrize("args,message", [
        ((object(),), f"preparation must be a {_PREPARATION_TYPES}, got object"),
        ((MeasureValue("A"),), f"preparation must be a {_PREPARATION_TYPES}, got MeasureValue"),
        ((_BASIS, (MeasureValue("A"), MeasureValue("B"), object())), f"steps[2] must be a {_STEP_TYPES}, got object"),
        ((_BASIS, (BasisPreparation(1),)), f"steps[0] must be a {_STEP_TYPES}, got BasisPreparation"),
        ((_BASIS, (MeasureValue("A"),), "5"), "shots must be an integer, got '5'"),
        ((_BASIS, (MeasureValue("A"),), True), "shots must be an integer, got True"),
        ((_BASIS, (MeasureValue("A"),), 4, "7"), "seed must be an integer, got '7'"),
        ((_BASIS, (MeasureValue("A"),), 4, True), "seed must be an integer, got True"),
    ], ids=["object-prep", "step-as-prep", "object-step", "prep-as-step", "str-shots", "bool-shots", "str-seed",
            "bool-seed"])
    def test_a_preparation_step_or_shots_of_a_wrong_type_is_a_type_error(self, call, args, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call(CircuitProgram(*args))

    def test_steps_may_come_from_any_iterable(self):
        steps = [ApplyNamed("flip", "A"), MeasureValue("A")]
        program = CircuitProgram(BasisPreparation(0), (step for step in steps), np.int64(3))
        assert program.steps == tuple(steps) and engine.run(program).counts == {"A=1": 3}

    def test_clean_program_has_no_diagnostics(self):
        program = parse_ok(
            "prepare bell phi +\napply flip A\nmeasure relative\nmeasure value A\n"
        )
        assert validate(program) == []

    def test_measurement_free_program_warns_at_preparation(self):
        program = parse_ok("prepare basis 00\napply bellop\n")
        diags = validate(program)
        assert [(d.line, d.column, d.severity) for d in diags] == [(1, 1, "warning")]
        assert diags[0].message == "program contains no measurements"

    def test_steps_after_both_values_measured_warn(self):
        program = parse_ok(
            "prepare bell phi +\n"
            "measure value A\n"
            "measure value B\n"
            "apply flip A\n"
            "measure relative\n"
        )
        diags = validate(program)
        assert [(d.line, d.column, d.severity) for d in diags] == [
            (4, 1, "warning"),
            (5, 1, "warning"),
        ]
        assert all(
            d.message
            == "operation after value measurements on both particles; the state is fully determined"
            for d in diags
        )

    def test_single_particle_remeasurement_is_fine(self):
        program = parse_ok(
            "prepare bell phi +\nmeasure value A\nmeasure value A\napply flip B\nmeasure value A\n"
        )
        assert validate(program) == []

    def test_non_normalized_raw_preparation(self):
        program = parse_ok("prepare raw 1 0 1 0 0 0 0 0\nmeasure value A\n")
        diags = validate(program)
        assert len(diags) == 1
        assert (diags[0].line, diags[0].column, diags[0].severity) == (1, 1, "error")
        assert diags[0].message == (
            "raw preparation is not normalized (norm 1.4142135623730951, tolerance 1e-09)"
        )

    def test_non_unitary_raw_operator(self):
        program = parse_ok(
            "prepare basis 00\napply raw A 1 0 0 0 0 0 0.5 0\nmeasure value A\n"
        )
        diags = validate(program)
        assert [(d.line, d.column, d.severity, d.message) for d in diags] == [
            (2, 1, "error", "raw operator is not unitary (tolerance 1e-09)"),
        ]

    def test_non_positive_shots(self):
        program = parse_ok("prepare basis 00\nmeasure value A\nshots 0\n")
        diags = validate(program)
        assert [(d.line, d.column, d.severity, d.message) for d in diags] == [
            (3, 7, "error", "shots must be >= 1, got 0"),
        ]

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "past-64-bit"])
    def test_a_seed_outside_unsigned_64_bit_is_an_error(self, seed):
        # parse never builds one; format_program would write a `seed` line that parse rejects.
        program = CircuitProgram(BasisPreparation(0), (MeasureValue("A", (2, 1)),), 4, seed, seed_pos=(3, 6))
        message = f"seed must fit in an unsigned 64-bit integer, got {seed}"
        assert [(d.line, d.column, d.severity, d.message) for d in validate(program)] == [(3, 6, "error", message)]
        for call in (engine.compile, engine.run):
            with pytest.raises(engine.InvalidProgram, match=f"^3:6: error: {message}$"):
                call(program)

    def test_a_numpy_integer_seed_still_runs(self):
        program = CircuitProgram(BellPreparation(BellDescriptor("phi", 1)), (MeasureValue("A"),), 20, np.int64(7))
        assert validate(program) == []
        assert engine.run(program) == engine.run(CircuitProgram(program.preparation, program.steps, 20, 7))

    @pytest.mark.parametrize("preparation,message", [
        (BasisPreparation(7, (2, 3)), "basis index must be 0..3, got 7"),
        (BasisPreparation(-1, (2, 3)), "basis index must be 0..3, got -1"),
        (BellRandomSignPreparation("phi", 1.5, (2, 3)), "s0 must lie in [0, 1], got 1.5"),
        (BellRandomSignPreparation("chi", source_pos=(2, 3)), "bell_class must be 'phi' or 'psi', got 'chi'"),
        (BellRandomSignPreparation("psi", math.nan, (2, 3)), "s0 must lie in [0, 1], got nan"),
    ], ids=["basis-7", "basis-negative", "s0-past-1", "class-chi", "s0-nan"])
    def test_a_preparation_field_its_rule_refuses_is_an_error(self, preparation, message):
        # parse never builds one; format_program would fail on it or write a different or unparseable program.
        program = CircuitProgram(preparation, (MeasureValue("A", (3, 1)),), 4, 0)
        assert [(d.line, d.column, d.severity, d.message) for d in validate(program)] == [(2, 3, "error", message)]
        for call in (engine.compile, engine.run):
            with pytest.raises(engine.InvalidProgram, match=f"^2:3: error: {re.escape(message)}$"):
                call(program)

    @pytest.mark.parametrize(
        "step",
        [
            ApplyNamed("flip", "C", (2, 1)),
            ApplyRaw("C", SingleQubitOperator([[1, 0], [0, 1]]), (2, 1)),
            MeasureValue("C", (2, 1)),
        ],
    )
    def test_a_step_on_a_particle_other_than_a_or_b_is_an_error(self, step):
        # parse never builds one; before this check the engine lifted any particle but "A" onto B.
        program = CircuitProgram(BasisPreparation(0), (step, MeasureValue("B", (3, 1))), 4, 0)
        assert [(d.line, d.column, d.severity, d.message) for d in validate(program)] == [
            (2, 1, "error", "particle must be 'A' or 'B', got 'C'"),
        ]
        for call in (engine.compile, engine.run):
            with pytest.raises(engine.InvalidProgram, match="^2:1: error: particle must be 'A' or 'B', got 'C'$"):
                call(program)

    def test_an_unknown_operator_name_is_an_error(self):
        steps = (ApplyNamed("hadamard", "A", (2, 1)), MeasureValue("A", (3, 1)))
        program = CircuitProgram(BasisPreparation(0), steps, 4, 0)
        assert [(d.line, d.column, d.severity, d.message) for d in validate(program)] == [
            (2, 1, "error", "unknown operator name 'hadamard'"),
        ]
        for call in (engine.compile, engine.run):
            with pytest.raises(engine.InvalidProgram, match="^2:1: error: unknown operator name 'hadamard'$"):
                call(program)

    def test_diagnostics_sorted_by_position(self):
        program = parse_ok(
            "prepare raw 1 0 1 0 0 0 0 0\napply raw A 1 0 0 0 0 0 0.5 0\nshots 0\n"
        )
        diags = validate(program)
        positions = [(d.line, d.column) for d in diags]
        assert positions == sorted(positions)
        assert [d.severity for d in diags] == ["error", "warning", "error", "error"]

    def test_diagnostic_render(self):
        program = parse_ok("prepare basis 00\n")
        assert validate(program)[0].render() == "1:1: warning: program contains no measurements"


class TestFormat:
    def test_minimal_golden(self):
        assert format_program(parse_ok("prepare basis 01")) == "prepare basis 01\n"

    def test_full_golden(self):
        program = CircuitProgram(
            preparation=BellPreparation(descriptor=BellDescriptor("psi", -1, 0.6)),
            steps=(
                ApplyNamed(name="flip", particle="A"),
                ApplyBellOperator(),
                MeasureRelative(),
                MeasureValue(particle="B"),
            ),
            shots=5000,
            seed=42,
        )
        assert format_program(program) == (
            "prepare bell psi - s0=0.59999999999999998\n"
            "apply flip A\n"
            "apply bellop\n"
            "measure relative\n"
            "measure value B\n"
            "shots 5000\n"
            "seed 42\n"
        )

    def test_defaults_are_elided(self):
        program = CircuitProgram(
            preparation=BellPreparation(descriptor=BellDescriptor("phi", 1)),
            steps=(MeasureRelative(),),
        )
        assert format_program(program) == "prepare bell phi +\nmeasure relative\n"

    def test_raw_golden(self):
        program = CircuitProgram(
            preparation=RawPreparation(state=TwoQubitState(INV, 0, 0, INV)),
            steps=(
                ApplyRaw(
                    particle="B",
                    operator=SingleQubitOperator([[0, 1], [1, 0]]),
                ),
            ),
        )
        assert format_program(program) == (
            "prepare raw 0.70710678118654757 0 0 0 0 0 0.70710678118654757 0\n"
            "apply raw B 0 0 1 0 1 0 0 0\n"
        )

    def test_random_sign_golden(self):
        program = CircuitProgram(
            preparation=BellRandomSignPreparation(bell_class="phi", s0=0.25),
            steps=(MeasureValue(particle="A"),),
            seed=7,
        )
        assert format_program(program) == (
            "prepare bell-random-sign phi s0=0.25\nmeasure value A\nseed 7\n"
        )

    def test_round_trip_identity_on_random_programs(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            program = random_program(rng)
            text = format_program(program)
            reparsed, diags = parse(text)
            assert diags == []
            assert reparsed == program
            assert format_program(reparsed) == text

    def test_format_is_idempotent_over_reparse(self):
        source = "  prepare  bell   psi  + s0=0.3   # crowded\nmeasure   relative\nshots 12\n"
        program = parse_ok(source)
        canonical = format_program(program)
        assert canonical == "prepare bell psi + s0=0.29999999999999999\nmeasure relative\nshots 12\n"
        assert format_program(parse_ok(canonical)) == canonical


class TestGrammarText:
    def test_docstring_and_readme_list_every_statement_form(self):
        usages = [usage for usage, _, _ in circuit._FORMS.values()]
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Circuit language", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
        assert block.splitlines() == usages
        docstring = circuit.__doc__.split("\n\n")[2]
        assert [line.strip() for line in docstring.splitlines()] == usages


class TestSamplePrograms:
    def test_shipped_programs_parse_and_validate(self):
        directory = Path(__file__).resolve().parent.parent / "programs"
        paths = sorted(directory.glob("*.bk"))
        assert len(paths) >= 4
        for path in paths:
            program, diags = parse(path.read_text(encoding="utf-8"))
            assert diags == [], f"{path.name}: {diags}"
            assert program is not None
            issues = validate(program)
            assert all(d.severity != "error" for d in issues), f"{path.name}: {issues}"
            # Canonical formatting of a shipped program must stay parseable.
            reparsed, rediags = parse(format_program(program))
            assert rediags == [] and reparsed == program


class TestFuzz:
    def test_random_bytes_never_crash_and_positions_index_source(self):
        rng = np.random.default_rng(43)
        for _ in range(1500):
            blob = bytes(rng.integers(0, 256, size=int(rng.integers(0, 129)), dtype=np.uint8))
            source = blob.decode("utf-8", errors="replace")
            program, diags = parse(source)
            lines = source.split("\n")
            if program is None:
                assert diags
                for d in diags:
                    assert d.severity == "error"
                    assert 1 <= d.line <= len(lines)
                    stripped = lines[d.line - 1]
                    if stripped.endswith("\r"):
                        stripped = stripped[:-1]
                    assert 1 <= d.column <= max(len(stripped), 1)
            else:
                assert diags == []
                assert format_program(program)

    def test_token_soup_from_keywords(self):
        rng = np.random.default_rng(44)
        words = [
            "prepare", "apply", "measure", "shots", "seed", "basis", "bell",
            "bell-random-sign", "raw", "phi", "psi", "+", "-", "s0=0.5", "A", "B",
            "00", "11", "flip", "bellop", "relative", "value", "1024", "#", "0.5",
        ]
        for _ in range(400):
            count = int(rng.integers(0, 12))
            picks = [words[int(rng.integers(0, len(words)))] for _ in range(count)]
            lines = []
            while picks:
                take = int(rng.integers(1, 5))
                lines.append(" ".join(picks[:take]))
                picks = picks[take:]
            source = "\n".join(lines)
            program, diags = parse(source)
            assert (program is None) == bool(diags)
