"""Measurement collapse rules, the randomness contract, and run aggregation."""

import dataclasses
import itertools
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import ScriptedStream, count_calls, interpret, interpret_one_particle, random_program, random_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

import bellkit
from bellkit import _streams, circuit, core, engine
from bellkit.bell import BellDescriptor, bell_state, classify, separability_defect
from bellkit.checks import random_two_qubit_state
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
)
from bellkit.engine import (
    RelativeBit,
    derive_rng,
    measure_relative,
    measure_value,
    outcome_key,
    relative_bit,
    run,
    run_shot,
)

INV = math.sqrt(0.5)

PHI_PLUS = bell_state(BellDescriptor("phi", 1))
PSI_PLUS = bell_state(BellDescriptor("psi", 1))
UNIFORM = core.TwoQubitState(0.5, 0.5, 0.5, 0.5)


def program(preparation, *steps, shots=circuit.DEFAULT_SHOTS, seed=circuit.DEFAULT_SEED):
    return CircuitProgram(preparation=preparation, steps=tuple(steps), shots=shots, seed=seed)


class TestRelativeBit:
    def test_same_diagonal(self):
        got = relative_bit(PHI_PLUS)
        assert got.bit is RelativeBit.SAME and got.determinate
        assert got.p_same == pytest.approx(1.0, abs=1e-12)

    def test_different_diagonal(self):
        got = relative_bit(bell_state(BellDescriptor("psi", -1)))
        assert got.bit is RelativeBit.DIFFERENT and got.determinate
        assert got.p_same == 0.0

    def test_indeterminate(self):
        got = relative_bit(UNIFORM)
        assert got.bit is None and not got.determinate
        assert got.p_same == 0.5

    def test_skewed_family_member_is_still_determinate(self):
        got = relative_bit(bell_state(BellDescriptor("phi", 1, 0.3)))
        assert got.bit is RelativeBit.SAME
        assert got.p_same == pytest.approx(1.0, abs=1e-12)


class TestMeasureRelative:
    def test_deterministic_branch_consumes_no_draw_and_keeps_state(self):
        stream = ScriptedStream([])
        record, post = measure_relative(PHI_PLUS, stream, step_index=4)
        assert stream.consumed == 0
        assert post is PHI_PLUS
        assert record.outcome is RelativeBit.SAME
        assert record.probability == 1.0
        assert record.projected_norm == 1.0
        assert record.step_index == 4 and record.kind == "relative"
        assert record.particle is None

    def test_deterministic_different_branch(self):
        stream = ScriptedStream([])
        record, post = measure_relative(PSI_PLUS, stream)
        assert stream.consumed == 0
        assert post is PSI_PLUS and record.outcome is RelativeBit.DIFFERENT

    def test_forced_same_collapse(self):
        stream = ScriptedStream([0.3])
        record, post = measure_relative(UNIFORM, stream)
        assert stream.consumed == 1
        assert record.outcome is RelativeBit.SAME
        assert record.probability == 0.5
        assert record.projected_norm == pytest.approx(INV, abs=1e-15)
        assert np.max(np.abs(post.vector - PHI_PLUS.vector)) <= 1e-12

    def test_forced_different_collapse(self):
        stream = ScriptedStream([0.7])
        record, post = measure_relative(UNIFORM, stream)
        assert record.outcome is RelativeBit.DIFFERENT
        assert record.probability == 0.5
        assert np.max(np.abs(post.vector - PSI_PLUS.vector)) <= 1e-12

    def test_draw_strictly_below_probability_realizes_outcome(self):
        # p_same = 0.5: a draw of exactly 0.5 is NOT below it.
        record, _ = measure_relative(UNIFORM, ScriptedStream([0.5]))
        assert record.outcome is RelativeBit.DIFFERENT


class TestMeasureValue:
    def test_deterministic_zero_probability_branch(self):
        stream = ScriptedStream([])
        record, post = measure_value(core.basis_state(1), "B", stream, step_index=2)
        assert stream.consumed == 0
        assert record.outcome == 1 and record.probability == 1.0
        assert record.kind == "value" and record.particle == "B"
        assert post.amplitudes == core.basis_state(1).amplitudes

    def test_deterministic_unit_probability_branch(self):
        stream = ScriptedStream([])
        record, _ = measure_value(core.basis_state(1), "A", stream)
        assert stream.consumed == 0
        assert record.outcome == 0 and record.probability == 1.0

    def test_bell_collapse_keeps_projected_norm(self):
        record, post = measure_value(PHI_PLUS, "A", ScriptedStream([0.3]))
        assert record.outcome == 0
        assert record.projected_norm == pytest.approx(INV, abs=1e-15)
        assert record.probability == pytest.approx(0.5, abs=1e-15)
        assert np.max(np.abs(post.vector - core.basis_state(0).vector)) <= 1e-12

    def test_bell_collapse_other_branch(self):
        record, post = measure_value(PHI_PLUS, "A", ScriptedStream([0.6]))
        assert record.outcome == 1
        assert np.max(np.abs(post.vector - core.basis_state(3).vector)) <= 1e-12

    def test_skewed_weights_and_draw_boundary(self):
        state = bell_state(BellDescriptor("phi", 1, 0.6))
        # p(outcome 0 on A) = 0.6^2 = 0.36 exactly.
        record, _ = measure_value(state, "A", ScriptedStream([0.35999]))
        assert record.outcome == 0
        assert record.probability == pytest.approx(0.36, abs=1e-15)
        record, _ = measure_value(state, "A", ScriptedStream([0.36]))
        assert record.outcome == 1
        assert record.probability == pytest.approx(0.64, abs=1e-12)

    def test_second_measurement_is_deterministic(self):
        stream = ScriptedStream([0.3])
        record_a, mid = measure_value(PHI_PLUS, "A", stream)
        record_b, post = measure_value(mid, "B", stream, step_index=1)
        assert stream.consumed == 1
        assert (record_a.outcome, record_b.outcome) == (0, 0)
        assert record_b.probability == 1.0
        assert np.max(np.abs(post.vector - core.basis_state(0).vector)) <= 1e-12

    def test_post_state_is_always_separable(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            s = random_two_qubit_state(rng)
            for particle in ("A", "B"):
                _, post = measure_value(s, particle, ScriptedStream([float(rng.random())]))
                assert separability_defect(post) <= 1e-8

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(
        parts=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0]),
                st.floats(-1.0, 1.0),
                st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308, allow_subnormal=True),  # subnormal
                st.builds(lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]), st.floats(1e154, 1e200)),
            ),
            min_size=8,
            max_size=8,
        ),
        particle=st.sampled_from("AB"),
    )
    def test_first_outcome_p_equals_the_projected_norm_squared(self, parts, particle):
        # p is read from the two kept amplitudes, with no projection: the projector's exact 0s and 1s
        # change only signs of zeros, so the bits are the same, inf where a square overflows included.
        state = core.TwoQubitState(*[complex(re, im) for re, im in zip(parts[::2], parts[1::2])])
        projected = core.apply2(core.projector(particle, 0), state).norm() ** 2
        assert struct.pack("<d", engine._first_outcome(state, particle)[0]) == struct.pack("<d", projected)

    @pytest.mark.parametrize("state", [PHI_PLUS, core.basis_state(0)], ids=["drawing", "certain"])
    def test_an_invalid_particle_is_the_projector_value_error(self, state):
        with pytest.raises(ValueError, match="particle must be 'A' or 'B'"):
            measure_value(state, "C", ScriptedStream([0.3]))


class TestShotExecution:
    def test_pipeline_without_measurements(self):
        prog = program(
            BasisPreparation(index=0),
            ApplyBellOperator(),
            ApplyNamed(name="flip", particle="A"),
            ApplyBellOperator(),
        )
        shot = run_shot(prog, ScriptedStream([]))
        assert shot.records == ()
        assert outcome_key(shot.records) == "none"
        assert np.max(np.abs(shot.final_state.vector - core.basis_state(1).vector)) <= 1e-12

    def test_random_sign_preparation_draws_first(self):
        prog = program(BellRandomSignPreparation(bell_class="phi"))
        plus = run_shot(prog, ScriptedStream([0.3]))
        minus = run_shot(prog, ScriptedStream([0.7]))
        assert classify(plus.final_state).bell == BellDescriptor("phi", 1)
        assert classify(minus.final_state).bell == BellDescriptor("phi", -1)

    def test_random_sign_then_measurement_consumes_draws_in_order(self):
        prog = program(
            BellRandomSignPreparation(bell_class="phi", s0=0.6),
            MeasureValue(particle="A"),
        )
        # First draw picks the minus sign, second lands in the 0.36 branch.
        stream = ScriptedStream([0.9, 0.2])
        shot = run_shot(prog, stream)
        assert stream.consumed == 2
        assert shot.records[0].outcome == 0

    def test_outcome_key_tokens(self):
        prog = program(
            BellPreparation(descriptor=BellDescriptor("psi", 1)),
            MeasureRelative(),
            MeasureValue(particle="A"),
            MeasureValue(particle="B"),
        )
        shot = run_shot(prog, ScriptedStream([0.4]))
        assert outcome_key(shot.records) == "rel=Different,A=0,B=1"
        assert [r.step_index for r in shot.records] == [0, 1, 2]


class TestRun:
    def test_counts_sum_and_frequencies(self):
        prog = program(
            BellPreparation(descriptor=BellDescriptor("phi", 1)),
            MeasureValue(particle="A"),
            MeasureValue(particle="B"),
            shots=500,
            seed=7,
        )
        stats = run(prog)
        assert stats.shots == 500 and stats.seed == 7
        assert sum(stats.counts.values()) == 500
        assert set(stats.counts) <= {"A=0,B=0", "A=1,B=1"}
        assert sum(stats.frequencies.values()) == pytest.approx(1.0, abs=1e-12)

    def test_shots_and_seed_overrides(self):
        prog = program(BasisPreparation(index=2), MeasureValue(particle="A"), shots=10, seed=1)
        stats = run(prog, shots=25, seed=9)
        assert stats.shots == 25 and stats.seed == 9
        assert stats.counts == {"A=1": 25}

    def test_run_matches_per_shot_substreams(self):
        prog = program(
            BellRandomSignPreparation(bell_class="psi"),
            MeasureRelative(),
            MeasureValue(particle="B"),
            shots=40,
            seed=11,
        )
        stats = run(prog, keep_results=True)
        assert stats.results is not None and len(stats.results) == 40
        for index, shot in enumerate(stats.results):
            replay = run_shot(prog, derive_rng(11, index))
            assert replay == shot

    def test_serial_reproducibility(self):
        prog = program(
            BellPreparation(descriptor=BellDescriptor("phi", 1, 0.6)),
            MeasureValue(particle="A"),
            shots=200,
            seed=5,
        )
        first = run(prog, keep_results=True)
        second = run(prog, keep_results=True)
        assert first == second

    def test_parallel_run_matches_serial(self):
        prog = program(
            BellRandomSignPreparation(bell_class="phi"),
            ApplyNamed(name="flip", particle="A"),
            MeasureRelative(),
            shots=120,
            seed=13,
        )
        serial = run(prog, keep_results=True, workers=1)
        parallel = run(prog, keep_results=True, workers=3)
        assert serial == parallel

    def test_validation_errors(self):
        prog = program(BasisPreparation(index=0))
        with pytest.raises(ValueError, match="shots"):
            run(prog, shots=0)
        with pytest.raises(ValueError, match="seed"):
            run(prog, seed=-1)
        with pytest.raises(ValueError, match="seed"):
            run(prog, seed=2**64)
        with pytest.raises(ValueError, match="workers"):
            run(prog, workers=0)
        own = program(BasisPreparation(index=0), MeasureValue(particle="A"), shots=0)  # whatever shots= says
        with pytest.raises(engine.InvalidProgram, match="shots must be >= 1, got 0"):
            run(own, shots=5)
        with pytest.raises(engine.InvalidProgram, match="shots must be >= 1, got 0"):
            run_shot(own, ScriptedStream([]))

    @pytest.mark.parametrize("shots", [2**60, 2**63, 2**64])
    def test_results_numpy_cannot_size_are_a_memory_error(self, shots):
        with pytest.raises(MemoryError, match=f"cannot keep {shots} shot results"):
            run(program(BasisPreparation(index=0), MeasureValue(particle="A")), shots=shots, keep_results=True)

    def test_a_result_holds_only_its_fields(self):
        for prep in (BasisPreparation(index=1), BellRandomSignPreparation(bell_class="psi", s0=0.3)):
            for shots in (1, 17):
                stats = run(program(prep), shots=shots, seed=3)
                assert stats.counts == {"none": shots}
                assert set(vars(stats)) == {f.name for f in dataclasses.fields(stats)}

    @pytest.mark.parametrize(
        "overrides",
        [{"shots": True}, {"shots": 2.5}, {"shots": "3"}, {"seed": 1.0}, {"seed": False}, {"workers": 1.5}],
    )
    def test_non_integer_counts_are_type_errors(self, overrides):
        prog = program(BellRandomSignPreparation(bell_class="phi"), MeasureValue(particle="A"))
        with pytest.raises(TypeError, match=next(iter(overrides))):
            run(prog, **overrides)

    def test_numpy_integers_are_accepted(self):
        prog = program(BellRandomSignPreparation(bell_class="phi"), MeasureValue(particle="A"))
        stats = run(prog, shots=np.int64(30), seed=np.uint64(engine.MAX_SEED))
        assert type(stats.shots) is int and type(stats.seed) is int
        assert stats == run(prog, shots=30, seed=engine.MAX_SEED)

    def test_seed_boundary_is_accepted(self):
        prog = program(BasisPreparation(index=0), MeasureValue(particle="A"))
        stats = run(prog, shots=1, seed=engine.MAX_SEED)
        assert stats.counts == {"A=0": 1}

    def test_payload_and_json(self):
        prog = program(
            BellPreparation(descriptor=BellDescriptor("psi", 1)),
            MeasureValue(particle="A"),
            shots=50,
            seed=3,
        )
        stats = run(prog)
        payload = stats.to_payload()
        assert list(payload) == ["shots", "seed", "counts"]
        assert list(payload["counts"]) == sorted(payload["counts"])
        decoded = json.loads(stats.to_json())
        assert decoded["shots"] == 50 and decoded["seed"] == 3
        assert decoded["counts"] == payload["counts"]
        assert sum(decoded["counts"].values()) == 50

    def test_measurement_free_program_counts_none(self):
        prog = program(BasisPreparation(index=3), shots=8, seed=0)
        stats = run(prog)
        assert stats.counts == {"none": 8}

    def test_a_counts_only_measurement_free_run_runs_no_shot(self, monkeypatch):
        # Every shot's key is "none": no shot is walked and not one stream is derived, so 1e11
        # shots take no time; the tree holds the root and at most a random sign's two children.
        for prog in (
            program(BellRandomSignPreparation(bell_class="phi"), ApplyNamed(name="flip", particle="A")),
            program(BasisPreparation(index=2), ApplyBellOperator()),
        ):
            replay, trees = _replay(prog, 40, 6), []

            class RecordingTree(engine._BranchTree):
                def __init__(self, *args, **kwargs):
                    trees.append(self)
                    super().__init__(*args, **kwargs)

            def forbidden(*args):
                raise AssertionError("a measurement-free counts-only run walked a shot or derived a stream")

            for name in ("block_rows", "derive_rng"):
                monkeypatch.setattr(engine, name, forbidden)
            for name in ("walk", "walk_block"):
                monkeypatch.setattr(engine._BranchTree, name, forbidden)
            monkeypatch.setattr(engine, "_BranchTree", RecordingTree)
            stats = run(prog, 10**11, 6)
            assert (stats.shots, stats.seed, stats.counts, stats.results) == (10**11, 6, {"none": 10**11}, None)
            assert len(trees) == 1 and trees[0].size <= 3
            monkeypatch.undo()
            assert run(prog, 40, 6, keep_results=True) == replay
            assert run(prog, 40, 6).counts == replay.counts == {"none": 40}

    def test_deterministic_outcomes_that_differ_by_sign_are_drawn(self):
        # Each sign's outcome is certain, A=0 or A=1: one key per child, so every shot draws its sign.
        prog = program(BellRandomSignPreparation(bell_class="phi"), ApplyBellOperator(), MeasureValue(particle="A"))
        for shots in (1, engine._BULK_MIN_SHOTS - 1, 40, 1000):
            replay = _replay(prog, shots, 6)
            assert run(prog, shots, 6).counts == replay.counts
            assert run(prog, shots, 6, keep_results=True) == replay
        assert set(replay.counts) == {"A=0", "A=1"}


class TestCompile:
    def test_a_compiled_program_holds_its_program_warnings_and_settings(self):
        prog = program(BellRandomSignPreparation(bell_class="psi", s0=0.3), shots=7, seed=5)
        compiled = engine.compile(prog)
        assert compiled.program is prog and (compiled.shots, compiled.seed) == (7, 5)
        assert compiled.warnings == tuple(circuit.validate(prog)) and len(compiled.warnings) == 1
        assert compiled.prepared == tuple(bell_state(BellDescriptor("psi", sign, 0.3)) for sign in (1, -1))
        assert engine.compile(compiled) is compiled and issubclass(engine.InvalidProgram, ValueError)

    def test_a_compiled_program_is_never_validated_again(self, monkeypatch):
        compiled = engine.compile(program(BellRandomSignPreparation(bell_class="phi"), MeasureValue(particle="A")))
        calls = count_calls(monkeypatch, "circuit", "validate")
        for shots in (1, engine._BULK_MIN_SHOTS, 100):
            run(compiled, shots, 3)
        run_shot(compiled, derive_rng(3, 0))
        run(compiled.program, 1, 3)
        assert len(calls) == 1

    @pytest.mark.parametrize("call", [
        lambda: run(None), lambda: run_shot(None, derive_rng(1, 0)), lambda: engine.compile(None),
    ], ids=["run", "run_shot", "compile"])
    def test_a_program_that_is_not_a_program_is_a_type_error(self, call):
        with pytest.raises(TypeError, match="^program must be a CircuitProgram or CompiledProgram, got NoneType$"):
            call()

    @pytest.mark.parametrize("source", ["prepare bell phi +\napply flip A\n", "prepare bell phi +\nmeasure value A\n"])
    @pytest.mark.parametrize("rng", [None, object(), SimpleNamespace(random=0.5)])
    def test_an_rng_without_a_callable_random_is_a_type_error(self, source, rng):
        compiled = engine.compile(circuit.parse(source)[0])
        with pytest.raises(TypeError, match=f"^rng must have a callable random\\(\\), got {type(rng).__name__}$"):
            run_shot(compiled, rng)

    def test_each_statement_kind_resolves_to_its_meaning(self):
        state, raw = core.TwoQubitState(0.6, 0, 0, 0.8j), core.SingleQubitOperator([[0, 1j], [1j, 0]])
        preparations = [
            (BasisPreparation(index=2), (core.basis_state(2),)),
            (BellPreparation(BellDescriptor("psi", -1, 0.6)), (bell_state(BellDescriptor("psi", -1, 0.6)),)),
            (BellRandomSignPreparation("phi", 0.6), (bell_state(BellDescriptor("phi", 1, 0.6)),
                                                     bell_state(BellDescriptor("phi", -1, 0.6)))),  # (+, -)
            (RawPreparation(state), (state,)),
        ]
        for preparation, prepared in preparations:
            assert engine.compile(program(preparation)).prepared == prepared
        lifts = {"A": core.lift_a, "B": core.lift_b}
        steps = [(ApplyNamed(name, p), lifts[p](core.named_operator(name))) for name in core.OPERATOR_NAMES
                 for p in "AB"]
        steps += [(ApplyBellOperator(), core.bell_operator())] + [(ApplyRaw(p, raw), lifts[p](raw)) for p in "AB"]
        steps += [(MeasureRelative(), None), (MeasureValue("A"), "A"), (MeasureValue("B"), "B")]
        actions = engine.compile(program(BasisPreparation(index=0), *[step for step, _ in steps])).actions
        for index, ((step, meaning), action) in enumerate(zip(steps, actions)):
            if isinstance(step, (MeasureRelative, MeasureValue)):
                assert action == ("measure", index, meaning)
            elif isinstance(step, ApplyNamed):  # the cached lift object itself
                assert action[0] == "apply" and action[1] is meaning
            else:
                assert action[0] == "apply" and action[1].matrix.tobytes() == meaning.matrix.tobytes()
        assert len(actions) == len(steps) == 14

    def test_every_named_step_holds_the_one_shared_lifted_operator(self):
        steps = [ApplyNamed(name=name, particle=p) for name in core.OPERATOR_NAMES for p in "AB"]
        first, second = (engine.compile(program(BasisPreparation(index=0), *steps)) for _ in range(2))
        for step, (_, shared), (_, again) in zip(steps, first.actions, second.actions):
            named = core.named_operator(step.name)
            lift = core.lift_a if step.particle == "A" else core.lift_b
            assert shared is again and shared is lift(named) is core._LIFTED_NAMED[id(named), step.particle]
            # An equal operator that is not the named one is lifted afresh: the same bytes.
            assert shared.matrix.tobytes() == lift(core.SingleQubitOperator(named.matrix)).matrix.tobytes()

    def test_a_raw_step_is_lifted_afresh_and_both_kinds_call_the_lift(self, monkeypatch):
        lifts = [count_calls(monkeypatch, "core", name) for name in ("lift_a", "lift_b")]
        raw = ApplyRaw(particle="B", operator=core.SingleQubitOperator(core.named_operator("flip").matrix))
        compiled = engine.compile(program(BasisPreparation(index=0), raw, ApplyNamed(name="flip", particle="B")))
        assert [len(calls) for calls in lifts] == [0, 2]
        (_, fresh), (_, shared) = compiled.actions
        assert fresh is not shared and fresh == shared

    def test_star_import_leaves_the_builtin_compile_alone(self):
        namespace = {}
        exec("from bellkit import *", namespace)
        assert "compile" not in namespace and {"CompiledProgram", "InvalidProgram"} <= set(namespace)
        assert {"CompiledProgram", "InvalidProgram", "compile"} <= set(engine.__all__)


class TestOneParticleOracle:
    """ROADMAP item 9's correspondence as a reference that shares no arithmetic with the engine."""

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(program_seed=st.integers(0, 2**32 - 1))
    def test_a_program_without_raw_runs_as_one_particle_and_a_relative_bit(self, program_seed):
        prog = random_program(np.random.default_rng(program_seed))
        preparation = prog.preparation
        if isinstance(preparation, circuit.RawPreparation):
            preparation = BasisPreparation(index=program_seed % 4)
        steps = [step for step in prog.steps if not isinstance(step, ApplyRaw)]
        prog = program(preparation, *steps, seed=prog.seed)
        compiled = engine.compile(prog)
        for index in range(4):
            engine_rng, oracle_rng = derive_rng(prog.seed, index), derive_rng(prog.seed, index)
            shot = run_shot(compiled, engine_rng)
            records, final = interpret_one_particle(prog, oracle_rng)
            assert [outcome_key((record,)) for record in shot.records] == [key for key, _, _ in records]
            for record, (_, probability, post) in zip(shot.records, records):
                assert abs(record.probability - probability) <= 1e-12
                assert np.max(np.abs(record.post_state.vector - post)) <= 1e-12
            assert np.max(np.abs(shot.final_state.vector - final)) <= 1e-12
            assert engine_rng.random() == oracle_rng.random()  # both took the same draws


def _replay(prog, shots, seed):
    """The reference: every shot on its own, from its documented substream."""
    results = tuple(run_shot(prog, derive_rng(seed, index)) for index in range(shots))
    counts = {}
    for shot in results:
        key = outcome_key(shot.records)
        counts[key] = counts.get(key, 0) + 1
    return engine.ShotStatistics(shots=shots, seed=seed, counts=counts, results=results)


def _draws(seed, start, stop, k):
    """The first `k` rows of `engine.block_rows`, as a (k, stop - start) array."""
    return np.array([row for _, row in zip(range(k), engine.block_rows(seed, start, stop))])


class TestDraws:
    SEEDS = (0, 7, 424242, 2**32 - 1, 2**32, 2**64 - 1)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("index", [0, 1, 2**32 - 1, 2**32])
    def test_equals_derive_rng(self, seed, index):
        got = _draws(seed, index, index + 1, 4)
        rng = derive_rng(seed, index)
        assert got.shape == (4, 1) and got.dtype == np.float64
        assert got[:, 0].tolist() == [rng.random() for _ in range(4)]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("start", [0, 2**32 - 3, 2**64 - 5])
    def test_a_block_equals_derive_rng_per_column(self, seed, start):
        # The block at 2**32 - 3 straddles 2**32, where an index gains a second entropy word.
        got = _draws(seed, start, start + 5, 3)
        for column, index in enumerate(range(start, start + 5)):
            rng = derive_rng(seed, index)
            assert got[:, column].tolist() == [rng.random() for _ in range(3)]

    def test_rejects_indices_and_seeds_beyond_64_bits(self):
        with pytest.raises(ValueError):
            _draws(0, 2**64 - 1, 2**64 + 1, 1)
        with pytest.raises(ValueError):
            _draws(2**64, 0, 1, 1)

    # Seeds of one and two 32-bit words, with 0 and 2**64 - 1; blocks that start at 0, straddle 2**32
    # (where an index gains a second entropy word), end at 2**64, or start anywhere; 12 rows deep.
    @pytest.mark.parametrize("n", [1, 2, 3, 255, 256])
    def test_blocks_equal_derive_rng_in_every_column_and_row(self, n):
        rng = np.random.default_rng(n)
        seeds = (0, 2**32 - 1, 2**32, 2**64 - 1, int(rng.integers(2**32)))
        seeds += (int(rng.integers(2**32, 2**64, dtype=np.uint64)),)
        starts = (0, 2**32 - (n + 1) // 2, 2**64 - n, int(rng.integers(2**64 - n, dtype=np.uint64)))
        for seed in seeds:
            for start in starts:
                streams = [derive_rng(seed, index) for index in range(start, start + n)]
                want = [[stream.random() for _ in range(12)] for stream in streams]
                assert _draws(seed, start, start + n, 12).T.tolist() == want, (seed, start)

    @pytest.mark.parametrize("seed", [3, 2**40 + 3])
    def test_a_full_block_equals_derive_rng_in_sampled_columns(self, seed):
        start = 2**32 - 2048
        got = _draws(seed, start, start + engine._BLOCK_SHOTS, 12)
        sampled = np.random.default_rng(seed).choice(engine._BLOCK_SHOTS, 30, replace=False).tolist()
        sampled += [0, engine._BLOCK_SHOTS - 1]
        for column in sampled:
            rng = derive_rng(seed, start + column)
            assert got[:, column].tolist() == [rng.random() for _ in range(12)], column

    def test_the_kernels_keep_their_dtypes(self):
        # One uint64 constant would widen a uint32 op on numpy 2 only (NEP 50): numpy 1 casts by value.
        pool = np.arange(8, dtype=np.uint32).reshape(4, 2)
        assert _streams._hashmix(pool, *_streams._ENTROPY_HASH).dtype == np.uint32
        assert _streams._mix(pool, pool).dtype == np.uint32
        word = np.arange(2, dtype=np.uint64)
        assert [a.dtype for a in _streams._lcg_step(word, word, (word, word, word, word))] == [np.uint64] * 2


class TestBranchTree:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(
        program_seed=st.integers(0, 2**32 - 1),
        shots=st.integers(1, 64),
        seed=st.integers(0, engine.MAX_SEED),
    )
    def test_run_equals_per_shot_replay(self, program_seed, shots, seed):
        prog = random_program(np.random.default_rng(program_seed))
        replay = _replay(prog, shots, seed)
        assert run(prog, shots, seed, keep_results=True) == replay
        assert run(engine.compile(prog), shots, seed, keep_results=True) == replay

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(
        program_seed=st.integers(0, 2**32 - 1),
        index=st.integers(0, 2**64 - 4),
        seed=st.integers(0, engine.MAX_SEED),
    )
    def test_run_shot_equals_a_straight_line_interpreter(self, program_seed, index, seed):
        # The replay above walks the same tree code as run; this reference shares none of it.
        # repr, unlike ==, tells a zero amplitude's sign.
        prog = random_program(np.random.default_rng(program_seed))
        for shot in range(index, index + 4):
            assert repr(run_shot(prog, derive_rng(seed, shot))) == repr(interpret(prog, derive_rng(seed, shot)))

    def test_run_past_the_node_budget_equals_replay(self):
        # About 20 draws per shot: a few hundred shots need more nodes than a run stores.
        source = "prepare bell-random-sign phi\n" + "apply bellop\nmeasure value A\napply bellop\nmeasure value B\n" * 10
        prog, diags = circuit.parse(source)
        assert prog is not None and not diags
        shots, seed = 400, 9
        tree = engine._BranchTree(prog, engine.NODE_BUDGET)
        for index in range(shots):
            tree.walk(derive_rng(seed, index))
        assert tree.size == engine.NODE_BUDGET
        replay = _replay(prog, shots, seed)
        assert run(prog, shots, seed, keep_results=True) == replay
        assert list(run(prog, shots, seed).counts.items()) == list(replay.counts.items())

    @settings(max_examples=9, deadline=None, derandomize=True, database=None)
    @given(
        program_seed=st.integers(0, 2**32 - 1),
        blocks=st.sampled_from([(1, -1), (1, 1), (2, 1)]),
        seed=st.integers(0, engine.MAX_SEED),
    )
    def test_run_across_a_block_boundary_equals_replay(self, program_seed, blocks, seed):
        # test_run_equals_per_shot_replay covers both sides of the bulk cutover; this crosses blocks.
        assert 1 < engine._BULK_MIN_SHOTS <= 64
        prog = random_program(np.random.default_rng(program_seed))
        count, offset = blocks
        shots = count * engine._BLOCK_SHOTS + offset
        stats, replay = run(prog, shots, seed, keep_results=True), _replay(prog, shots, seed)
        assert stats == replay and list(stats.counts) == list(replay.counts)
        assert list(run(prog, shots, seed).counts.items()) == list(replay.counts.items())

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(
        program_seed=st.integers(0, 2**32 - 1),
        shots=st.integers(1, 64),
        seed=st.integers(0, engine.MAX_SEED),
    )
    def test_counts_keep_first_occurrence_order(self, program_seed, shots, seed):
        # Dict equality ignores order; the counts table of a text report does not.
        prog = random_program(np.random.default_rng(program_seed))
        assert list(run(prog, shots, seed).counts.items()) == list(_replay(prog, shots, seed).counts.items())

    def test_run_past_the_node_budget_across_blocks_equals_replay(self, monkeypatch):
        # The program of test_run_past_the_node_budget_equals_replay, in blocks of 150 shots.
        step = "apply bellop\nmeasure value A\napply bellop\nmeasure value B\n"
        prog, diags = circuit.parse("prepare bell-random-sign phi\n" + step * 10)
        assert prog is not None and not diags
        monkeypatch.setattr(engine, "_BLOCK_SHOTS", 150)
        block, shots, seed = engine._BLOCK_SHOTS, 400, 9
        for keep in (True, False):
            tree = engine._BranchTree(prog, engine.NODE_BUDGET)
            for start in range(0, shots, block):
                stop = min(start + block, shots)
                tree.walk_block(engine.block_rows(seed, start, stop), stop - start, keep)
            assert tree.size == engine.NODE_BUDGET
        replay = _replay(prog, shots, seed)
        stats = run(prog, shots, seed, keep_results=True)
        assert stats == replay and list(stats.counts) == list(replay.counts)
        assert list(run(prog, shots, seed).counts.items()) == list(replay.counts.items())

    def test_program_with_more_than_64_drawing_steps_runs_in_blocks(self, monkeypatch):
        # 65 steps draw per shot; every shot walks a block, and only the check of shot 0 derives a stream.
        prog = program(
            BellRandomSignPreparation(bell_class="phi"),
            *[ApplyBellOperator(), MeasureValue(particle="A")] * 64,
        )
        shots, seed = engine._BULK_MIN_SHOTS + 2, 4
        replay = _replay(prog, shots, seed)
        derived, derive = [], engine.derive_rng
        monkeypatch.setattr(engine, "derive_rng", lambda seed, index: derived.append(index) or derive(seed, index))
        for keep in (True, False):
            stats = run(prog, shots, seed, keep_results=keep)
            assert list(stats.counts.items()) == list(replay.counts.items())
            assert stats.results == (replay.results if keep else None)
        assert derived == [0, 0]

    def test_run_keeps_the_contract_if_bulk_draws_disagree(self, monkeypatch):
        prog = program(BellRandomSignPreparation(bell_class="psi"), MeasureRelative(), MeasureValue(particle="B"))
        shots, seed = 100, 8
        replay = _replay(prog, shots, seed)

        def wrong_rows(seed, start, stop):
            blocks.append((start, stop))
            return itertools.repeat(np.full(stop - start, 0.25))

        monkeypatch.setattr(engine, "block_rows", wrong_rows)
        for keep in (True, False):
            blocks = []
            stats = run(prog, shots, seed, keep_results=keep)
            assert blocks == [(0, shots)]  # the bulk path ran, and its first row failed the check
            assert list(stats.counts.items()) == list(replay.counts.items())
            assert stats.results == (replay.results if keep else None)

    def test_walk_block_asks_for_rows_only_while_a_column_is_alive(self):
        # The relative measurement draws; on Different the value measurement draws too, on Same it is certain.
        prog = program(
            circuit.RawPreparation(state=core.TwoQubitState(0.6, 0.48, 0.64, 0)),
            MeasureRelative(),
            MeasureValue(particle="A"),
        )
        for columns, depth in (([0.1, 0.2], 1), ([0.1, 0.9], 2), ([0.9, 0.9, 0.1], 2)):
            for keep in (True, False):
                asked = []

                def rows():
                    while True:
                        asked.append(len(asked))
                        yield np.array(columns)

                tree = engine._BranchTree(prog, engine.NODE_BUDGET)
                leaves = tree.walk_block(rows(), len(columns), keep)
                assert len(asked) == depth
                assert sorted(int(c) for _, cols in leaves for c in cols) == list(range(len(columns)))

    def test_walk_block_splits_columns_like_walk(self):
        # A sign draw below 0.5 gives +, a second draw below p(A=0) = 0.36 gives A=0; a draw equal to p is not below.
        prog = program(BellRandomSignPreparation(bell_class="phi", s0=0.6), MeasureValue(particle="A"))
        block = np.array([[0.1, 0.9, 0.2, 0.7, 0.5], [0.8, 0.3, 0.1, 0.6, 0.36]])
        for keep in (True, False):
            tree = engine._BranchTree(prog, engine.NODE_BUDGET)
            walked = tree.walk_block(iter(block), block.shape[1], keep)
            got = [(leaf[1], columns.tolist()) for leaf, columns in walked]
            assert got == [("A=1", [0]), ("A=0", [1]), ("A=0", [2]), ("A=1", [3, 4])]
            assert all((leaf[0] is not None) == keep for leaf, _ in walked)
        for column in range(block.shape[1]):
            walked = engine._BranchTree(prog, 0).walk(ScriptedStream(block[:, column].tolist()))
            assert walked[1] == next(key for key, columns in got if column in columns)

    @pytest.mark.parametrize("draw, outcome", [(0.3, 0), (0.7, 1)])
    def test_a_drawn_value_measurement_costs_one_apply2_call(self, monkeypatch, draw, outcome):
        # The node's probability is read from the amplitudes the first outcome keeps, with no
        # projection: the one apply2 projects the drawn branch.
        calls = []

        def counting_apply2(op, state):
            calls.append(op)
            return core.apply2(op, state)

        monkeypatch.setattr(engine, "apply2", counting_apply2)
        prog = program(BellPreparation(descriptor=BellDescriptor("phi", 1)), MeasureValue(particle="A"))
        shot = run_shot(prog, ScriptedStream([draw]))
        assert shot.records[0].outcome == outcome and len(calls) == 1

    def test_a_deterministic_value_measurement_costs_one_apply2_call(self, monkeypatch):
        # The projection that decides the outcome is certain is the post-measurement state.
        calls = []

        def counting_apply2(op, state):
            calls.append(op)
            return core.apply2(op, state)

        monkeypatch.setattr(engine, "apply2", counting_apply2)
        prog = program(BasisPreparation(index=0), MeasureValue(particle="A"))
        shot = run_shot(prog, ScriptedStream([]))
        assert len(calls) == 1
        (record,) = shot.records
        assert (record.outcome, record.probability, record.projected_norm) == (0, 1.0, 1.0)
        assert record.post_state == shot.final_state == core.basis_state(0)

    @pytest.mark.parametrize(
        "source",
        [
            "prepare raw {low} 0 0 0 {high} 0 0 0\nmeasure value A\n",  # p(A=0) just above EPS_DET
            "prepare raw {high} 0 0 0 {low} 0 0 0\nmeasure value A\n",  # p(A=0) just below 1 - EPS_DET
            "prepare raw {low} 0 {high} 0 0 0 0 0\nmeasure relative\n",  # p(Same) just above EPS_DET
            "prepare raw {high} 0 {low} 0 0 0 0 0\nmeasure relative\n",  # p(Same) just below 1 - EPS_DET
            "prepare bell-random-sign psi s0=0.6\napply flip A\n",  # the sign's p of 0.5
        ],
    )
    def test_replaying_a_branch_equals_a_real_draw_on_its_side(self, source):
        # A child is built from its branch alone; a real draw on that side must build the same child.
        edge = 1.5 * engine.EPS_DET
        prog, diags = circuit.parse(source.format(low=math.sqrt(edge), high=math.sqrt(1 - edge)))
        assert prog is not None and not diags
        replaying = engine._BranchTree(prog, engine.NODE_BUDGET)
        root = replaying.root
        assert root.p == 0.5 or engine.EPS_DET < min(root.p, 1 - root.p) < 2 * engine.EPS_DET
        sides = ([0.0, root.p / 2, math.nextafter(root.p, 0)], [root.p, (1 + root.p) / 2, math.nextafter(1, 0)])
        for branch, draws in enumerate(sides):
            replayed = replaying._child(root, branch)
            for draw in draws:
                tree, stream = engine._BranchTree(prog, engine.NODE_BUDGET), ScriptedStream([draw])
                position, state, records = tree.root.at
                walked = tree._build(position + 1, *tree._step(tree.actions[position], state, records, stream))
                assert stream.consumed == 1 and walked == replayed

    def test_run_shot_stores_no_nodes(self):
        prog = program(BellRandomSignPreparation(bell_class="psi"), MeasureValue(particle="A"))
        tree = engine._BranchTree(prog, budget=0)
        tree.walk(derive_rng(0, 0))
        assert tree.size == 1 and tree.root.children == [None, None]


def _preparation(rng):
    """A random-sign Bell preparation or a random raw state: both leave every measurement to chance."""
    if rng.random() < 0.5:
        return BellRandomSignPreparation(bell_class="phi" if rng.random() < 0.5 else "psi", s0=float(rng.random()))
    return circuit.RawPreparation(state=random_two_qubit_state(rng))


def _assert_runs_equal_replay(prog, shots, seed):
    """Counts-only and result-keeping runs against the per-shot replay, counts order included."""
    replay = _replay(prog, shots, seed)
    kept = run(prog, shots, seed, keep_results=True)
    assert kept == replay and list(kept.counts) == list(replay.counts)
    assert list(run(prog, shots, seed).counts.items()) == list(replay.counts.items())


class TestLevelBuild:
    """The block walk of counts-only runs, which builds each level's children in one numpy pass."""

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        program_seed=st.integers(0, 2**32 - 1),
        rounds=st.integers(3, 6),
        shots=st.integers(engine._BULK_MIN_SHOTS, 300),
        budget=st.sampled_from([1, 16, 64]),
        block=st.sampled_from([64, engine._BLOCK_SHOTS]),
        seed=st.integers(0, engine.MAX_SEED),
    )
    def test_high_entropy_programs_past_the_node_budget_equal_replay(
        self, program_seed, rounds, shots, budget, block, seed
    ):
        # Every measurement draws, so almost every shot takes its own path; a small budget fills at once.
        rng = np.random.default_rng(program_seed)
        steps = []
        for _ in range(rounds):
            for particle in "AB":
                steps += [ApplyRaw(particle=particle, operator=random_unitary(rng)), MeasureValue(particle=particle)]
        prog = program(_preparation(rng), *steps)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "NODE_BUDGET", budget)
            patch.setattr(engine, "_BLOCK_SHOTS", block)
            _assert_runs_equal_replay(prog, shots, seed)

    @settings(max_examples=5, deadline=None, derandomize=True, database=None)
    @given(
        program_seed=st.integers(0, 2**32 - 1),
        shots=st.integers(engine._BULK_MIN_SHOTS, 40),
        seed=st.integers(0, engine.MAX_SEED),
    )
    def test_programs_with_more_than_64_drawing_steps_equal_replay(self, program_seed, shots, seed):
        # Each round draws once for A, then repeats it (certain); some rounds also ask the relative bit.
        rng = np.random.default_rng(program_seed)
        steps = []
        for _ in range(66):
            steps += [ApplyRaw(particle="A", operator=random_unitary(rng)), MeasureValue(particle="A")]
            steps += [MeasureValue(particle="A")] + ([MeasureRelative()] if rng.random() < 0.3 else [])
        prog = program(_preparation(rng), *steps)
        _assert_runs_equal_replay(prog, shots, seed)

    # Relative draws; on Same the state is |00>, so A is certain and B draws after the Bell operator,
    # while on Different A draws at once: the root's children sit at positions 2 and 4, so the
    # level pass that builds their children starts its rows at both.
    MIXED = program(
        circuit.RawPreparation(state=core.TwoQubitState(0.6, 0.48, 0.64, 0)),
        MeasureRelative(),
        MeasureValue(particle="A"),
        ApplyBellOperator(),
        MeasureValue(particle="B"),
        ApplyNamed(name="flip", particle="A"),
        MeasureRelative(),
        ApplyBellOperator(),
        MeasureValue(particle="A"),
    )

    def test_the_mixed_program_mixes_positions_in_one_level(self):
        tree = engine._BranchTree(self.MIXED, engine.NODE_BUDGET)
        tree.walk_block(engine.block_rows(3, 0, 200), 200, False)
        level = [child for child in tree.root.children if isinstance(child, engine._Node)]
        assert sorted(node.at[0] for node in level) == [2, 4]

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(shots=st.integers(engine._BULK_MIN_SHOTS, 500), seed=st.integers(0, engine.MAX_SEED))
    def test_levels_that_mix_action_positions_equal_replay(self, shots, seed):
        _assert_runs_equal_replay(self.MIXED, shots, seed)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(program_seed=st.integers(0, 2**32 - 1))
    def test_a_level_pass_equals_the_shot_code_bit_for_bit(self, program_seed):
        # Level by level, the children `_child` builds and those one `_build_level` call builds agree:
        # p exactly, positions, keys and tokens, and every amplitude's real and imaginary magnitudes.
        prog = random_program(np.random.default_rng(program_seed))
        shot_tree, pass_tree = engine._BranchTree(prog, 10**6), engine._BranchTree(prog, 10**6)
        level = [(shot_tree.root, pass_tree.root)] if isinstance(shot_tree.root, engine._Node) else []
        while level:
            wanted = [(pair, branch) for pair in level[:64] for branch in (0, 1)]
            built = pass_tree._build_level([(pair[1], branch) for pair, branch in wanted])
            level = []
            for ((shot_node, _), branch), child in zip(wanted, built):
                reference = shot_tree._child(shot_node, branch)
                if isinstance(reference, engine._Node):
                    position, state, records = reference.at
                    assert child.p == reference.p and child.at[0] == position
                    assert child.at[2] == tuple(outcome_key((record,)) for record in records)
                    parts = np.abs(np.array(state.amplitudes).view(np.float64))
                    assert np.abs(child.at[1].view(np.float64)).tolist() == parts.tolist()
                    level.append((reference, child))
                else:
                    assert child == (None, reference[1])

    def test_first_outcome_p_squares_as_python_does(self):
        # |g00| = x with x ** 2 != x * x (libm's pow against numpy's square): p must take Python's.
        x = next(v for v in np.random.default_rng(0).random(10**5).tolist() if v**2 != v * v)
        state = core.TwoQubitState(x, 0, 0, math.sqrt(1 - x**2))
        vectors = np.array([state.vector])
        for particle in (None, "A", "B"):
            assert engine._first_p(vectors, particle) == [engine._first_outcome(state, particle)[0]]

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(level_seed=st.integers(0, 2**32 - 1), width=st.integers(1, 40))
    def test_both_ways_of_splitting_a_level_agree(self, level_seed, width):
        # Node by node for narrow levels, one stable sort for wide ones: the same groups, in the same order.
        rng = np.random.default_rng(level_seed)
        row, owner = rng.random(300), rng.integers(0, width, 300)
        level = [
            (engine._Node(float(rng.random()), None, [None, None]), np.flatnonzero(owner == node))
            for node in range(width)
            if (owner == node).any()
        ]
        split = {}
        for limit in (0, 10**6):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine, "_SPLIT_EACH_MAX", limit)
                split[limit] = engine._split(level, row)
            # Every column of a group lies on its branch's side of its node's p.
            assert all(((row[columns] < node.p) == (branch == 0)).all() for node, branch, columns in split[limit])
        same = [[(id(node), b, cols.tolist()) for node, b, cols in split[limit]] for limit in split]
        assert same[0] == same[1]
        assert sorted(c for _, _, columns in split[0] for c in columns.tolist()) == list(range(300))

    def test_counts_only_blocks_build_no_result_objects(self, monkeypatch):
        prog = program(
            BellRandomSignPreparation(bell_class="psi", s0=0.3),
            ApplyBellOperator(),
            MeasureValue(particle="A"),
            MeasureRelative(),
            ApplyNamed(name="flip", particle="B"),
            MeasureValue(particle="B"),
        )
        shots, seed = 300, 12
        replay = _replay(prog, shots, seed)
        # Only the root's children are built by the shot code; below them no result object is made.
        root_builds, building = [], []
        shot_child = engine._BranchTree._child

        def child(tree, node, branch):
            assert node is tree.root, "a counts-only block run built a node below the root's children"
            root_builds.append(branch)
            building.append(True)
            try:
                return shot_child(tree, node, branch)
            finally:
                building.pop()

        def forbidden(original):
            def guarded(*args, **kwargs):
                assert building, "a counts-only block run built a per-shot object below the root's children"
                return original(*args, **kwargs)

            return guarded

        monkeypatch.setattr(engine._BranchTree, "_child", child)
        for name in ("apply2", "measure_value", "measure_relative", "ShotResult", "MeasurementRecord"):
            monkeypatch.setattr(engine, name, forbidden(getattr(engine, name)))
        assert list(run(prog, shots, seed).counts.items()) == list(replay.counts.items())
        assert root_builds == [0, 1]


def test_import_starts_no_process_machinery():
    code = "import sys, bellkit; print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))"
    env = dict(os.environ, PYTHONPATH=str(Path(bellkit.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
