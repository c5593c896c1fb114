"""Measurement collapse rules, the randomness contract, and run aggregation."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import ScriptedStream, random_program
from hypothesis import given, settings
from hypothesis import strategies as st

import bellkit
from bellkit import circuit, core, engine
from bellkit.bell import BellDescriptor, bell_state, classify, separability_defect
from bellkit.checks import random_two_qubit_state
from bellkit.circuit import (
    ApplyBellOperator,
    ApplyNamed,
    BasisPreparation,
    BellPreparation,
    BellRandomSignPreparation,
    CircuitProgram,
    MeasureRelative,
    MeasureValue,
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


def _replay(prog, shots, seed):
    """The reference: every shot on its own, from its documented substream."""
    results = tuple(run_shot(prog, derive_rng(seed, index)) for index in range(shots))
    counts = {}
    for shot in results:
        key = outcome_key(shot.records)
        counts[key] = counts.get(key, 0) + 1
    return engine.ShotStatistics(shots=shots, seed=seed, counts=counts, results=results)


class TestDraws:
    SEEDS = (0, 7, 424242, 2**32 - 1, 2**32, 2**64 - 1)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("index", [0, 1, 2**32 - 1, 2**32])
    def test_equals_derive_rng(self, seed, index):
        got = engine.draws(seed, index, index + 1, 4)
        rng = derive_rng(seed, index)
        assert got.shape == (4, 1) and got.dtype == np.float64
        assert got[:, 0].tolist() == [rng.random() for _ in range(4)]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("start", [0, 2**32 - 3, 2**64 - 5])
    def test_a_block_equals_derive_rng_per_column(self, seed, start):
        # The block at 2**32 - 3 straddles 2**32, where an index gains a second entropy word.
        got = engine.draws(seed, start, start + 5, 3)
        for column, index in enumerate(range(start, start + 5)):
            rng = derive_rng(seed, index)
            assert got[:, column].tolist() == [rng.random() for _ in range(3)]

    def test_rejects_indices_and_seeds_beyond_64_bits(self):
        with pytest.raises(ValueError):
            engine.draws(0, 2**64 - 1, 2**64 + 1, 1)
        with pytest.raises(ValueError):
            engine.draws(2**64, 0, 1, 1)


class TestBranchTree:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(
        program_seed=st.integers(0, 2**32 - 1),
        shots=st.integers(1, 64),
        seed=st.integers(0, engine.MAX_SEED),
    )
    def test_run_equals_per_shot_replay(self, program_seed, shots, seed):
        prog = random_program(np.random.default_rng(program_seed))
        assert run(prog, shots, seed, keep_results=True) == _replay(prog, shots, seed)

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
        assert run(prog, shots, seed, keep_results=True) == _replay(prog, shots, seed)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(
        program_seed=st.integers(0, 2**32 - 1),
        extra=st.integers(1, 64),
        seed=st.integers(0, engine.MAX_SEED),
    )
    def test_run_across_a_block_boundary_equals_replay(self, program_seed, extra, seed):
        # test_run_equals_per_shot_replay covers both sides of the bulk cutover; this crosses a block.
        assert 1 < engine._BULK_MIN_SHOTS <= 64
        prog = random_program(np.random.default_rng(program_seed))
        shots = engine._BLOCK_SHOTS + extra
        assert run(prog, shots, seed, keep_results=True) == _replay(prog, shots, seed)

    def test_program_past_the_bulk_draw_bound_runs_per_shot(self, monkeypatch):
        def no_blocks(*args):
            raise AssertionError("a program with this many draws per shot runs per shot")

        monkeypatch.setattr(engine, "draws", no_blocks)
        prog = program(
            BellRandomSignPreparation(bell_class="phi"),
            *[ApplyBellOperator(), MeasureValue(particle="A")] * engine._BULK_MAX_DRAWS,
        )
        shots, seed = engine._BULK_MIN_SHOTS + 2, 4
        assert run(prog, shots, seed, keep_results=True) == _replay(prog, shots, seed)

    def test_run_keeps_the_contract_if_bulk_draws_disagree(self, monkeypatch):
        prog = program(BellRandomSignPreparation(bell_class="psi"), MeasureRelative(), MeasureValue(particle="B"))
        shots, seed = 100, 8
        monkeypatch.setattr(engine, "draws", lambda seed, start, stop, k: np.full((k, stop - start), 0.25))
        assert run(prog, shots, seed, keep_results=True) == _replay(prog, shots, seed)

    def test_walk_past_the_end_of_a_row_raises(self):
        prog = program(BellRandomSignPreparation(bell_class="phi"), MeasureValue(particle="A"))
        tree = engine._BranchTree(prog, engine.NODE_BUDGET)
        with pytest.raises(RuntimeError, match="more than the 1 draws"):
            tree.walk(engine._Row([0.3]))
        assert tree.walk(engine._Row([0.3, 0.3]))[1] == "A=0"

    def test_a_drawn_value_measurement_costs_two_apply2_calls(self, monkeypatch):
        # One apply2 decides the node's probability, one projects the drawn branch.
        calls = []

        def counting_apply2(op, state):
            calls.append(op)
            return core.apply2(op, state)

        monkeypatch.setattr(engine, "apply2", counting_apply2)
        prog = program(BellPreparation(descriptor=BellDescriptor("phi", 1)), MeasureValue(particle="A"))
        shot = run_shot(prog, ScriptedStream([0.3]))
        assert shot.records[0].outcome == 0 and len(calls) == 2

    def test_run_shot_stores_no_nodes(self):
        prog = program(BellRandomSignPreparation(bell_class="psi"), MeasureValue(particle="A"))
        tree = engine._BranchTree(prog, budget=0)
        tree.walk(derive_rng(0, 0))
        assert tree.size == 1 and tree.root.children == [None, None]


def test_import_starts_no_process_machinery():
    code = "import sys, bellkit; print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))"
    env = dict(os.environ, PYTHONPATH=str(Path(bellkit.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
