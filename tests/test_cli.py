"""Command-line behavior: output shapes, exit codes, reproducibility."""

import argparse
import ast
import json
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import count_calls, random_program

import bellkit
from bellkit import checks, circuit, cli, core, engine
from bellkit.bell import classify
from bellkit.engine import RelativeBit, derive_rng, run, run_shot

DETERMINISTIC = "prepare basis 00\napply flip B\nmeasure value A\nmeasure value B\nshots 16\n"
PIPELINE = "prepare basis 00\napply bellop\napply flip A\napply bellop\n"
SAMPLED = "prepare bell phi + s0=0.6\nmeasure value A\nshots 400\nseed 11\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def invoke(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_text_output_golden(self, tmp_path, capsys):
        path = write(tmp_path, "deterministic.bk", DETERMINISTIC)
        code, out, err = invoke(capsys, ["run", path])
        assert code == 0 and err == ""
        assert out == (
            "shots: 16\n"
            "seed: 0\n"
            "\n"
            "outcome  count  frequency\n"
            "A=0,B=1     16  1.000000\n"
        )

    def test_measurement_free_program_reports_final_state(self, tmp_path, capsys):
        path = write(tmp_path, "pipeline.bk", PIPELINE)
        code, out, err = invoke(capsys, ["run", path, "--shots", "3"])
        assert code == 0
        assert err == f"{path}:1:1: warning: program contains no measurements\n"
        lines = out.splitlines()
        assert ["none", "3", "1.000000"] in [line.split() for line in lines]
        assert (
            "final state: 0.000000+0.000000i 1.000000+0.000000i"
            " 0.000000+0.000000i 0.000000+0.000000i" in lines
        )
        assert "classification: basis |01>" in lines
        assert "relative bit: Different" in lines

    def test_a_final_state_that_raw_steps_took_off_norm_is_classified(self, tmp_path, capsys):
        # Each raw step is unitary within EPS_OP, so the final norm ends 2.25e-9 past 1, beyond EPS_NORM.
        grow = " ".join(["1.00000000045", "0", "0", "0", "0", "0", "1.00000000045", "0"])
        source = f"prepare raw 1.0000000009 0 0 0 0 0 0 0\napply raw A {grow}\napply raw A {grow}\napply raw B {grow}\n"
        prog, _ = circuit.parse(source)
        assert engine.run_shot(prog, derive_rng(0, 0)).final_state.subnormalized
        code, out, _ = invoke(capsys, ["run", write(tmp_path, "drift.bk", source), "--shots", "3"])
        assert code == 0
        assert out.splitlines()[-2:] == ["classification: basis |00>", "relative bit: Same"]

    def test_shots_and_seed_overrides_show_up(self, tmp_path, capsys):
        path = write(tmp_path, "sampled.bk", SAMPLED)
        code, out, _ = invoke(capsys, ["run", path, "--shots", "50", "--seed", "123"])
        assert code == 0
        assert out.startswith("shots: 50\nseed: 123\n")

    def test_json_output(self, tmp_path, capsys):
        path = write(tmp_path, "sampled.bk", SAMPLED)
        code, out, _ = invoke(capsys, ["run", path, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["shots"] == 400 and payload["seed"] == 11
        assert set(payload["counts"]) <= {"A=0", "A=1"}
        assert sum(payload["counts"].values()) == 400
        assert "trace" not in payload

    def test_json_trace_schema(self, tmp_path, capsys):
        source = "prepare bell psi -\nmeasure relative\nmeasure value A\nshots 2\n"
        path = write(tmp_path, "trace.bk", source)
        code, out, _ = invoke(capsys, ["run", path, "--format", "json", "--trace"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["trace"]) == 2
        for index, shot in enumerate(payload["trace"]):
            assert shot["shot"] == index
            assert len(shot["final_state"]) == 8
            assert len(shot["records"]) == 2
            record = shot["records"][0]
            assert set(record) == {
                "step", "kind", "particle", "outcome",
                "probability", "projected_norm", "post_state",
            }
            assert record["kind"] == "relative" and record["outcome"] == "Different"
            assert shot["records"][1]["kind"] == "value"
            assert shot["records"][1]["outcome"] in (0, 1)

    def test_text_trace_lines(self, tmp_path, capsys):
        source = "prepare bell psi -\nmeasure relative\nshots 1\n"
        path = write(tmp_path, "trace.bk", source)
        code, out, _ = invoke(capsys, ["run", path, "--trace"])
        assert code == 0
        lines = out.splitlines()
        assert "trace:" in lines
        assert "shot 0:" in lines
        assert (
            "  step 0 relative rel=Different p=1.000000 norm=1.000000"
            " post 0.000000+0.000000i 0.707107+0.000000i"
            " -0.707107+0.000000i 0.000000+0.000000i" in lines
        )
        assert (
            "  final 0.000000+0.000000i 0.707107+0.000000i"
            " -0.707107+0.000000i 0.000000+0.000000i" in lines
        )

    def test_identical_invocations_are_byte_identical(self, tmp_path, capsys):
        path = write(tmp_path, "sampled.bk", SAMPLED)
        first = invoke(capsys, ["run", path, "--format", "json", "--trace"])
        second = invoke(capsys, ["run", path, "--format", "json", "--trace"])
        assert first == second and first[0] == 0

    def test_worker_count_does_not_change_output(self, tmp_path, capsys):
        path = write(tmp_path, "sampled.bk", SAMPLED)
        serial = invoke(capsys, ["run", path])
        parallel = invoke(capsys, ["run", path, "--workers", "3"])
        assert serial == parallel and serial[0] == 0


class TestMeasurementFreeReport:
    SOURCE = "prepare bell-random-sign phi\n"

    def test_final_state_is_shot_0s_without_a_second_run(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "sign.bk", self.SOURCE)
        prog, _ = circuit.parse(self.SOURCE)
        assert len({id(shot) for shot in run(prog, 64, 1, keep_results=True).results}) == 2
        signs = set()
        for seed in range(8):
            for shots in (1, engine._BULK_MIN_SHOTS + 1):
                expected = cli._format_state(run_shot(prog, derive_rng(seed, 0)).final_state)
                rngs, blocks = count_calls(monkeypatch, "engine", "derive_rng"), count_calls(monkeypatch, "_streams", "block_rows")
                code, out, _ = invoke(capsys, ["run", path, "--seed", str(seed), "--shots", str(shots)])
                monkeypatch.undo()
                assert code == 0 and rngs == [(seed, 0)] and blocks == []  # the report's shot 0 only
                assert f"final state: {expected}" in out.splitlines()
                signs.add(expected.split()[-1])
            if seed == 1:
                assert "-0.707107+0.000000i" in out
        assert signs == {"0.707107+0.000000i", "-0.707107+0.000000i"}

    def test_a_preparation_that_draws_nothing_derives_no_stream(self, tmp_path, capsys, monkeypatch):
        for source in (PIPELINE, "prepare bell psi - s0=0.4\napply t_minus A\n", "prepare raw 0 1 0 0 0 0 0 0\n"):
            path, prog = write(tmp_path, "fixed.bk", source), circuit.parse(source)[0]
            for seed, shots in ((0, 1), (3, engine._BULK_MIN_SHOTS + 1), (5, 1000)):
                expected = cli._format_state(run_shot(prog, derive_rng(seed, 0)).final_state)
                rngs = count_calls(monkeypatch, "engine", "derive_rng")
                blocks = count_calls(monkeypatch, "_streams", "block_rows")
                code, out, _ = invoke(capsys, ["run", path, "--seed", str(seed), "--shots", str(shots)])
                monkeypatch.undo()
                assert code == 0 and rngs == [] and blocks == []
                assert f"final state: {expected}" in out.splitlines()

    def test_a_run_of_1e11_shots_prints_its_report(self, tmp_path, capsys, monkeypatch):
        # No shot but shot 0 runs: keeping one result per shot once ended in numpy's _ArrayMemoryError.
        shots = "100000000000"
        programs = Path(__file__).resolve().parents[1] / "programs"
        sample = str(programs / "pipeline.bk")
        code, out, _ = invoke(capsys, ["run", sample, "--shots", shots])
        assert code == 0
        assert out == (
            f"shots: {shots}\nseed: 0\n\noutcome         count  frequency\nnone     {shots}  1.000000\n\n"
            "final state: 0.000000+0.000000i 1.000000+0.000000i 0.000000+0.000000i 0.000000+0.000000i\n"
            "classification: basis |01>\nrelative bit: Different\n"
        )
        code, out, _ = invoke(capsys, ["run", write(tmp_path, "sign.bk", self.SOURCE), "--shots", shots, "--format", "json"])
        assert code == 0 and json.loads(out) == {"shots": int(shots), "seed": 0, "counts": {"none": int(shots)}}

        # Counts that cannot depend on the draws: every shot reaches one key, and no stream is derived.
        def forbidden(*args):
            raise AssertionError("a run whose shots all reach one key derived a stream")

        for name in ("block_rows", "derive_rng"):
            monkeypatch.setattr(engine, name, forbidden)
        code, out, _ = invoke(capsys, ["run", str(programs / "flip_relative.bk"), "--shots", shots])
        assert code == 0
        assert out == f"shots: {shots}\nseed: 1\n\noutcome               count  frequency\nrel=Different  {shots}  1.000000\n"
        twice = "prepare bell-random-sign psi s0=0.3\napply flip A\nmeasure relative\napply t_minus B\nmeasure relative\n"
        code, out, _ = invoke(capsys, ["run", write(tmp_path, "twice.bk", twice), "--shots", shots, "--format", "json"])
        assert code == 0 and json.loads(out) == {"shots": int(shots), "seed": 0, "counts": {"rel=Same,rel=Same": int(shots)}}


# The per-shot renderer cli.cmd_run used before it rendered each distinct
# ShotResult once: the reference for every --trace report.
def _reference_record_payload(record) -> dict:
    outcome = record.outcome.value if isinstance(record.outcome, RelativeBit) else record.outcome
    return {
        "step": record.step_index,
        "kind": record.kind,
        "particle": record.particle,
        "outcome": outcome,
        "probability": record.probability,
        "projected_norm": record.projected_norm,
        "post_state": [x for g in record.post_state.amplitudes for x in (g.real, g.imag)],
    }


def _reference_trace_stdout(program, shots, seed, output_format) -> str:
    stats = run(program, shots, seed, keep_results=True)
    if output_format == "json":
        payload = stats.to_payload()
        payload["trace"] = [
            {
                "shot": index,
                "records": [_reference_record_payload(r) for r in shot.records],
                "final_state": [x for g in shot.final_state.amplitudes for x in (g.real, g.imag)],
            }
            for index, shot in enumerate(stats.results)
        ]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [f"shots: {stats.shots}", f"seed: {stats.seed}", ""]
    lines.extend(cli._render_counts_table(stats))
    if not any(key != "none" for key in stats.counts):
        final = run_shot(program, derive_rng(stats.seed, 0)).final_state
        lines.append("")
        lines.append(f"final state: {cli._format_state(final)}")
        lines.append(f"classification: {cli._classification_label(classify(final))}")
        lines.append(f"relative bit: {cli._relative_bit_label(final)}")
    lines.extend(["", "trace:"])
    for index, shot in enumerate(stats.results):
        lines.append(f"shot {index}:")
        for record in shot.records:
            outcome = (
                f"rel={record.outcome.value}"
                if isinstance(record.outcome, RelativeBit)
                else f"{record.particle}={record.outcome}"
            )
            lines.append(
                f"  step {record.step_index} {record.kind} {outcome}"
                f" p={record.probability:.6f} norm={record.projected_norm:.6f}"
                f" post {cli._format_state(record.post_state)}"
            )
        lines.append(f"  final {cli._format_state(shot.final_state)}")
    return "\n".join(lines) + "\n"


class TestShotJson:
    # Floats whose repr forms random programs need not reach: a signed zero, the least
    # subnormal, exponents on either side, and a sum that is not its decimal.
    ODD = core.TwoQubitState(complex(-0.0, 5e-324), complex(1e-07, 1e16), complex(0.1 + 0.2, -0.0), 0j)
    PLAIN = core.TwoQubitState(0j, 1 + 0j, 0j, 0j)

    def assert_matches_json_dumps(self, shot, index):
        before, after = cli._shot_json(shot)
        entry = {
            "shot": index,
            "records": [_reference_record_payload(r) for r in shot.records],
            "final_state": [x for g in shot.final_state.amplitudes for x in (g.real, g.imag)],
        }
        # The entry as an item of the report's top-level "trace" list.
        expected = json.dumps({"trace": [entry]}, indent=2, sort_keys=True)
        assert '{\n  "trace": [\n    ' + before + str(index) + after + "\n  ]\n}" == expected

    def test_leaves_match_json_dumps(self):
        # Fields in order: step, kind, particle, outcome, probability, projected_norm, post_state.
        records = (
            engine.MeasurementRecord(0, "relative", None, RelativeBit.SAME, 0.1 + 0.2, 1e-07, self.ODD),
            engine.MeasurementRecord(1, "relative", None, RelativeBit.DIFFERENT, 1.0, 1.0, self.PLAIN),
            engine.MeasurementRecord(2, "value", "A", 0, 5e-324, -0.0, self.PLAIN),
            engine.MeasurementRecord(13, "value", "B", 1, 1e16, 0.7071067811865476, self.ODD),
        )
        for shot_records in ((), records[:1], records):
            for final in (self.ODD, self.PLAIN):
                self.assert_matches_json_dumps(engine.ShotResult(shot_records, final), 4096)


class TestTraceRendering:
    def assert_matches_reference(self, capsys, path, program, shots, seed):
        for flags, output_format in (((), "text"), (("--format", "json"), "json")):
            code, out, _ = invoke(capsys, ["run", path, "--trace", "--shots", str(shots), "--seed", str(seed), *flags])
            assert code == 0
            assert out == _reference_trace_stdout(program, shots, seed, output_format)

    def test_random_programs_match_the_per_shot_renderer(self, tmp_path, capsys):
        shot_counts = (1, engine._BULK_MIN_SHOTS - 1, engine._BULK_MIN_SHOTS, 2 * engine._BULK_MIN_SHOTS + 5)
        path = str(tmp_path / "random.bk")
        for index in range(200):
            program = random_program(np.random.default_rng(index))
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(circuit.format_program(program))
            shots = shot_counts[index % len(shot_counts)]
            self.assert_matches_reference(capsys, path, program, shots, program.seed)

    def test_program_past_the_node_budget_matches(self, tmp_path, capsys):
        # Shots past the budget reach leaves that are stored nowhere: each is its own object.
        source = "prepare bell-random-sign phi\n" + "apply bellop\nmeasure value A\napply bellop\nmeasure value B\n" * 10
        program, _ = circuit.parse(source)
        shots, seed = 400, 9
        assert len({id(shot) for shot in run(program, shots, seed, keep_results=True).results}) > 1
        self.assert_matches_reference(capsys, write(tmp_path, "deep.bk", source), program, shots, seed)

    def test_measurement_free_program_matches(self, tmp_path, capsys):
        source = "prepare bell-random-sign psi s0=0.6\napply bellop\n"
        program, _ = circuit.parse(source)
        path = write(tmp_path, "free.bk", source)
        for seed in range(4):
            self.assert_matches_reference(capsys, path, program, engine._BULK_MIN_SHOTS + 6, seed)

    def assert_seams_match(self, capsys, path, source):
        # A report is written a chunk of shots at a time: entries on either side of a seam must splice.
        program, _ = circuit.parse(source)
        chunk = cli._TRACE_CHUNK_SHOTS
        for shots in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            self.assert_matches_reference(capsys, path, program, shots, 5)

    def test_runs_at_chunk_seams_match(self, tmp_path, capsys):
        for number, source in enumerate((SAMPLED, "prepare bell-random-sign psi s0=0.6\napply bellop\n")):
            self.assert_seams_match(capsys, write(tmp_path, f"seam{number}.bk", source), source)

    def test_program_past_the_node_budget_matches_at_chunk_seams(self, tmp_path, capsys, monkeypatch):
        # Every shot of this program reaches its own leaf, at about 1 ms a shot to run and render:
        # a small chunk and node budget put its seams past the budget within 129 shots.
        monkeypatch.setattr(cli, "_TRACE_CHUNK_SHOTS", 64)
        monkeypatch.setattr(engine, "NODE_BUDGET", 64)
        source = "prepare bell-random-sign phi\n" + "apply bellop\nmeasure value A\napply bellop\nmeasure value B\n" * 10
        program, _ = circuit.parse(source)
        assert len({id(shot) for shot in run(program, 129, 5, keep_results=True).results}) == 129
        self.assert_seams_match(capsys, write(tmp_path, "deep.bk", source), source)


class _Sink:
    """A stdout that keeps nothing but the number of characters written to it."""

    def __init__(self) -> None:
        self.written = 0

    def write(self, text: str) -> int:
        self.written += len(text)
        return len(text)

    def flush(self) -> None:
        pass


class TestTraceMemory:
    @pytest.mark.parametrize("flags", [(), ("--format", "json")])
    def test_a_report_is_not_held_in_memory(self, monkeypatch, flags):
        sample = str(Path(__file__).resolve().parents[1] / "programs" / "correlated_values.bk")
        sink = _Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = cli.main(["run", sample, "--trace", "--shots", "50000", "--seed", "3", *flags])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and sink.written > 10_000_000
        assert peak < sink.written / 4

    def test_a_leaf_seen_once_is_not_kept_past_its_chunk(self, monkeypatch):
        # Past NODE_BUDGET most shots reach a leaf of their own: keeping every rendering
        # would hold the report a second time.
        monkeypatch.setattr(cli, "_TRACE_CHUNK_SHOTS", 8)
        monkeypatch.setattr(sys, "stdout", _Sink())
        leaves = tuple(object() for _ in range(64))
        entry = 100_000
        tracemalloc.start()
        try:
            cli._write_trace("", leaves, lambda leaf: ("x" * entry, ""), ",", "")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sys.stdout.written > 64 * entry
        assert peak < 3 * 8 * entry  # a chunk's renderings and its write, not all 64


class TestRunFailures:
    def test_missing_file(self, tmp_path, capsys):
        code, out, err = invoke(capsys, ["run", str(tmp_path / "absent.bk")])
        assert code == 1 and out == ""
        assert err.startswith("bellkit: cannot read ")

    def test_parse_errors_go_to_stderr_with_file_prefix(self, tmp_path, capsys):
        path = write(tmp_path, "broken.bk", "prpare basis 00\n")
        code, out, err = invoke(capsys, ["run", path])
        assert code == 2 and out == ""
        assert err == (
            f"{path}:1:1: error: unknown keyword 'prpare'\n"
            f"{path}:1:1: error: missing prepare statement\n"
        )

    def test_validation_error_blocks_execution(self, tmp_path, capsys):
        path = write(tmp_path, "bad.bk", "prepare raw 1 0 1 0 0 0 0 0\nmeasure value A\n")
        code, out, err = invoke(capsys, ["run", path])
        assert code == 2 and out == ""
        assert "error: raw preparation is not normalized" in err

    def test_raw_amplitude_whose_square_overflows_is_a_diagnostic(self, tmp_path, capsys):
        path = write(tmp_path, "huge.bk", "prepare raw 1e200 0 0 0 0 0 0 0\nmeasure value A\n")
        code, out, err = invoke(capsys, ["run", path])
        assert code == 2 and out == ""
        assert err == f"{path}:1:1: error: raw preparation is not normalized (norm inf, tolerance 1e-09)\n"

    def test_an_interrupt_is_one_stderr_line_and_exit_130(self, capsys, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_demo", interrupted)
        try:
            result = invoke(capsys, ["demo"])
        except KeyboardInterrupt:  # uncaught, it would end the whole test session
            pytest.fail("cli.main let a KeyboardInterrupt through")
        assert result == (130, "", "bellkit: interrupted\n")

    def test_invalid_utf8(self, tmp_path, capsys):
        path = tmp_path / "binary.bk"
        path.write_bytes(b"\xffprepare basis 00\n")
        code, out, err = invoke(capsys, ["run", str(path)])
        assert code == 2 and out == ""
        assert err == f"{path}:1:1: error: file is not valid UTF-8 (invalid start byte)\n"

    def test_a_leading_byte_order_mark_is_not_part_of_the_program(self, tmp_path, capsys):
        for source in (SAMPLED, PIPELINE):
            plain, marked = tmp_path / "plain.bk", tmp_path / "marked.bk"
            plain.write_bytes(source.encode())
            marked.write_bytes(b"\xef\xbb\xbf" + source.encode())
            for options in ([], ["--trace"], ["--trace", "--format", "json"]):
                code, out, err = invoke(capsys, ["run", str(marked), *options])
                expected = invoke(capsys, ["run", str(plain), *options])
                assert (code, out, err.replace(str(marked), str(plain))) == expected

    @pytest.mark.parametrize(
        "data, line",
        [(b"prepare basis 00\n\xef\xbb\xbfmeasure value A\n", 2), (b"\xef\xbb\xbf" * 2 + b"measure value A\n", 1)],
    )
    def test_a_byte_order_mark_after_the_first_is_an_error(self, tmp_path, capsys, data, line):
        path = tmp_path / "marked.bk"
        path.write_bytes(data)
        code, out, err = invoke(capsys, ["run", str(path)])
        assert code == 2 and out == ""
        assert err.startswith(f"{path}:{line}:1: error: unknown keyword '\\ufeff")  # as repr escapes it

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["run"],
            ["run", "f.bk", "--shots", "0"],
            ["run", "f.bk", "--shots", "x"],
            ["run", "f.bk", "--seed", "-1"],
            ["run", "f.bk", "--seed", str(2**64)],
            ["run", "f.bk", "--format", "xml"],
            ["sweep", "--points", "1"],
        ],
    )
    def test_usage_errors_exit_1(self, capsys, argv):
        code, _, _ = invoke(capsys, argv)
        assert code == 1

    @pytest.mark.parametrize(
        "option, text",
        [("--shots", "\u0661\u0662"), ("--shots", "1_000"), ("--shots", "+3"), ("--seed", "+3"), ("--seed", "\u0667"),
         ("--seed", "1_0"), ("--workers", "\u0662")],
    )
    def test_non_ascii_integer_options_are_usage_errors(self, tmp_path, capsys, option, text):
        path = write(tmp_path, "ok.bk", SAMPLED)
        code, out, err = invoke(capsys, ["run", path, option, text])
        assert code == 1 and out == ""
        assert err.endswith(f"error: argument {option}: expected an integer, got {text!r}\n")

    def test_help_exits_0(self, capsys):
        code, out, _ = invoke(capsys, ["--help"])
        assert code == 0 and "run" in out and "sweep" in out


class TestParserCache:
    """`main` builds its parser once per process and prints what a fresh parser prints."""

    @staticmethod
    def argv_lists(tmp_path) -> list[list[str]]:
        pipeline, sampled = write(tmp_path, "pipeline.bk", PIPELINE), write(tmp_path, "sampled.bk", SAMPLED)
        broken, missing = write(tmp_path, "broken.bk", "prepare basis 5\n"), str(tmp_path / "missing.bk")
        return [
            ["run", sampled], ["run", pipeline], ["run", sampled, "--trace", "--shots", "5"],
            ["run", pipeline, "--format", "json"], ["run", sampled, "--trace", "--format", "json", "--shots", "3"],
            ["run", sampled, "--shots", "20", "--seed", "3", "--workers", "2"], ["run", broken], ["run", missing],
            ["demo"], ["sweep", "--points", "3", "--shots", "16"],
            ["sweep", "--class", "psi", "--points", "2", "--seed", "5"],
            ["check"], ["--help"], ["run", "--help"], ["sweep", "--help"], [], ["bogus"], ["run"],
            ["run", sampled, "--shots", "x"], ["run", sampled, "--shots", "0"], ["run", sampled, "--shots", "\u0663"],
            ["run", sampled, "--seed", "-1"], ["run", sampled, "--seed", str(2**64)],
            ["run", sampled, "--workers", "1.5"],
            ["run", sampled, "--format", "xml"], ["sweep", "--points", "1"], ["sweep", "--points", "x"],
            ["sweep", "--shots", "0"], ["sweep", "--seed", "x"], ["sweep", "--class", "chi"],
        ]

    def test_a_reused_parser_prints_what_a_fresh_one_prints(self, tmp_path, capsys, monkeypatch):
        cases = self.argv_lists(tmp_path)
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)  # a new parser per call
        fresh = [invoke(capsys, argv) for argv in cases]
        monkeypatch.undo()
        for _ in range(2):  # interleaved: between two calls with one argv list, every other list is parsed
            assert [invoke(capsys, argv) for argv in cases] == fresh
        assert [code for code, _, _ in fresh] == [0] * 6 + [2, 1] + [0] * 7 + [1] * 15
        assert all(err.startswith("usage: bellkit") for _, _, err in fresh[15:])

    def test_three_calls_construct_one_parser(self, capsys, monkeypatch):
        built, init = [], argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._build_parser.cache_clear()
        results = [invoke(capsys, argv) for argv in (["demo"], ["sweep", "--points", "2"], ["bogus"])]
        assert [code for code, _, _ in results] == [0, 0, 1]
        assert built == ["bellkit", "bellkit run", "bellkit demo", "bellkit sweep", "bellkit check"]

    @pytest.mark.parametrize("command", ["run", "demo", "sweep", "check"])
    def test_a_handler_patched_after_the_first_build_is_the_one_called(self, tmp_path, capsys, monkeypatch, command):
        cli._build_parser()
        called = []
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: called.append(args.command) or 42)
        argv = [command, write(tmp_path, "p.bk", PIPELINE)] if command == "run" else [command]
        assert invoke(capsys, argv) == (42, "", "") and called == [command]


class TestCanonicalReader:
    """`main` reads a canonical command line from the parser's flag table: it must read exactly
    those lines, into the namespace parse_args returns, and print what parse_args would lead to."""

    # The canonical form, written out: per subcommand, its positionals, its one-value options and its flags.
    FORM = {
        "run": (1, ("--shots", "--seed", "--format", "--workers"), ("--trace",)),
        "demo": (0, (), ()),
        "sweep": (0, ("--class", "--points", "--shots", "--seed"), ()),
        "check": (0, (), ()),
    }
    VALUES = ("5", "2", "1", "0", "", "x", "1.5", " 5", "٣", "١٢", str(2**64 - 1), str(2**64),
              "-1", "-0", "-", "--", "text", "json", "xml", "phi", "psi", "chi")

    @classmethod
    def canonical(cls, argv) -> bool:
        """Whether `argv` has the canonical form, whatever its values."""
        if not argv or argv[0] not in cls.FORM:
            return False
        positionals, valued, flags = cls.FORM[argv[0]]
        index, found = 1, 0
        while index < len(argv):
            arg = argv[index]
            if arg in valued and index + 1 < len(argv) and not argv[index + 1].startswith("-"):
                index += 2
                continue
            if arg not in flags and arg.startswith("-"):
                return False
            found, index = found + (arg not in flags), index + 1
        return found == positionals

    @classmethod
    def corpus(cls, tmp_path) -> list[list[str]]:
        """Every subcommand with exact, abbreviated, `=`-form, repeated and misplaced options, `--`,
        odd values, wrong positionals and help; TestParserCache's and the usage-error tests' lines."""
        path = write(tmp_path, "sampled.bk", SAMPLED)
        usage = next(m for m in TestRunFailures.test_usage_errors_exit_1.pytestmark if m.name == "parametrize")
        lines = [*TestParserCache.argv_lists(tmp_path), *usage.args[1], [], ["bogus"], ["Run", path], ["ru", path],
                 ["-h"], ["--help", "run"], ["--shots", "5", "run", path], ["--", "run", path]]
        for command, (positionals, valued, flags) in cls.FORM.items():
            files = [path] * positionals
            lines += [[command, *files], [command, *files, "extra"], [command, *files, "-h"], [command, "--help", *files],
                      [command, "--", *files], [command, *files, "--"], [command, "-1"], [command, "-"], [command, ""],
                      [command, *files, "--s", "5"], [command, *files, "--bogus"]]
            for option in valued:
                lines += [[command, *files, option, value] for value in cls.VALUES]
                lines += [[command, option, value, *files] for value in cls.VALUES]
                lines += [[command, *files, option], [command, *files, f"{option}=5"], [command, *files, option[:4], "5"],
                          [command, *files, option, "5", option, "2"], [command, *files, option, "x", option, "2"],
                          [command, option, "2", *files, option, "3"]]
            for flag in flags:
                lines += [[command, *files, flag], [command, flag, *files], [command, *files, flag, flag],
                          [command, *files, f"{flag}=1"], [command, *files, flag[:4]], [command, *files, flag, "x"]]
        lines += [["run", path, "--shots", "5", "--seed", "3", "--trace", "--format", "json"],
                  ["run", "--trace", "--format", "json", "--shots", "5", path, "--seed", "3"],
                  ["run", path, "--shots", "5", "--seed", "3", "--workers", "2"],
                  ["sweep", "--class", "psi", "--points", "3", "--shots", "16", "--seed", "5"]]
        return [list(argv) for argv in dict.fromkeys(map(tuple, lines))]

    @staticmethod
    def parsed(argv):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None

    def test_the_reader_reads_canonical_lines_as_parse_args_does_and_no_others(self, tmp_path, capsys):
        read_lines = 0
        for argv in self.corpus(tmp_path):
            expected, read = self.parsed(argv), cli._read_canonical(argv)
            assert (read is not None) == (expected is not None and self.canonical(argv)), argv
            assert read is None or vars(read) == expected, argv
            read_lines += read is not None
        capsys.readouterr()
        assert read_lines >= 80

    def test_main_prints_the_same_without_the_reader(self, tmp_path, capsys, monkeypatch):
        # Lines that parse to more than 10**4 shots or points are left out: they would run that many.
        cases = [argv for argv in self.corpus(tmp_path) if max((self.parsed(argv) or {}).get(key) or 0
                                                                for key in ("shots", "points")) <= 10**4]
        capsys.readouterr()
        assert len(cases) > 350
        with_reader = [invoke(capsys, argv) for argv in cases]
        monkeypatch.setattr(cli, "_read_canonical", lambda argv: None)
        assert [invoke(capsys, argv) for argv in cases] == with_reader

    @pytest.mark.parametrize("options", [[], ["--trace", "--shots", "3"], ["--shots=3"], ["--sh", "3"], ["-h"]])
    def test_without_argv_main_reads_sys_argv(self, tmp_path, capsys, monkeypatch, options):
        argv = ["run", write(tmp_path, "sampled.bk", SAMPLED), *options]
        monkeypatch.setattr(sys, "argv", ["bellkit", *argv])
        assert invoke(capsys, None) == invoke(capsys, argv)


INVALID = (
    "prepare raw 1 0 1 0 1 0 1 0\nmeasure value A\n",  # norm 2
    "prepare raw 0.1 0 0 0 0 0 0 0\nmeasure value A\n",  # norm 0.1
    "prepare basis 00\napply raw A 2 0 0 0 0 0 2 0\nmeasure value A\n",  # not unitary
    "prepare raw 0.1 0 0 0 0 0 0 0\nshots 0\n",  # two errors and a warning
)


class TestCompileOnce:
    @pytest.mark.parametrize("source", INVALID)
    def test_the_library_rejects_what_the_cli_rejects_with_the_same_diagnostics(self, tmp_path, capsys, source):
        path = write(tmp_path, "invalid.bk", source)
        code, out, err = invoke(capsys, ["run", path])
        assert code == 2 and out == ""
        expected = [line.removeprefix(f"{path}:") for line in err.splitlines()]
        prog, _ = circuit.parse(source)
        for call in (lambda: run(prog, 3), lambda: run_shot(prog, derive_rng(0, 0)), lambda: engine.compile(prog)):
            with pytest.raises(engine.InvalidProgram) as raised:
                call()
            assert [d.render() for d in raised.value.diagnostics] == expected

    def test_bellkit_run_validates_once(self, tmp_path, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "circuit", "validate")
        for source in (DETERMINISTIC, PIPELINE, SAMPLED, INVALID[2], "prepare basis 00\napply\n"):
            path = write(tmp_path, "program.bk", source)
            for options in ([], ["--trace"], ["--trace", "--format", "json"], ["--shots", "17"]):
                calls.clear()
                invoke(capsys, ["run", path, *options])
                assert len(calls) == (0 if circuit.parse(source)[0] is None else 1)  # none if it does not parse


class TestDemoCommand:
    def test_stages_and_labels(self, capsys):
        code, out, err = invoke(capsys, ["demo"])
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 4
        assert [line.split()[0] for line in lines] == ["prepare", "entangle", "flip", "entangle"]
        assert "basis |00>" in lines[0] and lines[0].endswith("rel=Same")
        assert "bell phi+ s0=0.707107" in lines[1] and lines[1].endswith("rel=Same")
        assert "bell psi+ s0=0.707107" in lines[2] and lines[2].endswith("rel=Different")
        assert "basis |01>" in lines[3] and lines[3].endswith("rel=Different")


class TestSweepCommand:
    def test_csv_shape_and_endpoints(self, capsys):
        code, out, err = invoke(capsys, ["sweep", "--points", "5", "--shots", "200", "--seed", "3"])
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "s0,defect,p0_analytic,p0_empirical"
        assert len(lines) == 6
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == ["0", "0.25", "0.5", "0.75", "1"]
        for row in rows:
            s0, defect, p0, empirical = map(float, row)
            assert defect == pytest.approx(s0 * (1 - s0 * s0) ** 0.5, abs=1e-12)
            assert p0 == pytest.approx(s0 * s0, abs=1e-12)
            assert abs(empirical - p0) <= 0.2
        # The endpoint programs are deterministic, so the counts are exact.
        assert rows[0][3] == "0" and rows[4][3] == "1"

    def test_psi_class_flips_the_analytic_curve(self, capsys):
        code, out, _ = invoke(capsys, ["sweep", "--class", "psi", "--points", "3", "--shots", "64"])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [float(row[2]) for row in rows] == pytest.approx([1.0, 0.75, 0.0], abs=1e-12)

    def test_sweep_is_deterministic(self, capsys):
        first = invoke(capsys, ["sweep", "--points", "4", "--shots", "128"])
        second = invoke(capsys, ["sweep", "--points", "4", "--shots", "128"])
        assert first == second


class TestCheckCommand:
    GROUP_NAMES = (
        "lifting-algebra", "unitarity-preservation", "bell-operator-algebra", "projector-completeness",
        "norm-preservation", "bell-family", "factorization", "nearest-product-oracle", "flip-toggle",
        "measurement-theorems", "deterministic-branches", "statistics", "reproducibility",
    )

    def test_all_groups_pass(self, capsys):
        code, out, err = invoke(capsys, ["check"])
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines and all(line.startswith("PASS ") for line in lines)

    def test_prints_every_group_once_in_order(self, capsys):
        code, out, err = invoke(capsys, ["check"])
        assert code == 0 and err == "" and len(checks.GROUPS) == len(self.GROUP_NAMES)
        details = {}
        for line, name in zip(out.splitlines(), self.GROUP_NAMES, strict=True):
            assert line.startswith(f"PASS {name}: ")
            details[name] = line[len(f"PASS {name}: "):]
        assert details.pop("nearest-product-oracle") == "200/200 states agree"
        assert details.pop("deterministic-branches") == "200/200 shots agree"
        assert details.pop("reproducibility") == "repeated runs and per-shot replay identical"
        assert re.fullmatch(
            r"deviations: pairs \d\.\d{4}, weighted A=0 \d\.\d{4}, signs \d\.\d{4} \(all within 4 sigma\)",
            details.pop("statistics"),
        )
        assert len(details) == 9
        for detail in details.values():
            assert re.fullmatch(r"max deviation \d\.\d{3}e[+-]\d\d \(tolerance [0-9e.-]+\)", detail)

    @pytest.mark.parametrize("source, seed, shots", [
        ("prepare bell-random-sign phi\napply flip A\nmeasure relative\n", 22, 10000),
        ("prepare bell-random-sign psi s0=0.3\napply flip B\napply t_minus A\n", 5, 3000),
        ("prepare bell-random-sign phi s0=0.8\nmeasure relative\n", 9, 40),
        ("prepare bell phi +\nmeasure value A\n", 3, 500),
    ])
    def test_sign_counts_weighted_by_state_equal_a_per_shot_classification(self, source, seed, shots):
        program, _ = circuit.parse(source)
        results = run(program, shots=shots, seed=seed, keep_results=True).results
        signs = [0, 0]
        for shot in results:
            classified = classify(shot.final_state)
            if classified.kind != "bell":
                signs = None
                break
            signs[0 if classified.bell.sign == 1 else 1] += 1
        assert checks._bell_sign_counts(results) == signs
        assert signs is None or sum(signs) == shots


class TestEntryPoint:
    def test_module_execution(self):
        env = dict(os.environ, PYTHONPATH=str(Path(bellkit.__file__).resolve().parents[1]))
        demo = subprocess.run(
            [sys.executable, "-m", "bellkit", "demo"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert demo.returncode == 0
        assert len(demo.stdout.splitlines()) == 4
        usage = subprocess.run(
            [sys.executable, "-m", "bellkit"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert usage.returncode == 1

    def test_only_check_imports_the_self_checks(self):
        # run, sweep and demo never use bellkit.checks: importing it would compile it on every start.
        code = "import sys, bellkit.cli; print('bellkit.checks' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(bellkit.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    def test_only_json_output_imports_json(self, capsys):
        # Loading json costs start-up time that no text report needs; a later JSON report still loads it.
        programs = Path(__file__).resolve().parents[1] / "programs"
        argvs = [["run", str(programs / name), *flags] for name in ("pipeline.bk", "skewed_weight.bk")
                 for flags in ((), ("--trace", "--shots", "5"))]
        json_argvs = [[*argv, "--format", "json"] for argv in argvs]
        code = (
            "import sys, numpy\n"
            "if 'json' in sys.modules:\n"
            "    raise SystemExit(99)\n"
            "from bellkit import cli\n"
            f"for argv in {argvs!r}:\n"
            "    cli.main(argv)\n"
            "print('json loaded:', 'json' in sys.modules)\n"
            f"for argv in {json_argvs!r}:\n"
            "    cli.main(argv)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(bellkit.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        if done.returncode == 99:
            pytest.skip("this numpy loads json itself")
        assert done.returncode == 0, done.stderr
        expected = []
        for argv in [*argvs, None, *json_argvs]:
            expected.append("json loaded: False\n" if argv is None else invoke(capsys, argv)[1])
        assert done.stdout == "".join(expected)

    def test_optimized_interpreter_prints_the_same_bytes(self):
        # -O strips asserts: the invariant checks on the run and trace paths must not rely on them.
        sample = Path(__file__).resolve().parents[1] / "programs" / "correlated_values.bk"
        env = dict(os.environ, PYTHONPATH=str(Path(bellkit.__file__).resolve().parents[1]))
        outputs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "bellkit", "run", str(sample)],
                env=env, capture_output=True, timeout=120,
            )
            for flags in ((), ("-O",))
        ]
        assert [done.returncode for done in outputs] == [0, 0]
        assert outputs[0].stdout and outputs[1].stdout == outputs[0].stdout

    def test_check_and_parse_errors_under_the_optimized_interpreter(self):
        # The former asserts in checks.py and circuit.parse: `check` and the parse error paths under -O.
        code = (
            "from bellkit import cli, circuit\n"
            "for source in ('prepare basis 5\\n', 'measure value A\\n'):\n"
            "    print(circuit.parse(source))\n"
            "raise SystemExit(cli.main(['check']))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(bellkit.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        parsed = [repr(circuit.parse(source)) for source in ("prepare basis 5\n", "measure value A\n")]
        lines = done.stdout.splitlines()
        assert lines[:2] == parsed and parsed[0].startswith("(None, [Diagnostic(")
        assert len(lines) == 2 + len(checks.GROUPS) and all(line.startswith("PASS ") for line in lines[2:])

    def test_huge_raw_operator_prints_only_its_diagnostic(self, tmp_path):
        # numpy's overflow and invalid-value warnings from the unitarity check once came first.
        path = write(tmp_path, "huge.bk", "prepare bell phi +\napply raw A 1e200 0 0 0 0 0 1 0\nmeasure value A\n")
        env = dict(os.environ, PYTHONPATH=str(Path(bellkit.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "bellkit", "run", path], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == f"{path}:2:1: error: raw operator is not unitary (tolerance 1e-09)\n"

    def test_a_trace_past_the_memory_limit_is_one_diagnostic(self):
        # A 4 GiB address space fails the 1e11-shot trace's allocation under any overcommit policy.
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        sample = str(Path(__file__).resolve().parents[1] / "programs" / "pipeline.bk")
        env = dict(os.environ, PYTHONPATH=str(Path(bellkit.__file__).resolve().parents[1]))
        done = {
            flags: subprocess.run(
                [sys.executable, "-m", "bellkit", "run", sample, "--shots", "100000000000", *flags],
                env=env, capture_output=True, text=True, timeout=120, preexec_fn=limit,
            )
            for flags in ((), ("--format", "json"), ("--trace",))
        }
        warning = f"{sample}:5:1: warning: program contains no measurements\n"
        assert [each.returncode for each in done.values()] == [0, 0, 1]
        assert done[()].stdout.startswith("shots: 100000000000\n") and json.loads(done[("--format", "json")].stdout)
        traced = done[("--trace",)]
        assert traced.stdout == "" and "Traceback" not in traced.stderr
        assert traced.stderr == warning + "bellkit: out of memory: --trace keeps every shot's result; run fewer --shots\n"

    @pytest.mark.parametrize("shots", [2**60, 2**64])
    def test_a_trace_numpy_cannot_size_is_one_diagnostic(self, tmp_path, capsys, shots):
        # numpy refuses these sizes before it allocates anything: no address-space limit is needed.
        path = write(tmp_path, "deterministic.bk", DETERMINISTIC)
        code, out, err = invoke(capsys, ["run", path, "--trace", "--shots", str(shots)])
        assert (code, out) == (1, "")
        assert err == "bellkit: out of memory: --trace keeps every shot's result; run fewer --shots\n"

    def test_a_closed_stdout_pipe_ends_the_run_quietly(self):
        # The report is megabytes, far past a pipe's buffer: the writer meets the closed pipe mid-print.
        sample = Path(__file__).resolve().parents[1] / "programs" / "correlated_values.bk"
        env = dict(os.environ, PYTHONPATH=str(Path(bellkit.__file__).resolve().parents[1]))
        argv = [sys.executable, "-m", "bellkit", "run", str(sample), "--trace", "--shots", "50000"]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            proc.wait(timeout=120)
        assert first == b"shots: 50000\n"
        assert err == b"" and proc.returncode == 1

    def test_library_has_no_assert_statements(self):
        # python -O strips asserts, so a check written as one vanishes.
        package = Path(bellkit.__file__).resolve().parent
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assert)
        ]
        assert found == []
