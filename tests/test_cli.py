"""Command-line behavior: output shapes, exit codes, reproducibility."""

import ast
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import count_calls, random_program

import bellkit
from bellkit import checks, circuit, cli, engine
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
        trees = []

        class CountingTree(engine._BranchTree):
            def __init__(self, *args, **kwargs):
                trees.append(self)
                super().__init__(*args, **kwargs)

        signs = set()
        for seed in range(8):
            for shots in (1, engine._BULK_MIN_SHOTS + 1):
                expected = cli._format_state(run_shot(prog, derive_rng(seed, 0)).final_state)
                monkeypatch.setattr(engine, "_BranchTree", CountingTree)
                trees.clear()
                code, out, _ = invoke(capsys, ["run", path, "--seed", str(seed), "--shots", str(shots)])
                monkeypatch.undo()
                assert code == 0 and len(trees) == 1
                assert f"final state: {expected}" in out.splitlines()
                signs.add(expected.split()[-1])
            if seed == 1:
                assert "-0.707107+0.000000i" in out
        assert signs == {"0.707107+0.000000i", "-0.707107+0.000000i"}

    def test_a_run_of_1e11_shots_prints_its_report(self, tmp_path, capsys):
        # No shot but shot 0 runs: keeping one result per shot once ended in numpy's _ArrayMemoryError.
        shots = "100000000000"
        sample = str(Path(__file__).resolve().parents[1] / "programs" / "pipeline.bk")
        code, out, _ = invoke(capsys, ["run", sample, "--shots", shots])
        assert code == 0
        assert out == (
            f"shots: {shots}\nseed: 0\n\noutcome         count  frequency\nnone     {shots}  1.000000\n\n"
            "final state: 0.000000+0.000000i 1.000000+0.000000i 0.000000+0.000000i 0.000000+0.000000i\n"
            "classification: basis |01>\nrelative bit: Different\n"
        )
        code, out, _ = invoke(capsys, ["run", write(tmp_path, "sign.bk", self.SOURCE), "--shots", shots, "--format", "json"])
        assert code == 0 and json.loads(out) == {"shots": int(shots), "seed": 0, "counts": {"none": int(shots)}}


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
        demo = subprocess.run(
            [sys.executable, "-m", "bellkit", "demo"],
            capture_output=True, text=True, timeout=120,
        )
        assert demo.returncode == 0
        assert len(demo.stdout.splitlines()) == 4
        usage = subprocess.run(
            [sys.executable, "-m", "bellkit"],
            capture_output=True, text=True, timeout=120,
        )
        assert usage.returncode == 1

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
