"""Command-line behavior: output shapes, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellkit
from bellkit import cli

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

    def test_invalid_utf8(self, tmp_path, capsys):
        path = tmp_path / "binary.bk"
        path.write_bytes(b"\xffprepare basis 00\n")
        code, out, err = invoke(capsys, ["run", str(path)])
        assert code == 2 and out == ""
        assert err == f"{path}:1:1: error: file is not valid UTF-8 (invalid start byte)\n"

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

    def test_help_exits_0(self, capsys):
        code, out, _ = invoke(capsys, ["--help"])
        assert code == 0 and "run" in out and "sweep" in out


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
    def test_all_groups_pass(self, capsys):
        code, out, err = invoke(capsys, ["check"])
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines and all(line.startswith("PASS ") for line in lines)


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
