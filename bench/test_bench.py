"""Tests of the benchmark harness itself.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest

import run
import verify
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def bellkit():
    return run._import_bellkit()


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)  # sample programs are read by relative path


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_programs(name):
    first, again = workloads.build(name, 11), workloads.build(name, 11)
    assert first == again
    other = workloads.build(name, 12)
    assert [op.argv for op in other.ops] != [op.argv for op in first.ops]


def test_programs_workload_is_a_tenth_malformed():
    ops = workloads.build("programs", 3).ops
    assert len(ops) == workloads.PROGRAMS_PER_BATCH
    assert sum(op.kind == "rejected" for op in ops) == len(ops) // 10


def test_metric_names_and_units_match_the_spec():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for name in [*run.END_TO_END, *run.PER_LAYER, *(w["name"] for w in SPEC["workloads"])]:
        assert NAME.fullmatch(name), name


class _Runner(run.Runner):
    """Can corrupt one operation's stdout; set-up is not timed."""

    def __init__(self, bellkit, corrupt: str = "") -> None:
        super().__init__(bellkit)
        self.corrupt = corrupt

    def in_process(self, argv) -> run.Result:
        result = super().in_process(argv)
        if self.corrupt and self.corrupt in argv:
            result.stdout = result.stdout.replace(b"rel=Different", b"rel=Same")
        return result

    def setup_s(self) -> tuple[float, float]:
        return 0.25, 0.2


def _small_workload() -> workloads.Workload:
    ops = workloads.build("shots", 5).ops
    flip = next(op for op in ops if "programs/flip_relative.bk" in op.argv)
    value = next(op for op in ops if "programs/skewed_weight.bk" in op.argv)
    return workloads.Workload("shots", 5, (replace(flip, argv=flip.argv[:3] + ("300",) + flip.argv[4:], shots=300),
                                           replace(value, argv=value.argv[:3] + ("200",) + value.argv[4:], shots=200)))


def test_correct_outputs_pass(bellkit):
    metrics, _, _, attempted, failures = run.untraced(
        _Runner(bellkit), verify.Verifier(bellkit), _small_workload(), 0)
    assert failures == [] and attempted == 2
    assert all(NAME.fullmatch(name) and m["value"] > 0 for name, m in metrics.items())


def test_wrong_output_counts_as_failed(bellkit):
    runner = _Runner(bellkit, corrupt="programs/flip_relative.bk")
    _, _, _, attempted, failures = run.untraced(runner, verify.Verifier(bellkit), _small_workload(), 0)
    assert attempted == 2
    assert len(failures) == 1 and "flip_relative" in failures[0]


def test_changed_repetition_counts_as_failed(bellkit):
    class Flaky(_Runner):
        calls = 0

        def in_process(self, argv) -> run.Result:
            result = super().in_process(argv)
            self.calls += 1
            if self.calls == 3:  # the first operation of the second batch
                result.stdout += b"\n"
            return result

    _, _, samples, attempted, failures = run.untraced(Flaky(bellkit), verify.Verifier(bellkit), _small_workload(), 1)
    assert samples["batches"] >= 2 and attempted == 2 * samples["batches"]
    assert len(failures) == 1 and "output changed between repetitions" in failures[0]


def test_wrong_diagnostic_counts_as_failed(bellkit):
    op = next(op for op in workloads.build("programs", 3).ops if op.kind == "rejected")
    checker = verify.Verifier(bellkit)
    stderr = f"{op.argv[1]}:1:1: error: something else\n".encode()
    assert checker.check(op, 2, b"", stderr) is not None
    assert checker.check(op, 0, b"", b"") is not None


def test_traced_run_reports_every_layer_metric(bellkit, tmp_path):
    runner = _Runner(bellkit)
    metrics, extra, _, attempted, failures = run.traced(runner, verify.Verifier(bellkit), _small_workload(), tmp_path)
    assert failures == [] and attempted == 6
    assert set(metrics) == set(run.PER_LAYER)
    assert all(m["value"] > 0 for m in metrics.values())
    assert all(NAME.fullmatch(name) for name in extra)
    assert (tmp_path / "spans-shots.npz").is_file()
