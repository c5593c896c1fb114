"""Output checks for the bellkit benchmark.

Every check compares what bellkit printed against an independent reference:
the documented per-shot replay `derive_rng(seed, i) -> run_shot ->
outcome_key`, the canonical round trip `parse(format_program(p)) == p`, or
the fixed text of a diagnostic.  The replay uses only the public per-shot
entry points, so it stays valid when `engine.run` gets a faster inner loop.

Checks return None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from workloads import CHECK_GROUPS, Op


class CountingStream:
    """Random stream that counts the uniforms a shot draws."""

    def __init__(self, rng) -> None:
        self._rng = rng
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self._rng.random()


@dataclass
class Replay:
    """Reference results of one (program, shots, seed) and their counts."""

    counts: dict
    results: list
    draws: int = 0
    measurements: int = 0
    deterministic: int = 0  # measurements taken with probability exactly 1


@dataclass
class Tally:
    """Exact counts over every replay of a run; independent of timing."""

    shots: int = 0
    draws: int = 0
    measurements: int = 0
    deterministic: int = 0
    outcome_keys: int = 0  # distinct counts keys, summed over replays
    programs: int = 0
    steps: int = 0
    bad_programs: int = 0
    diagnostics: int = 0

    def add(self, replay: Replay, shots: int) -> None:
        self.shots += shots
        self.draws += replay.draws
        self.measurements += replay.measurements
        self.deterministic += replay.deterministic
        self.outcome_keys += len(replay.counts)


class Verifier:
    """Checks operation outputs; replays each distinct run once."""

    def __init__(self, bellkit) -> None:
        self.bk = bellkit
        self.tally = Tally()
        self._replays: dict = {}

    def replay(self, source: str, program, shots: int, seed: int, keep: bool) -> Replay:
        key = (source, shots, seed)
        cached = self._replays.get(key)
        if cached is not None and (cached.results or not keep):
            return cached
        engine = self.bk.engine  # attribute lookups, so traced wrappers apply
        replay = Replay(counts={}, results=[])
        for index in range(shots):
            stream = CountingStream(engine.derive_rng(seed, index))
            shot = engine.run_shot(program, stream)
            outcome = engine.outcome_key(shot.records)
            replay.counts[outcome] = replay.counts.get(outcome, 0) + 1
            replay.draws += stream.draws
            replay.measurements += len(shot.records)
            replay.deterministic += sum(1 for r in shot.records if r.probability == 1.0)
            if keep:
                replay.results.append(shot)
        if cached is None:
            self.tally.add(replay, shots)
        self._replays[key] = replay
        return replay

    def program(self, source: str):
        """Parse a generated or sample program and check its canonical round trip."""
        circuit = self.bk.circuit
        program, diags = circuit.parse(source)
        if program is None:
            raise ValueError(f"benchmark input does not parse: {diags[0].render()}")
        again, _ = circuit.parse(circuit.format_program(program))
        if again != program:
            raise ValueError("parse(format_program(p)) != p")
        self.tally.programs += 1
        self.tally.steps += len(program.steps)
        return program

    def check(self, op: Op, exit_code: int, stdout: bytes, stderr: bytes) -> Optional[str]:
        try:
            if op.kind == "rejected":
                return self._rejected(op, exit_code, stderr)
            if exit_code != 0:
                return f"exit code {exit_code}: {stderr.decode(errors='replace').strip()[:200]}"
            text = stdout.decode("utf-8")
            return getattr(self, "_" + op.kind.replace("-", "_"))(op, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"output check raised {type(exc).__name__}: {exc}"

    # --- one method per Op.kind -------------------------------------------

    def _counts(self, op: Op, text: str) -> Optional[str]:
        program = self.program(op.source)
        replay = self.replay(op.source, program, op.shots, op.seed, keep=False)
        counts, rest = _counts_table(text, op.shots, op.seed)
        if counts != replay.counts:
            return f"counts {counts} != reference {replay.counts}"
        if list(replay.counts) == ["none"]:
            # Measurement-free: the text reports shot 0's final state.
            shot = self.bk.engine.run_shot(program, self.bk.engine.derive_rng(op.seed, 0))
            expected = f"final state: {_state_text(shot.final_state)}"
            if len(rest) < 2 or rest[1] != expected:
                return f"final state line {rest[1:2]} != {expected!r}"
        return None

    def _trace_text(self, op: Op, text: str) -> Optional[str]:
        program = self.program(op.source)
        replay = self.replay(op.source, program, op.shots, op.seed, keep=True)
        counts, rest = _counts_table(text, op.shots, op.seed)
        if counts != replay.counts:
            return f"counts {counts} != reference {replay.counts}"
        expected = ["", "trace:"]
        for index, shot in enumerate(replay.results):
            expected.append(f"shot {index}:")
            for r in shot.records:
                token = f"rel={r.outcome.value}" if r.kind == "relative" else f"{r.particle}={r.outcome}"
                expected.append(
                    f"  step {r.step_index} {r.kind} {token} p={r.probability:.6f}"
                    f" norm={r.projected_norm:.6f} post {_state_text(r.post_state)}"
                )
            expected.append(f"  final {_state_text(shot.final_state)}")
        if rest != expected:
            bad = next(i for i, (a, b) in enumerate(zip(rest + [None], expected + [None])) if a != b)
            return f"trace line {bad}: {rest[bad:bad + 1]} != {expected[bad:bad + 1]}"
        return None

    def _trace_json(self, op: Op, text: str) -> Optional[str]:
        program = self.program(op.source)
        replay = self.replay(op.source, program, op.shots, op.seed, keep=True)
        payload = json.loads(text)
        if (payload["shots"], payload["seed"]) != (op.shots, op.seed):
            return f"header {payload['shots']}/{payload['seed']} != {op.shots}/{op.seed}"
        if payload["counts"] != replay.counts:
            return f"counts {payload['counts']} != reference {replay.counts}"
        if len(payload["trace"]) != op.shots:
            return f"{len(payload['trace'])} trace entries for {op.shots} shots"
        for index, (entry, shot) in enumerate(zip(payload["trace"], replay.results)):
            expected = {
                "shot": index,
                "records": [_record_payload(r) for r in shot.records],
                "final_state": _state_floats(shot.final_state),
            }
            if entry != expected:
                return f"trace entry {index} differs from the reference shot"
        return None

    def _rejected(self, op: Op, exit_code: int, stderr: bytes) -> Optional[str]:
        if exit_code != 2:
            return f"malformed program exited {exit_code}, expected 2"
        path = op.argv[1]
        errors = [
            line[len(path) + 1:]
            for line in stderr.decode("utf-8").splitlines()
            if line.startswith(path + ":") and ": error: " in line
        ]
        self.tally.bad_programs += 1
        self.tally.diagnostics += len(errors)
        if tuple(errors) != op.expect_errors:
            return f"diagnostics {errors} != expected {list(op.expect_errors)}"
        return None

    def _check(self, op: Op, text: str) -> Optional[str]:
        lines = text.splitlines()
        names = tuple(line.split(":")[0].split(" ", 1)[-1] for line in lines)
        if names != CHECK_GROUPS or not all(line.startswith("PASS ") for line in lines):
            return f"check printed {lines}"
        if len(self.bk.checks.GROUPS) != len(CHECK_GROUPS):
            return f"checks.GROUPS has {len(self.bk.checks.GROUPS)} groups"
        return None

    def _sweep(self, op: Op, text: str) -> Optional[str]:
        bell_class, points = op.extra
        shots = op.shots // points
        lines = text.splitlines()
        if lines[0] != "s0,defect,p0_analytic,p0_empirical" or len(lines) != points + 1:
            return f"sweep printed {len(lines)} lines"
        bell = self.bk.bell
        for index, row in enumerate(lines[1:]):
            s0 = index / (points - 1)
            source = f"prepare bell {bell_class} + s0={s0!r}\nmeasure value A\n"
            state = bell.bell_state(bell.BellDescriptor(bell_class, 1, s0))
            replay = self.replay(source, self.program(source), shots, (op.seed + index) % 2**64, keep=False)
            p0 = s0 * s0 if bell_class == "phi" else 1.0 - s0 * s0
            expected = ",".join(
                format(x, ".17g")
                for x in (s0, bell.separability_defect(state), p0, replay.counts.get("A=0", 0) / shots)
            )
            if row != expected:
                return f"sweep row {index}: {row!r} != {expected!r}"
        return None

    def _demo(self, op: Op, text: str) -> Optional[str]:
        stages = [line.split("  ")[0].strip() for line in text.splitlines()]
        if stages != ["prepare", "entangle", "flip A", "entangle"]:
            return f"demo stages {stages}"
        return None


def _counts_table(text: str, shots: int, seed: int) -> tuple[dict, list]:
    """Counts of a text report, after checking its header and frequencies."""
    lines = text.rstrip("\n").split("\n")
    if lines[:3] != [f"shots: {shots}", f"seed: {seed}", ""] or lines[3].split() != ["outcome", "count", "frequency"]:
        raise ValueError(f"report header {lines[:4]}")
    counts = {}
    end = 4
    while end < len(lines) and lines[end]:
        key, count, frequency = lines[end].split()
        counts[key] = int(count)
        if frequency != f"{int(count) / shots:.6f}":
            raise ValueError(f"frequency {frequency} for {count}/{shots}")
        end += 1
    return counts, lines[end:]


def _state_text(state) -> str:
    return " ".join(f"{z.real:.6f}{z.imag:+.6f}i" for z in state.amplitudes)


def _state_floats(state) -> list:
    return [x for z in state.amplitudes for x in (z.real, z.imag)]


def _record_payload(r) -> dict:
    return {
        "step": r.step_index,
        "kind": r.kind,
        "particle": r.particle,
        "outcome": r.outcome.value if r.kind == "relative" else r.outcome,
        "probability": r.probability,
        "projected_norm": r.projected_norm,
        "post_state": _state_floats(r.post_state),
    }
