"""Workload batches for the bellkit benchmark.

Every batch is a pure function of its workload name and seed: the same pair
gives the same operations and the same generated `.bk` text.  The program
under test sees only that text and the command-line arguments.

A batch is a fixed list of closed-loop operations.  Each one is a `bellkit`
command line, run in-process through `cli.main`; interpreter start and
`import bellkit`, which every CLI call also pays, are timed on their own.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field, replace

WORKLOADS = ("shots", "programs", "trace", "selfcheck")

# Second seed, not used while tuning the benchmark: a claimed gain must also
# hold when the benchmark is run with it.
HELD_OUT_SEED = 20061

# Generated files go here, relative to the checkout root.
WORK_DIR = ".bench_build/bellkit-bench"

# Names printed by `bellkit check`, in order (one PASS line per group).
CHECK_GROUPS = (
    "lifting-algebra",
    "unitarity-preservation",
    "bell-operator-algebra",
    "projector-completeness",
    "norm-preservation",
    "bell-family",
    "factorization",
    "nearest-product-oracle",
    "flip-toggle",
    "measurement-theorems",
    "deterministic-branches",
    "statistics",
    "reproducibility",
)

PROGRAMS_PER_BATCH = 1000
SAMPLES = (
    "programs/correlated_values.bk",
    "programs/skewed_weight.bk",
    "programs/flip_relative.bk",
    "programs/pipeline.bk",
)
SWEEP_POINTS = 11
SWEEP_SHOTS = 256


@dataclass(frozen=True)
class Op:
    """One operation of a batch and what its output must satisfy.

    `kind` selects the output check (see verify.py):
      counts      `run` in text format; counts must equal the reference replay
      trace-text  `run --trace`; counts and every per-shot line
      trace-json  `run --trace --format json`; the whole payload
      rejected    a malformed program; exit 2 with exactly `expect_errors`
      check       `check`; exit 0 and one PASS line per group
      sweep       `sweep`; every row against the reference replay
      demo        `demo`; exit 0 and the four pipeline stages
    """

    argv: tuple[str, ...]
    kind: str
    source: str = ""  # .bk text of a `run` operation
    shots: int = 0  # shots the operation asks the engine for
    seed: int = 0  # master seed of a `run` or `sweep` operation
    expect_errors: tuple[str, ...] = ()  # "LINE:COL: error: MESSAGE"
    extra: tuple = ()  # sweep: (bell_class, points)

    @property
    def runs_program(self) -> bool:
        """Parsed, validated, run and rendered through `bellkit run`."""
        return self.kind in ("counts", "trace-text", "trace-json")


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    ops: tuple[Op, ...]
    files: dict = field(default_factory=dict)  # relative path -> text

    @property
    def shots(self) -> int:
        return sum(op.shots for op in self.ops)

    @property
    def program_runs(self) -> int:
        return sum(1 for op in self.ops if op.runs_program or op.kind == "rejected")


def _rng(name: str, seed: int) -> random.Random:
    # String seeding hashes with SHA-512, so it does not depend on PYTHONHASHSEED.
    return random.Random(f"bellkit-bench/{name}/{seed}")


def _master_seed(rng: random.Random) -> int:
    # Half the seeds need a second 32-bit entropy word in SeedSequence.
    return rng.getrandbits(64) if rng.random() < 0.5 else rng.getrandbits(32)


def _real(x: float) -> str:
    return format(x, ".17g")


def _complex_text(values) -> str:
    return " ".join(f"{_real(z.real)} {_real(z.imag)}" for z in values)


def _raw_state(rng: random.Random) -> str:
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
    n = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return "prepare raw " + _complex_text(a / n for a in amps)


def _raw_unitary(rng: random.Random, particle: str) -> str:
    theta = rng.uniform(0.2, math.pi / 2 - 0.2)  # keeps both outcomes likely
    a = math.cos(theta) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    b = math.sin(theta) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    g = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    entries = (a, b, -b.conjugate() * g, a.conjugate() * g)
    return f"apply raw {particle} " + _complex_text(entries)


def _s0_suffix(rng: random.Random) -> str:
    return "" if rng.random() < 0.3 else f" s0={_real(rng.uniform(0.05, 0.95))}"


def _preparation(rng: random.Random, kinds: tuple[str, ...]) -> str:
    kind = rng.choice(kinds)
    cls = rng.choice(("phi", "psi"))
    if kind == "basis":
        return f"prepare basis {rng.choice(('00', '01', '10', '11'))}"
    if kind == "bell":
        return f"prepare bell {cls} {rng.choice('+-')}{_s0_suffix(rng)}"
    if kind == "sign":
        return f"prepare bell-random-sign {cls}{_s0_suffix(rng)}"
    return _raw_state(rng)


def _step(rng: random.Random) -> str:
    particle = rng.choice("AB")
    roll = rng.randrange(6)
    if roll == 0:
        return f"apply {rng.choice(('identity', 'flip', 't_plus', 't_minus'))} {particle}"
    if roll == 1:
        return "apply bellop"
    if roll == 2:
        return _raw_unitary(rng, particle)
    if roll == 3:
        return "measure relative"
    return f"measure value {particle}"


def sampling_program(rng: random.Random, prep: str, measurements: int, shots: int, seed: int) -> str:
    """A program where every measurement but the last is preceded by a raw unitary.

    The unitary puts the measured particle (or the pair) back into a
    superposition, so those measurements are probabilistic and draw.  The
    program ends with value measurements of both particles and a relative
    measurement, which is then deterministic and draws nothing.
    """
    lines = [_preparation(rng, (prep,))]
    for index in range(measurements):
        particle = rng.choice("AB")
        lines.append(_raw_unitary(rng, particle))
        if index % 3 == 2:
            lines.append("apply bellop")
            lines.append("measure relative")
        else:
            lines.append(f"measure value {particle}")
    lines += ["measure value A", "measure value B", "measure relative", f"shots {shots}", f"seed {seed}"]
    return "\n".join(lines) + "\n"


def _small_program(rng: random.Random) -> tuple[list[str], int, int]:
    """Statement lines, shots and seed of a small valid program (1-8 shots)."""
    lines = [_preparation(rng, ("basis", "bell", "sign", "raw"))]
    lines += [_step(rng) for _ in range(rng.randrange(7))]
    shots = rng.randint(1, 8)
    lines.append(f"shots {shots}")
    seed = _master_seed(rng) if rng.random() < 0.8 else 0
    if seed:
        lines.append(f"seed {seed}")
    return lines, shots, seed


# Malformed variants: each plants one error whose diagnostic is known exactly.
def _plant_error(rng: random.Random, lines: list[str]) -> tuple[list[str], str]:
    kind = rng.randrange(8)
    at = rng.randint(2, len(lines))  # 1-based line of an inserted statement
    if kind == 0:
        return _insert(lines, at, "mesure value A"), f"{at}:1: error: unknown keyword 'mesure'"
    if kind == 1:
        return _insert(lines, at, "measure value C"), f"{at}:15: error: expected particle A or B, got 'C'"
    if kind == 2:
        return lines + ["shots 3"], f"{len(lines) + 1}:1: error: duplicate shots statement"
    if kind == 3:
        return _insert(lines, at, "seed 12x"), f"{at}:6: error: malformed number for seed: '12x'"
    if kind == 4:
        return lines[1:], "1:1: error: missing prepare statement"
    if kind == 5:
        return (
            _insert(lines, at, "apply raw A 1 0 1 0 0 0 1 0"),
            f"{at}:1: error: raw operator is not unitary (tolerance 1e-09)",
        )
    if kind == 6:
        return (
            ["prepare raw 1 0 1 0 0 0 0 0"] + lines[1:],
            "1:1: error: raw preparation is not normalized (norm 1.4142135623730951, tolerance 1e-09)",
        )
    return (
        _insert(lines, at, "apply hadamard B"),
        f"{at}:7: error: unknown operator 'hadamard' (expected identity|flip|t_plus|t_minus|bellop|raw)",
    )


def _insert(lines: list[str], at: int, statement: str) -> list[str]:
    return lines[: at - 1] + [statement] + lines[at - 1 :]


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _run_op(path: str, source: str, shots: int, seed: int, *flags: str) -> Op:
    kind = "counts"
    if "--trace" in flags:
        kind = "trace-json" if "json" in flags else "trace-text"
    argv = ("run", path, "--shots", str(shots), "--seed", str(seed), *flags)
    return Op(argv=argv, kind=kind, source=source, shots=shots, seed=seed)


def _shots(seed: int) -> Workload:
    """Sampling-heavy `bellkit run` calls; the per-shot engine does the work."""
    rng = _rng("shots", seed)
    base = f"{WORK_DIR}/shots-{seed}"
    files = {
        f"{base}/deep{i}.bk": sampling_program(rng, prep, measurements=3, shots=300, seed=0)
        for i, prep in enumerate(("sign", "raw", "sign", "raw"))
    }
    # Shot counts give every operation about the same time, so the median
    # latency does not jump between operation kinds from one seed to the next.
    runs = [(SAMPLES[0], 500), (SAMPLES[1], 750), (SAMPLES[2], 2400)] * 4
    runs += [(path, 225) for path in files]
    ops = [_run_op(path, files.get(path) or _read(path), shots, _master_seed(rng)) for path, shots in runs]
    # A pool run and its serial twin, with the same arguments: stdout must match.
    serial = _run_op(SAMPLES[0], _read(SAMPLES[0]), 2000, _master_seed(rng))
    ops += [serial, replace(serial, argv=serial.argv + ("--workers", "2"))]
    return Workload("shots", seed, tuple(ops), files)


def _programs(seed: int) -> Workload:
    """Many distinct small programs through `cli.main`; about a tenth malformed."""
    rng = _rng("programs", seed)
    base = f"{WORK_DIR}/programs-{seed}"
    bad = set(rng.sample(range(PROGRAMS_PER_BATCH), PROGRAMS_PER_BATCH // 10))
    files, ops = {}, []
    for index in range(PROGRAMS_PER_BATCH):
        lines, shots, program_seed = _small_program(rng)
        path = f"{base}/p{index:04d}.bk"
        if index in bad:
            lines, error = _plant_error(rng, lines)
            source = "\n".join(lines) + "\n"
            ops.append(Op(argv=("run", path), kind="rejected", source=source, expect_errors=(error,)))
        else:
            if rng.random() < 0.2:
                lines.insert(0, "# generated program")
            source = ("\r\n" if rng.random() < 0.1 else "\n").join(lines) + "\n"
            ops.append(Op(argv=("run", path), kind="counts", source=source, shots=shots,
                          seed=program_seed))
        files[path] = source
    return Workload("programs", seed, tuple(ops), files)


def _trace(seed: int) -> Workload:
    """`run --trace` in JSON and text: every ShotResult is kept and rendered."""
    rng = _rng("trace", seed)
    base = f"{WORK_DIR}/trace-{seed}"
    files = {
        f"{base}/traced{i}.bk": sampling_program(rng, prep, measurements=1, shots=1024, seed=0)
        for i, prep in enumerate(("sign", "raw", "sign", "raw"))
    }
    # A text report costs less than a JSON one.  Two small text reports below
    # the four small JSON ones and two large reports above them put the
    # median latency in the middle of the small JSON reports, not at an edge.
    ops = []
    for index, (path, source) in enumerate(files.items()):
        master = _master_seed(rng)
        ops.append(_run_op(path, source, 400, master, "--trace", "--format", "json"))
        if index < 2:
            ops.append(_run_op(path, source, 400, master, "--trace"))
    # Large reports, so that keeping every ShotResult shows in peak memory.
    path, source = next(iter(files.items()))
    ops.append(_run_op(path, source, 1000, _master_seed(rng), "--trace", "--format", "json"))
    ops.append(_run_op(path, source, 1000, _master_seed(rng), "--trace"))
    return Workload("trace", seed, tuple(ops), files)


def _selfcheck(seed: int) -> Workload:
    """`check`, `sweep` of both classes, `demo`, and the measurement-free sample program."""
    rng = _rng("selfcheck", seed)
    ops = [Op(argv=("check",), kind="check")]
    # A psi sweep needs the second projector of a value measurement less often
    # than a phi sweep, so it is the faster of the two; with two of them among
    # the six operations, the median latency is a psi sweep's.
    for bell_class in ("phi", "psi", "psi"):
        sweep_seed = rng.getrandbits(32)
        ops.append(Op(
            argv=("sweep", "--class", bell_class, "--points", str(SWEEP_POINTS),
                  "--shots", str(SWEEP_SHOTS), "--seed", str(sweep_seed)),
            kind="sweep",
            shots=SWEEP_POINTS * SWEEP_SHOTS,
            seed=sweep_seed,
            extra=(bell_class, SWEEP_POINTS),
        ))
    ops.append(Op(argv=("demo",), kind="demo"))
    ops.append(_run_op(SAMPLES[3], _read(SAMPLES[3]), 256, _master_seed(rng)))
    return Workload("selfcheck", seed, tuple(ops))


_BATCHES = {"shots": _shots, "programs": _programs, "trace": _trace, "selfcheck": _selfcheck}


def build(name: str, seed: int) -> Workload:
    """The batch of workload `name` for `seed`; reads the sample programs."""
    return _BATCHES[name](seed)
