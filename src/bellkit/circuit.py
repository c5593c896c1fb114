"""Line-oriented circuit language: parsing, validation, canonical formatting.

Grammar (one statement per line, tokens separated by whitespace, `#` starts
a comment, UTF-8 text, \\n or \\r\\n line endings):

    prepare basis <00|01|10|11>
    prepare bell <phi|psi> <+|-> [s0=<real>]
    prepare bell-random-sign <phi|psi> [s0=<real>]
    prepare raw <re im re im re im re im>
    apply <identity|flip|t_plus|t_minus> <A|B>
    apply bellop
    apply raw <A|B> <re im re im re im re im>
    measure relative
    measure value <A|B>
    shots <integer>
    seed <integer>

A program has exactly one preparation; shots/seed may appear at most once.
Parsing is all-or-nothing: any error yields diagnostics and no program.
Diagnostics carry 1-based (line, column) positions into the source text.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional, Union

from .bell import BellClass, BellDescriptor
from .core import (
    EPS_NORM,
    EPS_OP,
    INV_SQRT2,
    OPERATOR_NAMES,
    Particle,
    SingleQubitOperator,
    TwoQubitState,
    format_real,
    state_text,
)

__all__ = [
    "DEFAULT_SHOTS",
    "DEFAULT_SEED",
    "DEFAULT_S0",
    "Diagnostic",
    "BasisPreparation",
    "BellPreparation",
    "BellRandomSignPreparation",
    "RawPreparation",
    "Preparation",
    "ApplyNamed",
    "ApplyBellOperator",
    "ApplyRaw",
    "MeasureRelative",
    "MeasureValue",
    "Step",
    "CircuitProgram",
    "parse",
    "validate",
    "format_program",
]

DEFAULT_SHOTS = 1024
DEFAULT_SEED = 0
DEFAULT_S0 = INV_SQRT2
MAX_SEED = 2**64 - 1  # seeds are unsigned 64-bit integers

BASIS_LABELS = ("00", "01", "10", "11")
_TOKEN_RE = re.compile(r"\S+")
# Numbers are ASCII only: int() and float() alone would also take other scripts' digits and `_`.
_INTEGER_RE = re.compile(r"-?[0-9]+")
_REAL_RE = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")

# Source position (line, column), both 1-based; excluded from equality so
# that parse(format_program(p)) == p holds regardless of layout.
_POS = dict(default=(1, 1), compare=False, repr=False)


@dataclass(frozen=True)
class Diagnostic:
    line: int
    column: int
    severity: str  # "error" | "warning"
    message: str

    def render(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


@dataclass(frozen=True)
class BasisPreparation:
    index: int  # 0..3, basis order |00>, |01>, |10>, |11>
    source_pos: tuple[int, int] = field(**_POS)


@dataclass(frozen=True)
class BellPreparation:
    descriptor: BellDescriptor
    source_pos: tuple[int, int] = field(**_POS)


@dataclass(frozen=True)
class BellRandomSignPreparation:
    bell_class: BellClass
    s0: float = DEFAULT_S0
    source_pos: tuple[int, int] = field(**_POS)


@dataclass(frozen=True)
class RawPreparation:
    state: TwoQubitState
    source_pos: tuple[int, int] = field(**_POS)


Preparation = Union[BasisPreparation, BellPreparation, BellRandomSignPreparation, RawPreparation]


@dataclass(frozen=True)
class ApplyNamed:
    name: str  # one of OPERATOR_NAMES
    particle: Particle
    source_pos: tuple[int, int] = field(**_POS)


@dataclass(frozen=True)
class ApplyBellOperator:
    source_pos: tuple[int, int] = field(**_POS)


@dataclass(frozen=True)
class ApplyRaw:
    particle: Particle
    operator: SingleQubitOperator
    source_pos: tuple[int, int] = field(**_POS)


@dataclass(frozen=True)
class MeasureRelative:
    source_pos: tuple[int, int] = field(**_POS)


@dataclass(frozen=True)
class MeasureValue:
    particle: Particle
    source_pos: tuple[int, int] = field(**_POS)


Step = Union[ApplyNamed, ApplyBellOperator, ApplyRaw, MeasureRelative, MeasureValue]


@dataclass(frozen=True)
class CircuitProgram:
    preparation: Preparation
    steps: tuple[Step, ...] = ()
    shots: int = DEFAULT_SHOTS
    seed: int = DEFAULT_SEED
    shots_pos: tuple[int, int] = field(**_POS)
    seed_pos: tuple[int, int] = field(**_POS)

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))


def ascii_integer(text: str) -> Optional[int]:
    """`text` as an int if it is ASCII decimal digits after an optional `-`, else None."""
    if _INTEGER_RE.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    return None


@dataclass(frozen=True)
class _Token:
    text: str
    column: int  # 1-based


def _tokenize(line: str) -> list[_Token]:
    cut = line.find("#")
    if cut != -1:
        line = line[:cut]
    return [_Token(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(line)]


class _LineReader:
    """One statement line plus its diagnostics sink."""

    def __init__(self, tokens: list[_Token], line_no: int, diags: list[Diagnostic]) -> None:
        self.tokens = tokens
        self.line_no = line_no
        self.diags = diags

    def error(self, column: int, message: str) -> None:
        self.diags.append(Diagnostic(self.line_no, column, "error", message))

    def check_arity(self, count: int, usage: str) -> bool:
        if len(self.tokens) == count:
            return True
        if len(self.tokens) < count:
            self.error(self.tokens[-1].column, f"expected: {usage}")
        else:
            self.error(self.tokens[count].column, f"unexpected extra argument; expected: {usage}")
        return False

    def real(self, token: _Token, what: str) -> Optional[float]:
        value = float(token.text) if _REAL_RE.fullmatch(token.text) else math.nan
        if not math.isfinite(value):
            self.error(token.column, f"malformed number for {what}: {token.text!r}")
            return None
        return value

    def integer(self, token: _Token, what: str) -> Optional[int]:
        value = ascii_integer(token.text)
        if value is None:
            self.error(token.column, f"malformed number for {what}: {token.text!r}")
        return value

    def particle(self, token: _Token) -> Optional[Particle]:
        if token.text in ("A", "B"):
            return token.text  # type: ignore[return-value]
        self.error(token.column, f"expected particle A or B, got {token.text!r}")
        return None

    def reals(self, tokens: list[_Token], what: str) -> Optional[list[float]]:
        values = [self.real(t, what) for t in tokens]
        if any(v is None for v in values):
            return None
        return values  # type: ignore[return-value]

    def s0_option(self, token: Optional[_Token]) -> Optional[float]:
        """Parse an optional trailing `s0=<real>`; None token means default."""
        if token is None:
            return DEFAULT_S0
        if not token.text.startswith("s0="):
            self.error(token.column, f"expected s0=<real>, got {token.text!r}")
            return None
        value = self.real(_Token(token.text[3:], token.column), "s0")
        if value is None:
            return None
        if not 0.0 <= value <= 1.0:
            self.error(token.column, f"s0 out of [0, 1]: {format_real(value)}")
            return None
        return value


def _complex_pairs(values: list[float]) -> list[complex]:
    return [complex(values[i], values[i + 1]) for i in range(0, len(values), 2)]


def _parse_prepare(reader: _LineReader) -> Optional[Preparation]:
    tokens = reader.tokens
    pos = (reader.line_no, tokens[0].column)
    if len(tokens) < 2:
        reader.error(tokens[0].column, "expected: prepare <basis|bell|bell-random-sign|raw> ...")
        return None
    kind = tokens[1]
    if kind.text == "basis":
        if not reader.check_arity(3, "prepare basis <00|01|10|11>"):
            return None
        label = tokens[2]
        if label.text not in BASIS_LABELS:
            reader.error(label.column, f"expected basis label 00|01|10|11, got {label.text!r}")
            return None
        return BasisPreparation(index=int(label.text, 2), source_pos=pos)
    if kind.text == "bell":
        if len(tokens) not in (4, 5):
            reader.check_arity(4 if len(tokens) < 4 else 5, "prepare bell <phi|psi> <+|-> [s0=<real>]")
            return None
        bell_class = _parse_bell_class(reader, tokens[2])
        sign_token = tokens[3]
        if sign_token.text not in ("+", "-"):
            reader.error(sign_token.column, f"expected sign + or -, got {sign_token.text!r}")
            return None
        s0 = reader.s0_option(tokens[4] if len(tokens) == 5 else None)
        if bell_class is None or s0 is None:
            return None
        sign = 1 if sign_token.text == "+" else -1
        return BellPreparation(
            descriptor=BellDescriptor(bell_class=bell_class, sign=sign, s0=s0),
            source_pos=pos,
        )
    if kind.text == "bell-random-sign":
        if len(tokens) not in (3, 4):
            reader.check_arity(3 if len(tokens) < 3 else 4, "prepare bell-random-sign <phi|psi> [s0=<real>]")
            return None
        bell_class = _parse_bell_class(reader, tokens[2])
        s0 = reader.s0_option(tokens[3] if len(tokens) == 4 else None)
        if bell_class is None or s0 is None:
            return None
        return BellRandomSignPreparation(bell_class=bell_class, s0=s0, source_pos=pos)
    if kind.text == "raw":
        if not reader.check_arity(10, "prepare raw <8 reals: re im per amplitude>"):
            return None
        values = reader.reals(tokens[2:], "amplitude")
        if values is None:
            return None
        return RawPreparation(state=TwoQubitState(*_complex_pairs(values)), source_pos=pos)
    reader.error(kind.column, f"unknown preparation kind {kind.text!r}")
    return None


def _parse_bell_class(reader: _LineReader, token: _Token) -> Optional[BellClass]:
    if token.text in ("phi", "psi"):
        return token.text  # type: ignore[return-value]
    reader.error(token.column, f"expected Bell class phi or psi, got {token.text!r}")
    return None


def _parse_apply(reader: _LineReader) -> Optional[Step]:
    tokens = reader.tokens
    pos = (reader.line_no, tokens[0].column)
    if len(tokens) < 2:
        reader.error(tokens[0].column, "expected: apply <operator> ...")
        return None
    name = tokens[1]
    if name.text in OPERATOR_NAMES:
        if not reader.check_arity(3, f"apply {name.text} <A|B>"):
            return None
        particle = reader.particle(tokens[2])
        if particle is None:
            return None
        return ApplyNamed(name=name.text, particle=particle, source_pos=pos)
    if name.text == "bellop":
        if not reader.check_arity(2, "apply bellop"):
            return None
        return ApplyBellOperator(source_pos=pos)
    if name.text == "raw":
        if not reader.check_arity(11, "apply raw <A|B> <8 reals: re im, row-major>"):
            return None
        particle = reader.particle(tokens[2])
        values = reader.reals(tokens[3:], "matrix entry")
        if particle is None or values is None:
            return None
        entries = _complex_pairs(values)
        operator = SingleQubitOperator([[entries[0], entries[1]], [entries[2], entries[3]]])
        return ApplyRaw(particle=particle, operator=operator, source_pos=pos)
    known = "|".join(OPERATOR_NAMES + ("bellop", "raw"))
    reader.error(name.column, f"unknown operator {name.text!r} (expected {known})")
    return None


def _parse_measure(reader: _LineReader) -> Optional[Step]:
    tokens = reader.tokens
    pos = (reader.line_no, tokens[0].column)
    if len(tokens) < 2:
        reader.error(tokens[0].column, "expected: measure <relative|value> ...")
        return None
    kind = tokens[1]
    if kind.text == "relative":
        if not reader.check_arity(2, "measure relative"):
            return None
        return MeasureRelative(source_pos=pos)
    if kind.text == "value":
        if not reader.check_arity(3, "measure value <A|B>"):
            return None
        particle = reader.particle(tokens[2])
        if particle is None:
            return None
        return MeasureValue(particle=particle, source_pos=pos)
    reader.error(kind.column, f"unknown measurement kind {kind.text!r}")
    return None


def parse(source: str) -> tuple[Optional[CircuitProgram], list[Diagnostic]]:
    """Parse source text; returns (program, []) or (None, error diagnostics)."""
    diags: list[Diagnostic] = []
    preparation: Optional[Preparation] = None
    prepare_seen = False  # a malformed prepare line has its own diagnostic
    steps: list[Step] = []
    shots: Optional[int] = None
    seed: Optional[int] = None
    shots_pos = seed_pos = (1, 1)

    for line_no, raw_line in enumerate(source.split("\n"), start=1):
        line = raw_line[:-1] if raw_line.endswith("\r") else raw_line
        tokens = _tokenize(line)
        if not tokens:
            continue
        reader = _LineReader(tokens, line_no, diags)
        head = tokens[0]
        if head.text == "prepare":
            prepare_seen = True
            prep = _parse_prepare(reader)
            if prep is not None:
                if preparation is not None:
                    reader.error(head.column, "duplicate prepare statement")
                else:
                    preparation = prep
        elif head.text == "apply":
            step = _parse_apply(reader)
            if step is not None:
                steps.append(step)
        elif head.text == "measure":
            step = _parse_measure(reader)
            if step is not None:
                steps.append(step)
        elif head.text == "shots":
            if reader.check_arity(2, "shots <integer>"):
                value = reader.integer(tokens[1], "shots")
                if value is not None:
                    if shots is not None:
                        reader.error(head.column, "duplicate shots statement")
                    else:
                        shots, shots_pos = value, (line_no, tokens[1].column)
        elif head.text == "seed":
            if reader.check_arity(2, "seed <integer>"):
                value = reader.integer(tokens[1], "seed")
                if value is not None and not 0 <= value <= MAX_SEED:
                    reader.error(tokens[1].column, "malformed number for seed: out of unsigned 64-bit range")
                    value = None
                if value is not None:
                    if seed is not None:
                        reader.error(head.column, "duplicate seed statement")
                    else:
                        seed, seed_pos = value, (line_no, tokens[1].column)
        else:
            reader.error(head.column, f"unknown keyword {head.text!r}")

    if not prepare_seen:
        diags.append(Diagnostic(1, 1, "error", "missing prepare statement"))
    if diags:
        return None, diags
    if preparation is None:  # a prepare line without a preparation has reported an error
        raise RuntimeError("parse found no preparation and reported no error")
    return (
        CircuitProgram(
            preparation=preparation,
            steps=tuple(steps),
            shots=DEFAULT_SHOTS if shots is None else shots,
            seed=DEFAULT_SEED if seed is None else seed,
            shots_pos=shots_pos,
            seed_pos=seed_pos,
        ),
        [],
    )


def validate(program: CircuitProgram) -> list[Diagnostic]:
    """Static checks on a parsed program; errors block execution, warnings don't.

    Errors: non-unitary raw operators, non-normalized raw preparation,
    shots < 1.  Warnings: no measurements at all; any step after both
    particles have had a value measurement (the state is fully determined
    from that point, so further steps rarely mean what the author hoped).
    """
    diags: list[Diagnostic] = []
    prep = program.preparation
    if isinstance(prep, RawPreparation):
        n = prep.state.norm()
        if abs(n - 1.0) > EPS_NORM:
            line, column = prep.source_pos
            diags.append(
                Diagnostic(
                    line, column, "error",
                    f"raw preparation is not normalized (norm {format_real(n)}, tolerance {EPS_NORM:g})",
                )
            )
    for step in program.steps:
        if isinstance(step, ApplyRaw) and not step.operator.is_unitary(EPS_OP):
            line, column = step.source_pos
            diags.append(
                Diagnostic(
                    line, column, "error",
                    f"raw operator is not unitary (tolerance {EPS_OP:g})",
                )
            )
    if program.shots < 1:
        line, column = program.shots_pos
        diags.append(Diagnostic(line, column, "error", f"shots must be >= 1, got {program.shots}"))

    if not any(isinstance(step, (MeasureRelative, MeasureValue)) for step in program.steps):
        line, column = prep.source_pos
        diags.append(Diagnostic(line, column, "warning", "program contains no measurements"))
    measured: set[str] = set()
    fully_measured = False
    for step in program.steps:
        if fully_measured:
            line, column = step.source_pos
            diags.append(
                Diagnostic(
                    line, column, "warning",
                    "operation after value measurements on both particles; the state is fully determined",
                )
            )
        if isinstance(step, MeasureValue):
            measured.add(step.particle)
            fully_measured = len(measured) == 2
    diags.sort(key=lambda d: (d.line, d.column, d.severity, d.message))
    return diags


def _format_preparation(prep: Preparation) -> str:
    if isinstance(prep, BasisPreparation):
        return f"prepare basis {BASIS_LABELS[prep.index]}"
    if isinstance(prep, BellPreparation):
        d = prep.descriptor
        sign = "+" if d.sign == 1 else "-"
        suffix = "" if d.s0 == DEFAULT_S0 else f" s0={format_real(d.s0)}"
        return f"prepare bell {d.bell_class} {sign}{suffix}"
    if isinstance(prep, BellRandomSignPreparation):
        suffix = "" if prep.s0 == DEFAULT_S0 else f" s0={format_real(prep.s0)}"
        return f"prepare bell-random-sign {prep.bell_class}{suffix}"
    if isinstance(prep, RawPreparation):
        return f"prepare raw {state_text(prep.state)}"
    raise TypeError(f"unknown preparation {prep!r}")


def _format_matrix(op: SingleQubitOperator) -> str:
    parts: list[str] = []
    for row in range(2):
        for col in range(2):
            entry = op.entry(row, col)
            parts.append(format_real(entry.real))
            parts.append(format_real(entry.imag))
    return " ".join(parts)


def _format_step(step: Step) -> str:
    if isinstance(step, ApplyNamed):
        return f"apply {step.name} {step.particle}"
    if isinstance(step, ApplyBellOperator):
        return "apply bellop"
    if isinstance(step, ApplyRaw):
        return f"apply raw {step.particle} {_format_matrix(step.operator)}"
    if isinstance(step, MeasureRelative):
        return "measure relative"
    if isinstance(step, MeasureValue):
        return f"measure value {step.particle}"
    raise TypeError(f"unknown step {step!r}")


def format_program(program: CircuitProgram) -> str:
    """Canonical text: preparation, steps in order, non-default shots/seed.

    Reals are rendered with 17 significant digits, so parsing the result
    reproduces the program exactly: parse(format_program(p)) == p.
    """
    lines = [_format_preparation(program.preparation)]
    lines.extend(_format_step(step) for step in program.steps)
    if program.shots != DEFAULT_SHOTS:
        lines.append(f"shots {program.shots}")
    if program.seed != DEFAULT_SEED:
        lines.append(f"seed {program.seed}")
    return "\n".join(lines) + "\n"
