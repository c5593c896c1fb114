"""Line-oriented circuit language: parsing, validation, canonical formatting.

Grammar (one statement per line, tokens separated by whitespace, `#` starts
a comment, UTF-8 text, \\n or \\r\\n line endings):

    prepare basis <00|01|10|11>
    prepare bell <phi|psi> <+|-> [s0=<real>]
    prepare bell-random-sign <phi|psi> [s0=<real>]
    prepare raw <8 reals: re im per amplitude>
    apply identity <A|B>
    apply flip <A|B>
    apply t_plus <A|B>
    apply t_minus <A|B>
    apply bellop
    apply raw <A|B> <8 reals: re im, row-major>
    measure relative
    measure value <A|B>
    shots <integer>
    seed <integer>

These are the usage strings of `_FORMS`, the one table `parse` reads by.
A program has exactly one preparation; shots/seed may appear at most once.
Parsing is all-or-nothing: any error yields diagnostics and no program;
every argument is checked and every error on a line is reported.
Diagnostics carry 1-based (line, column) positions into the source text.
"""

from __future__ import annotations

import math
import re
from functools import partial
from typing import Callable, NamedTuple, Optional, Union

from .bell import BellClass, BellDescriptor
from .core import (
    EPS_NORM,
    EPS_OP,
    INV_SQRT2,
    OPERATOR_NAMES,
    Particle,
    SingleQubitOperator,
    TwoQubitState,
    _reim_text,
    _require_type,
    _set,
    _Value,
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


class _Positioned(_Value):
    """A value with source positions, 1-based (line, column), that take no part in ==, hash
    or repr, so that parse(format_program(p)) == p holds regardless of layout."""

    _hidden = ("source_pos", "shots_pos", "seed_pos")


class Diagnostic(_Value):
    def __init__(self, line: int, column: int, severity: str, message: str) -> None:
        _set(self, "line", line)
        _set(self, "column", column)
        _set(self, "severity", severity)  # "error" | "warning"
        _set(self, "message", message)

    def render(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


class BasisPreparation(_Positioned):
    def __init__(self, index: int, source_pos: tuple[int, int] = (1, 1)) -> None:
        _set(self, "index", index)  # 0..3, basis order |00>, |01>, |10>, |11>
        _set(self, "source_pos", source_pos)


class BellPreparation(_Positioned):
    def __init__(self, descriptor: BellDescriptor, source_pos: tuple[int, int] = (1, 1)) -> None:
        _set(self, "descriptor", descriptor)
        _set(self, "source_pos", source_pos)


class BellRandomSignPreparation(_Positioned):
    def __init__(self, bell_class: BellClass, s0: float = DEFAULT_S0, source_pos: tuple[int, int] = (1, 1)) -> None:
        _set(self, "bell_class", bell_class)
        _set(self, "s0", s0)
        _set(self, "source_pos", source_pos)


class RawPreparation(_Positioned):
    def __init__(self, state: TwoQubitState, source_pos: tuple[int, int] = (1, 1)) -> None:
        _set(self, "state", state)
        _set(self, "source_pos", source_pos)


Preparation = Union[BasisPreparation, BellPreparation, BellRandomSignPreparation, RawPreparation]


class ApplyNamed(_Positioned):
    def __init__(self, name: str, particle: Particle, source_pos: tuple[int, int] = (1, 1)) -> None:
        _set(self, "name", name)  # one of OPERATOR_NAMES
        _set(self, "particle", particle)
        _set(self, "source_pos", source_pos)


class ApplyBellOperator(_Positioned):
    def __init__(self, source_pos: tuple[int, int] = (1, 1)) -> None:
        _set(self, "source_pos", source_pos)


class ApplyRaw(_Positioned):
    def __init__(self, particle: Particle, operator: SingleQubitOperator, source_pos: tuple[int, int] = (1, 1)) -> None:
        _set(self, "particle", particle)
        _set(self, "operator", operator)
        _set(self, "source_pos", source_pos)


class MeasureRelative(_Positioned):
    def __init__(self, source_pos: tuple[int, int] = (1, 1)) -> None:
        _set(self, "source_pos", source_pos)


class MeasureValue(_Positioned):
    def __init__(self, particle: Particle, source_pos: tuple[int, int] = (1, 1)) -> None:
        _set(self, "particle", particle)
        _set(self, "source_pos", source_pos)


Step = Union[ApplyNamed, ApplyBellOperator, ApplyRaw, MeasureRelative, MeasureValue]


class CircuitProgram(_Positioned):
    def __init__(
        self, preparation: Preparation, steps: tuple[Step, ...] = (), shots: int = DEFAULT_SHOTS,
        seed: int = DEFAULT_SEED, shots_pos: tuple[int, int] = (1, 1), seed_pos: tuple[int, int] = (1, 1),
    ) -> None:
        _set(self, "preparation", preparation)
        _set(self, "steps", tuple(steps))
        _set(self, "shots", shots)
        _set(self, "seed", seed)
        _set(self, "shots_pos", shots_pos)
        _set(self, "seed_pos", seed_pos)


def ascii_integer(text: str) -> Optional[int]:
    """`text` as an int if it is ASCII decimal digits after an optional `-`, else None."""
    if _INTEGER_RE.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    return None


class _Token(NamedTuple):
    text: str
    column: int  # 1-based


def _tokenize(line: str) -> list[_Token]:
    cut = line.find("#")
    if cut != -1:
        line = line[:cut]
    return [_Token(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(line)]


_Reader = Callable[[str], object]  # one argument token's text -> its value; raises ValueError(diagnostic)


def _one_of(expected: str, values: dict) -> _Reader:
    def read(text: str) -> object:
        if text in values:
            return values[text]
        raise ValueError(f"expected {expected}, got {text!r}")

    return read


_particle = _one_of("particle A or B", {"A": "A", "B": "B"})
_bell_class = _one_of("Bell class phi or psi", {"phi": "phi", "psi": "psi"})
_sign = _one_of("sign + or -", {"+": 1, "-": -1})
_basis = _one_of("basis label 00|01|10|11", {label: index for index, label in enumerate(BASIS_LABELS)})


def _real(what: str, text: str) -> float:
    value = float(text) if _REAL_RE.fullmatch(text) else math.nan
    if not math.isfinite(value):
        raise ValueError(f"malformed number for {what}: {text!r}")
    return value


def _integer(what: str, text: str) -> int:
    value = ascii_integer(text)
    if value is None:
        raise ValueError(f"malformed number for {what}: {text!r}")
    return value


def _seed(text: str) -> int:
    value = _integer("seed", text)
    if not 0 <= value <= MAX_SEED:
        raise ValueError("malformed number for seed: out of unsigned 64-bit range")
    return value


def _s0(text: str) -> float:
    """A trailing `s0=<real>`, which a statement may leave out for DEFAULT_S0."""
    if not text.startswith("s0="):
        raise ValueError(f"expected s0=<real>, got {text!r}")
    value = _real("s0", text[3:])
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"s0 out of [0, 1]: {format_real(value)}")
    return value


def _complex_pairs(values: tuple[float, ...]) -> list[complex]:
    return [complex(re, im) for re, im in zip(values[::2], values[1::2])]


# (keyword, kind) -> (usage, one reader per argument token, constructor); `shots` and `seed`
# take no kind. The constructor gets the read values and the statement's source_pos.
_FORMS: dict[tuple[str, Optional[str]], tuple[str, tuple[_Reader, ...], Callable[..., object]]] = {
    ("prepare", "basis"): ("prepare basis <00|01|10|11>", (_basis,), BasisPreparation),
    ("prepare", "bell"): (
        "prepare bell <phi|psi> <+|-> [s0=<real>]",
        (_bell_class, _sign, _s0),
        lambda bell_class, sign, s0=DEFAULT_S0, *, source_pos: BellPreparation(
            BellDescriptor(bell_class, sign, s0), source_pos
        ),
    ),
    ("prepare", "bell-random-sign"): (
        "prepare bell-random-sign <phi|psi> [s0=<real>]", (_bell_class, _s0), BellRandomSignPreparation
    ),
    ("prepare", "raw"): (
        "prepare raw <8 reals: re im per amplitude>",
        (partial(_real, "amplitude"),) * 8,
        lambda *values, source_pos: RawPreparation(TwoQubitState(*_complex_pairs(values)), source_pos),
    ),
    **{("apply", name): (f"apply {name} <A|B>", (_particle,), partial(ApplyNamed, name)) for name in OPERATOR_NAMES},
    ("apply", "bellop"): ("apply bellop", (), ApplyBellOperator),
    ("apply", "raw"): (
        "apply raw <A|B> <8 reals: re im, row-major>",
        (_particle,) + (partial(_real, "matrix entry"),) * 8,
        lambda particle, *values, source_pos: ApplyRaw(
            particle, SingleQubitOperator([_complex_pairs(values[:4]), _complex_pairs(values[4:])]), source_pos
        ),
    ),
    ("measure", "relative"): ("measure relative", (), MeasureRelative),
    ("measure", "value"): ("measure value <A|B>", (_particle,), MeasureValue),
    ("shots", None): ("shots <integer>", (partial(_integer, "shots"),), lambda shots, source_pos: shots),
    ("seed", None): ("seed <integer>", (_seed,), lambda seed, source_pos: seed),
}
# Keyword that takes a kind -> (usage without one, message for an unknown one).
_KINDS = {
    "prepare": ("prepare <basis|bell|bell-random-sign|raw> ...", "unknown preparation kind {!r}"),
    "apply": (
        "apply <operator> ...",
        "unknown operator {!r} (expected " + "|".join(kind for head, kind in _FORMS if head == "apply") + ")",
    ),
    "measure": ("measure <relative|value> ...", "unknown measurement kind {!r}"),
}
_ONCE = ("prepare", "shots", "seed")  # statements a program has at most once


def _statement(tokens: list[_Token], line_no: int, diags: list[Diagnostic]) -> object:
    """The statement on one line, or None once its errors are in `diags`."""

    def error(token: _Token, message: str) -> None:
        diags.append(Diagnostic(line_no, token.column, "error", message))

    head = tokens[0]
    if (head.text, None) in _FORMS:
        form, args = _FORMS[head.text, None], tokens[1:]
    elif head.text not in _KINDS:
        return error(head, f"unknown keyword {head.text!r}")
    elif len(tokens) < 2:
        return error(head, f"expected: {_KINDS[head.text][0]}")
    elif (head.text, tokens[1].text) not in _FORMS:
        return error(tokens[1], _KINDS[head.text][1].format(tokens[1].text))
    else:
        form, args = _FORMS[head.text, tokens[1].text], tokens[2:]
    usage, readers, build = form
    if len(args) > len(readers):
        return error(args[len(readers)], f"unexpected extra argument; expected: {usage}")
    if len(args) < len(readers) - (_s0 in readers):
        return error(tokens[-1], f"expected: {usage}")
    values, failed = [], False
    for read, token in zip(readers, args):
        try:
            values.append(read(token.text))
        except ValueError as exc:
            error(token, str(exc))
            failed = True
    return None if failed else build(*values, source_pos=(line_no, head.column))


def parse(source: str) -> tuple[Optional[CircuitProgram], list[Diagnostic]]:
    """Parse source text; returns (program, []) or (None, error diagnostics)."""
    _require_type("source", source, str)
    diags: list[Diagnostic] = []
    prepare_seen = False  # a malformed prepare line has its own diagnostic
    steps: list[Step] = []
    once: dict[str, tuple[object, tuple[int, int]]] = {}  # _ONCE keyword -> (statement, its last token's position)

    for line_no, raw_line in enumerate(source.split("\n"), start=1):
        line = raw_line[:-1] if raw_line.endswith("\r") else raw_line
        tokens = _tokenize(line)
        if not tokens:
            continue
        head = tokens[0]
        prepare_seen = prepare_seen or head.text == "prepare"
        statement = _statement(tokens, line_no, diags)
        if statement is None:
            continue
        if head.text not in _ONCE:
            steps.append(statement)  # type: ignore[arg-type]
        elif head.text in once:
            diags.append(Diagnostic(line_no, head.column, "error", f"duplicate {head.text} statement"))
        else:
            once[head.text] = (statement, (line_no, tokens[-1].column))

    if not prepare_seen:
        diags.append(Diagnostic(1, 1, "error", "missing prepare statement"))
    if diags:
        return None, diags
    if "prepare" not in once:  # a prepare line without a preparation has reported an error
        raise RuntimeError("parse found no preparation and reported no error")
    shots, shots_pos = once.get("shots", (DEFAULT_SHOTS, (1, 1)))
    seed, seed_pos = once.get("seed", (DEFAULT_SEED, (1, 1)))
    return CircuitProgram(once["prepare"][0], tuple(steps), shots, seed, shots_pos, seed_pos), []  # type: ignore


def validate(program: CircuitProgram) -> list[Diagnostic]:
    """Static checks on a parsed program; errors block execution, warnings don't.

    Errors: a step on a particle other than A or B, an unknown operator
    name, non-unitary raw operators, non-normalized raw preparation,
    shots < 1.  Warnings: no measurements at all; any step after both
    particles have had a value measurement (the state is fully determined
    from that point, so further steps rarely mean what the author hoped).
    """
    _require_type("program", program, CircuitProgram)
    diags: list[Diagnostic] = []
    prep = program.preparation
    if isinstance(prep, RawPreparation) and prep.state.subnormalized:
        message = f"raw preparation is not normalized (norm {format_real(prep.state.norm())}, tolerance {EPS_NORM:g})"
        diags.append(Diagnostic(*prep.source_pos, "error", message))
    for step in program.steps:
        if isinstance(step, (ApplyNamed, ApplyRaw, MeasureValue)) and step.particle not in ("A", "B"):
            diags.append(Diagnostic(*step.source_pos, "error", f"particle must be 'A' or 'B', got {step.particle!r}"))
        if isinstance(step, ApplyNamed) and step.name not in OPERATOR_NAMES:
            diags.append(Diagnostic(*step.source_pos, "error", f"unknown operator name {step.name!r}"))
        if isinstance(step, ApplyRaw) and not step.operator.is_unitary(EPS_OP):
            diags.append(Diagnostic(*step.source_pos, "error", f"raw operator is not unitary (tolerance {EPS_OP:g})"))
    if program.shots < 1:
        diags.append(Diagnostic(*program.shots_pos, "error", f"shots must be >= 1, got {program.shots}"))

    if not any(isinstance(step, (MeasureRelative, MeasureValue)) for step in program.steps):
        diags.append(Diagnostic(*prep.source_pos, "warning", "program contains no measurements"))
    measured: set[str] = set()
    fully_measured = False
    for step in program.steps:
        if fully_measured:
            message = "operation after value measurements on both particles; the state is fully determined"
            diags.append(Diagnostic(*step.source_pos, "warning", message))
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


def _format_step(step: Step) -> str:
    if isinstance(step, ApplyNamed):
        return f"apply {step.name} {step.particle}"
    if isinstance(step, ApplyBellOperator):
        return "apply bellop"
    if isinstance(step, ApplyRaw):
        return f"apply raw {step.particle} {_reim_text(step.operator.matrix.ravel().tolist())}"
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
