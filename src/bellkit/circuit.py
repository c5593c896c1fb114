"""Line-oriented circuit language: parsing, validation, canonical formatting.

Grammar (one statement per line, words separated by str.isspace() characters,
`#` starts a comment, UTF-8 text, \\n or \\r\\n line endings):

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
Each statement's class carries its canonical text, which `format_program`
joins, and its meaning, which `engine.compile` reads (`_Preparation`, `_Step`).
A program has exactly one preparation; shots/seed may appear at most once.
Parsing is all-or-nothing: any error yields diagnostics and no program;
every argument is checked and every error on a line is reported.
A diagnostic's column is the 1-based code-point column of the offending word.
"""

from __future__ import annotations

import math
import numbers
import re
from functools import partial
from typing import Callable, Optional, Union, get_args

from .bell import BellClass, BellDescriptor, bell_state
from .core import (
    EPS_NORM,
    EPS_OP,
    INV_SQRT2,
    OPERATOR_NAMES,
    Particle,
    SingleQubitOperator,
    TwoQubitState,
    _reim_text,
    _require_integer,
    _require_type,
    _set,
    _Value,
    basis_state,
    bell_operator,
    format_real,
    lift_a,
    lift_b,
    named_operator,
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


def _s0_text(s0: float) -> str:
    return "" if s0 == DEFAULT_S0 else f" s0={format_real(s0)}"


class _Preparation(_Positioned):
    """A preparation: its `_text`, and its `_prepared` state, or a random sign's (+, -) pair."""


class _Step(_Positioned):
    """A step: its `_text`, and an apply step's `_lifted` 4x4 operator or a measurement's `_measured` particle."""


class BasisPreparation(_Preparation):
    def __init__(self, index: int, source_pos: tuple[int, int] = (1, 1)) -> None:
        _set(self, "index", index)  # 0..3, basis order |00>, |01>, |10>, |11>
        _set(self, "source_pos", source_pos)
        if type(index) is not int:  # one test for a field of the right type; a numpy integer passes below
            _require_integer("index", index)

    _text = property(lambda self: f"prepare basis {BASIS_LABELS[self.index]}")
    _prepared = property(lambda self: (basis_state(self.index),))


class BellPreparation(_Preparation):
    def __init__(self, descriptor: BellDescriptor, source_pos: tuple[int, int] = (1, 1)) -> None:
        _set(self, "descriptor", descriptor)
        _set(self, "source_pos", source_pos)

    _text = property(lambda self: f"prepare bell {self.descriptor.bell_class} "
                     f"{'+' if self.descriptor.sign == 1 else '-'}{_s0_text(self.descriptor.s0)}")
    _prepared = property(lambda self: (bell_state(self.descriptor),))


class BellRandomSignPreparation(_Preparation):
    def __init__(self, bell_class: BellClass, s0: float = DEFAULT_S0, source_pos: tuple[int, int] = (1, 1)) -> None:
        _set(self, "bell_class", bell_class)
        _set(self, "s0", s0)
        _set(self, "source_pos", source_pos)
        if not isinstance(bell_class, str) or type(s0) is not float:
            _require_type("bell_class", bell_class, str)
            if isinstance(s0, bool) or not isinstance(s0, numbers.Real):
                raise TypeError(f"s0 must be a real number, got {s0!r}")

    _text = property(lambda self: f"prepare bell-random-sign {self.bell_class}{_s0_text(self.s0)}")
    _prepared = property(lambda self: tuple(bell_state(BellDescriptor(self.bell_class, q, self.s0)) for q in (1, -1)))


class RawPreparation(_Preparation):
    def __init__(self, state: TwoQubitState, source_pos: tuple[int, int] = (1, 1)) -> None:
        _set(self, "state", state)
        _set(self, "source_pos", source_pos)

    _text = property(lambda self: f"prepare raw {state_text(self.state)}")
    _prepared = property(lambda self: (self.state,))


Preparation = Union[BasisPreparation, BellPreparation, BellRandomSignPreparation, RawPreparation]


class ApplyNamed(_Step):
    def __init__(self, name: str, particle: Particle, source_pos: tuple[int, int] = (1, 1)) -> None:
        _set(self, "name", name)  # one of OPERATOR_NAMES
        _set(self, "particle", particle)
        _set(self, "source_pos", source_pos)
        if not (isinstance(name, str) and isinstance(particle, str)):
            _require_type("name", name, str)
            _require_type("particle", particle, str)

    _text = property(lambda self: f"apply {self.name} {self.particle}")
    _lifted = property(lambda self: (lift_a if self.particle == "A" else lift_b)(named_operator(self.name)))


class ApplyBellOperator(_Step):
    def __init__(self, source_pos: tuple[int, int] = (1, 1)) -> None:
        _set(self, "source_pos", source_pos)

    _text = "apply bellop"
    _lifted = property(lambda self: bell_operator())


class ApplyRaw(_Step):
    def __init__(self, particle: Particle, operator: SingleQubitOperator, source_pos: tuple[int, int] = (1, 1)) -> None:
        _set(self, "particle", particle)
        _set(self, "operator", operator)
        _set(self, "source_pos", source_pos)
        if not isinstance(particle, str):
            _require_type("particle", particle, str)

    _text = property(lambda self: f"apply raw {self.particle} {_reim_text(self.operator.matrix.ravel().tolist())}")
    _lifted = property(lambda self: (lift_a if self.particle == "A" else lift_b)(self.operator))


class MeasureRelative(_Step):
    def __init__(self, source_pos: tuple[int, int] = (1, 1)) -> None:
        _set(self, "source_pos", source_pos)

    _text = "measure relative"
    _measured = None


class MeasureValue(_Step):
    def __init__(self, particle: Particle, source_pos: tuple[int, int] = (1, 1)) -> None:
        _set(self, "particle", particle)
        _set(self, "source_pos", source_pos)
        if not isinstance(particle, str):
            _require_type("particle", particle, str)

    _text = property(lambda self: f"measure value {self.particle}")
    _measured = property(lambda self: self.particle)


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
        if not isinstance(preparation, _Preparation):
            _require_type("preparation", preparation, *get_args(Preparation))
        for index, step in enumerate(self.steps):
            if not isinstance(step, _Step):  # the name is formatted only for a wrong step
                _require_type(f"steps[{index}]", step, *get_args(Step))
        _require_integer("shots", shots)
        _require_integer("seed", seed)


def ascii_integer(text: str) -> Optional[int]:
    """`text` as an int if it is ASCII decimal digits after an optional `-`, else None."""
    if _INTEGER_RE.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    return None


_Reader = Callable[[str], object]  # one argument word -> its value; raises ValueError(diagnostic)


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


# (keyword, kind) -> (usage, one reader per argument word, constructor); `shots` and `seed`
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


def _statement(words: list[str], code: str, source_pos: tuple[int, int], diags: list[Diagnostic]) -> object:
    """The statement of one line's words, or None once its errors are in `diags`."""

    def error(index: int, message: str) -> None:  # only a diagnostic scans `code` for word `index`'s column
        column = [match.start() for match in _TOKEN_RE.finditer(code)][index] + 1
        diags.append(Diagnostic(source_pos[0], column, "error", message))

    head = words[0]
    if (head, None) in _FORMS:
        form, first = _FORMS[head, None], 1
    elif head not in _KINDS:
        return error(0, f"unknown keyword {head!r}")
    elif len(words) < 2:
        return error(0, f"expected: {_KINDS[head][0]}")
    elif (head, words[1]) not in _FORMS:
        return error(1, _KINDS[head][1].format(words[1]))
    else:
        form, first = _FORMS[head, words[1]], 2
    usage, readers, build = form
    args = words[first:]
    if len(args) > len(readers):
        return error(first + len(readers), f"unexpected extra argument; expected: {usage}")
    if len(args) < len(readers) - (_s0 in readers):
        return error(-1, f"expected: {usage}")
    values, failed = [], False
    for index, (read, text) in enumerate(zip(readers, args), start=first):
        try:
            values.append(read(text))
        except ValueError as exc:
            error(index, str(exc))
            failed = True
    return None if failed else build(*values, source_pos=source_pos)


def parse(source: str) -> tuple[Optional[CircuitProgram], list[Diagnostic]]:
    """Parse source text; returns (program, []) or (None, error diagnostics)."""
    _require_type("source", source, str)
    diags: list[Diagnostic] = []
    prepare_seen = False  # a malformed prepare line has its own diagnostic
    steps: list[Step] = []
    once: dict[str, tuple[object, tuple[int, int]]] = {}  # _ONCE keyword -> (statement, its last word's position)

    for line_no, line in enumerate(source.split("\n"), start=1):
        code = line.partition("#")[0]
        words = code.split()
        if not words:
            continue
        head, column = words[0], len(code) - len(code.lstrip()) + 1
        prepare_seen = prepare_seen or head == "prepare"
        statement = _statement(words, code, (line_no, column), diags)
        if statement is None:
            continue
        if head not in _ONCE:
            steps.append(statement)  # type: ignore[arg-type]
        elif head in once:
            diags.append(Diagnostic(line_no, column, "error", f"duplicate {head} statement"))
        else:
            once[head] = (statement, (line_no, len(code.rstrip()) - len(words[-1]) + 1))

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

    Errors: a preparation field its own rule refuses (a basis index outside
    0..3, a Bell class other than phi or psi, s0 outside [0, 1]), a step on
    a particle other than A or B, an unknown operator name, non-unitary raw
    operators, non-normalized raw preparation, shots < 1, a seed outside
    0..2**64-1.  Warnings: no measurements at all; any step after both
    particles have had a value measurement (the state is fully determined
    from that point, so further steps rarely mean what the author hoped).
    """
    _require_type("program", program, CircuitProgram)
    diags: list[Diagnostic] = []
    prep = program.preparation
    try:
        prep._prepared  # its fields' own rules: a basis index, a Bell class or s0
    except ValueError as exc:
        diags.append(Diagnostic(*prep.source_pos, "error", str(exc)))
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
    if not 0 <= program.seed <= MAX_SEED:
        message = f"seed must fit in an unsigned 64-bit integer, got {program.seed}"
        diags.append(Diagnostic(*program.seed_pos, "error", message))

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


def format_program(program: CircuitProgram) -> str:
    """Canonical text: preparation, steps in order, non-default shots/seed.

    Reals are rendered with 17 significant digits, so parsing the result
    reproduces the program exactly: parse(format_program(p)) == p.
    """
    lines = [program.preparation._text, *[step._text for step in program.steps]]
    if program.shots != DEFAULT_SHOTS:
        lines.append(f"shots {program.shots}")
    if program.seed != DEFAULT_SEED:
        lines.append(f"seed {program.seed}")
    return "\n".join(lines) + "\n"
