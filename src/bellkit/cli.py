"""Command-line interface: run, demo, sweep, check.

Exit codes: 0 success, 1 usage error or a --trace run out of memory, 2 parse/validate
failure of a program file, 3 self-test failure (demo or check), 130 interrupted.  All
report output is plain text, JSON, or CSV on stdout; diagnostics and errors go to stderr.
Output depends only on the arguments, so identical invocations produce identical bytes.

A canonical command line (a subcommand, its positionals, and options by exact name, each a flag or
followed by one value not starting with "-") is read from the parser's own flag table into the
namespace parse_args would return; every other line, help and usage errors included, goes to argparse.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional

from . import engine
from .bell import StateClassification, classify, separability_defect, BellDescriptor, bell_state
from .circuit import (
    BASIS_LABELS,
    BellPreparation,
    CircuitProgram,
    MeasureValue,
    ascii_integer,
    parse,
)
from .core import (
    EPS_NORM,
    TwoQubitState,
    apply2,
    basis_state,
    bell_operator,
    format_real,
    lift_a,
    named_operator,
    normalize,
    states_close,
)
from .engine import (
    MAX_SEED,
    RelativeBit,
    ShotResult,
    ShotStatistics,
    relative_bit,
    run,
)


def _integer(text: str) -> int:
    value = ascii_integer(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _seed_value(text: str) -> int:
    value = _integer(text)
    if not 0 <= value <= MAX_SEED:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _points_value(text: str) -> int:
    value = _positive_int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("sweep needs at least 2 points")
    return value


@functools.cache  # one parser per process: `main` looks its handler up per call, so a patched cmd_* is the one run
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellkit",
        description="Two-qubit simulator: run circuit files, inspect the demo pipeline, "
        "sweep the Bell family, or self-check the invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="parse, validate, and execute a circuit file")
    p_run.add_argument("file", help="circuit program (.bk) to execute")
    p_run.add_argument("--shots", type=_positive_int, default=None, help="override the program's shot count")
    p_run.add_argument("--seed", type=_seed_value, default=None, help="override the program's master seed")
    p_run.add_argument("--format", choices=("text", "json"), default="text", dest="output_format")
    p_run.add_argument("--trace", action="store_true", help="include per-shot measurement records")
    p_run.add_argument("--workers", type=_positive_int, default=1, help="accepted for compatibility; has no effect")

    sub.add_parser("demo", help="print the built-in entangle/flip/disentangle pipeline")

    p_sweep = sub.add_parser("sweep", help="CSV sweep of the Bell family weight s0")
    p_sweep.add_argument("--class", choices=("phi", "psi"), default="phi", dest="bell_class")
    p_sweep.add_argument("--points", type=_points_value, default=21, help="number of s0 samples in [0, 1]")
    p_sweep.add_argument("--shots", type=_positive_int, default=1024)
    p_sweep.add_argument("--seed", type=_seed_value, default=0)

    sub.add_parser("check", help="run the invariant self-test suites")
    parser.canonical = _canonical_table(sub)  # what _read_canonical reads: the flags keep one home
    return parser


def _readable(a: argparse.Action) -> bool:
    """Whether `_read_canonical` stores `a` as parse_args does: a store_true flag or a one-value store,
    with no string default for parse_args to convert and, if an option, not required."""
    plain = type(a) is argparse._StoreTrueAction or type(a) is argparse._StoreAction and a.nargs is None
    return plain and not (isinstance(a.default, str) and (a.type or a.default == argparse.SUPPRESS)) and not (
        a.required and a.option_strings)


def _canonical_table(sub) -> dict[str, tuple[dict, list, dict]]:
    """Per subcommand whose arguments are all `_readable`: the namespace values it starts from, its
    positional actions, and its option actions by exact name.  Help is left out of the options."""
    table = {}
    for name, command in sub.choices.items():
        actions = [a for a in command._actions if not isinstance(a, argparse._HelpAction)]
        if all(map(_readable, actions)):
            start = {sub.dest: name, **{a.dest: a.default for a in actions}}
            options = {option: a for a in actions for option in a.option_strings}
            table[name] = (start, [a for a in actions if not a.option_strings], options)
    return table


def _read_canonical(argv) -> Optional[argparse.Namespace]:
    """The namespace `parse_args(argv)` returns, read from the flag table when `argv` is canonical
    (see the module docstring) and each value passes its type and choices; otherwise None.  The
    type functions are pure: a line that falls back to parse_args is converted there once more."""
    command = _build_parser().canonical.get(argv[0]) if argv else None
    if command is None:
        return None
    start, positionals, options = command
    values, pairs, found, args = dict(start), [], [], iter(argv[1:])
    for arg in args:
        if not arg.startswith("-"):
            found.append(arg)
        elif arg not in options:
            return None
        elif options[arg].nargs == 0:
            values[options[arg].dest] = options[arg].const
        else:
            pairs.append((options[arg], next(args, "-")))
    if len(found) != len(positionals):
        return None
    try:
        for action, text in [*pairs, *zip(positionals, found)]:  # a repeated option: the last one counts
            if text.startswith("-"):
                return None
            value = text if action.type is None else action.type(text)
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return argparse.Namespace(**values)


def _format_amplitude(z: complex) -> str:
    return f"{z.real:.6f}{z.imag:+.6f}i"


def _format_state(s: TwoQubitState) -> str:
    return " ".join(_format_amplitude(g) for g in s.amplitudes)


def _classification_label(c: StateClassification) -> str:
    if c.kind == "basis":
        label = f"basis |{BASIS_LABELS[c.basis_index]}>"
    elif c.kind == "bell":
        d = c.bell
        sign = "+" if d.sign == 1 else "-"
        label = f"bell {d.bell_class}{sign} s0={d.s0:.6f}"
    else:
        label = c.kind
    if c.kind != "general" and abs(c.phase - 1.0) > EPS_NORM:
        label += f" phase={_format_amplitude(c.phase)}"
    return label


def _relative_bit_label(s: TwoQubitState) -> str:
    result = relative_bit(s)
    if result.determinate:
        return result.bit.value
    return f"indeterminate (p_same={result.p_same:.6f})"


def _render_counts_table(stats: ShotStatistics) -> list[str]:
    keys = sorted(stats.counts)
    key_width = max(len("outcome"), *(len(k) for k in keys))
    count_width = max(len("count"), *(len(str(stats.counts[k])) for k in keys))
    lines = [f"{'outcome':<{key_width}}  {'count':>{count_width}}  frequency"]
    for key in keys:
        count = stats.counts[key]
        lines.append(f"{key:<{key_width}}  {count:>{count_width}}  {count / stats.shots:.6f}")
    return lines


# Shots per write of a --trace report.  On the trace workload at seed 7 (400- and 1000-shot
# reports written to an io.StringIO, five runs each), 1024 read cpu_s 4% and peak_rss_mb
# 0.7 MB below 256, and peak_rss_mb 0.5% above one string per report (BENCH_trace_stream.json).
_TRACE_CHUNK_SHOTS = 1024


def _write_trace(head: str, results: tuple[ShotResult, ...], render, separator: str, tail: str) -> None:
    """Write `head`, every shot's trace entry joined by `separator`, then `tail`, to stdout
    in one write per chunk of _TRACE_CHUNK_SHOTS shots: the head goes with the first
    chunk and the tail with the last.

    `render(shot)` gives the text before and after a shot's index.  Shots that reach one
    branch-tree leaf share its ShotResult, which a chunk renders once and splices into
    each of its shots; no rendering outlives its chunk.  `results` keeps every object
    alive, so an id stays unique for the whole report.
    """
    for start in range(0, len(results), _TRACE_CHUNK_SHOTS):
        stop = start + _TRACE_CHUNK_SHOTS
        pieces, rendered = [], {}
        for index, shot in enumerate(results[start:stop], start):
            parts = rendered.get(id(shot))
            if parts is None:
                parts = rendered[id(shot)] = render(shot)
            pieces += (separator, parts[0], str(index), parts[1])
        if start == 0:
            pieces[0] = head
        if stop >= len(results):
            pieces.append(tail)
        sys.stdout.write("".join(pieces))


def _shot_text(shot: ShotResult) -> tuple[str, str]:
    """One shot's text trace entry before and after its index: "shot i:" and its lines."""
    lines = []
    for record in shot.records:
        lines.append(
            f"  step {record.step_index} {record.kind} {engine.outcome_key((record,))}"
            f" p={record.probability:.6f} norm={record.projected_norm:.6f}"
            f" post {_format_state(record.post_state)}"
        )
    lines.append(f"  final {_format_state(shot.final_state)}")
    return "shot ", ":\n" + "\n".join(lines)


def _state_json(s: TwoQubitState, indent: str) -> str:
    """A state as a JSON list of re/im pairs, its closing bracket at `indent`."""
    pad = indent + "  "
    floats = (",\n" + pad).join([float.__repr__(x) for g in s.amplitudes for x in (g.real, g.imag)])
    return f"[\n{pad}{floats}\n{indent}]"


def _record_json(record) -> str:
    # kind, particle and a RelativeBit's value are plain ASCII words: quoted, they are what json.dumps writes.
    outcome = f'"{record.outcome.value}"' if isinstance(record.outcome, RelativeBit) else repr(record.outcome)
    particle = "null" if record.particle is None else f'"{record.particle}"'
    return (
        "{\n"
        f'          "kind": "{record.kind}",\n'
        f'          "outcome": {outcome},\n'
        f'          "particle": {particle},\n'
        f'          "post_state": {_state_json(record.post_state, "          ")},\n'
        f'          "probability": {float.__repr__(record.probability)},\n'
        f'          "projected_norm": {float.__repr__(record.projected_norm)},\n'
        f'          "step": {record.step_index!r}\n'
        "        }"
    )


def _shot_json(shot: ShotResult) -> tuple[str, str]:
    """One shot's JSON trace entry before and after the value of its "shot" key, which
    sorts last, indented for its place in the report (an item of a top-level list).

    The entry is formatted byte for byte as json.dumps(entry, indent=2, sort_keys=True)
    lays it out: with `indent` set, json takes its pure-Python encoder, about three times
    slower.  float.__repr__ is what json writes for a finite float, and every float here
    is finite: TwoQubitState rejects the rest.
    """
    records = "[]"
    if shot.records:
        records = "[\n        " + ",\n        ".join(map(_record_json, shot.records)) + "\n      ]"
    final_state = _state_json(shot.final_state, "      ")
    return f'{{\n      "final_state": {final_state},\n      "records": {records},\n      "shot": ', "\n    }"


def cmd_run(args: argparse.Namespace) -> int:
    try:
        with open(args.file, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        print(f"bellkit: cannot read {args.file}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    try:
        source = data.decode("utf-8-sig")  # a leading byte-order mark is not part of the program
    except UnicodeDecodeError as exc:
        print(f"{args.file}:1:1: error: file is not valid UTF-8 ({exc.reason})", file=sys.stderr)
        return 2

    program, diagnostics = parse(source)
    try:
        compiled = None if program is None else engine.compile(program)
    except engine.InvalidProgram as exc:
        compiled, diagnostics = None, exc.diagnostics
    for diag in diagnostics if compiled is None else compiled.warnings:
        print(f"{args.file}:{diag.render()}", file=sys.stderr)
    if compiled is None:
        return 2

    try:
        stats = run(compiled, shots=args.shots, seed=args.seed, keep_results=args.trace, workers=args.workers)
    except MemoryError:  # --trace keeps one result per shot
        if not args.trace:
            raise
        print("bellkit: out of memory: --trace keeps every shot's result; run fewer --shots", file=sys.stderr)
        return 1
    if args.trace and stats.results is None:
        raise RuntimeError("the report needs the per-shot results, but the run kept none")

    if args.output_format == "json":
        if not args.trace:
            print(stats.to_json())
            return 0
        import json  # only JSON output loads it
        report = json.dumps({**stats.to_payload(), "trace": None}, indent=2, sort_keys=True)
        before, _, after = report.rpartition('"trace": null')
        _write_trace(f'{before}"trace": [\n    ', stats.results, _shot_json, ",\n    ", f"\n  ]{after}\n")
        return 0

    lines = [f"shots: {stats.shots}", f"seed: {stats.seed}", ""]
    lines.extend(_render_counts_table(stats))
    if "none" in stats.counts:  # no shot measures: a text report shows shot 0's final state
        final = (stats if args.trace else run(compiled, 1, stats.seed, keep_results=True)).results[0].final_state
        shown = normalize(final) if final.subnormalized else final  # raw steps may move the norm past EPS_NORM
        lines.append("")
        lines.append(f"final state: {_format_state(final)}")
        lines.append(f"classification: {_classification_label(classify(shown))}")
        lines.append(f"relative bit: {_relative_bit_label(shown)}")
    if not args.trace:
        print("\n".join(lines))
        return 0
    _write_trace("\n".join([*lines, "", "trace:", ""]), stats.results, _shot_text, "\n", "\n")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    """Walk |00> through entangle, flip A, entangle; verify each stage."""
    flip_a = lift_a(named_operator("flip"))
    entangler = bell_operator()

    start = basis_state(0)
    stages = [("prepare", start, start)]
    after_entangle = apply2(entangler, start)
    stages.append(("entangle", after_entangle, bell_state(BellDescriptor("phi", 1))))
    after_flip = apply2(flip_a, after_entangle)
    stages.append(("flip A", after_flip, bell_state(BellDescriptor("psi", 1))))
    after_disentangle = apply2(entangler, after_flip)
    stages.append(("entangle", after_disentangle, basis_state(1)))

    width = max(len(name) for name, _, _ in stages)
    failures = []
    for name, state, expected in stages:
        label = _classification_label(classify(state))
        print(
            f"{name:<{width}}  {_format_state(state)}  {label:<24}  rel={_relative_bit_label(state)}"
        )
        if not states_close(state, expected, EPS_NORM):
            failures.append(name)
    if failures:
        print(f"bellkit demo: stage mismatch at: {', '.join(failures)}", file=sys.stderr)
        return 3
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    print("s0,defect,p0_analytic,p0_empirical")
    for index in range(args.points):
        s0 = index / (args.points - 1)
        descriptor = BellDescriptor(args.bell_class, 1, s0)
        state = bell_state(descriptor)
        defect = separability_defect(state)
        p0 = s0 * s0 if args.bell_class == "phi" else 1.0 - s0 * s0
        program = CircuitProgram(BellPreparation(descriptor), (MeasureValue("A"),))
        stats = run(program, shots=args.shots, seed=(args.seed + index) % (MAX_SEED + 1))
        empirical = stats.frequencies.get("A=0", 0.0)
        print(f"{format_real(s0)},{format_real(defect)},{format_real(p0)},{format_real(empirical)}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from . import checks  # only `check` uses it: at load time, every command would compile it

    results = checks.run_all()
    failed = False
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        detail = f": {result.detail}" if result.detail else ""
        print(f"{status} {result.name}{detail}")
        failed = failed or not result.passed
    return 3 if failed else 0


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command line and return its exit code; a call prints what a fresh process would."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_canonical(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
            return 0 if code == 0 else 1
    try:
        return globals()[f"cmd_{args.command}"](args)
    except KeyboardInterrupt:
        print("bellkit: interrupted", file=sys.stderr)
        return 130


def entry() -> None:
    """Console entry point; a reader that closes stdout early (``| head``) ends the run quietly."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The "Note on SIGPIPE" recipe of the signal docs: stdout goes to devnull, so that the
        # flush at interpreter exit raises no second BrokenPipeError, and the exit code is 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
