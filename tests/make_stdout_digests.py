"""Write tests/data/stdout_digests.json, the stdout contract that test_stdout_digests.py checks.

For every command line of a fixed corpus, the file holds the argv, the exit code and the
sha256 of stdout and of stderr that `bellkit.cli.main` gives.  It also holds the text of
every program file that a command line names, so the test needs no generator:

- the sample programs at their own settings, plain and with --format json;
- the samples and RANDOM_PROGRAMS programs of `helpers.random_program`, at each of SETTINGS,
  with each of FLAG_SETS;
- the programs of DIAGNOSED, which print diagnostics (most exit 2);
- demo, both sweeps and check.

Run it from the repository root:

    PYTHONPATH=src python tests/make_stdout_digests.py

A change that means to alter bellkit's output runs it again and says which lines changed
and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))  # for helpers, when run as a script

from bellkit import circuit, cli  # noqa: E402
from helpers import random_program  # noqa: E402

DIGESTS = Path(__file__).parent / "data" / "stdout_digests.json"
SAMPLES = Path(__file__).resolve().parent.parent / "programs"
RANDOM_PROGRAMS = 200
RANDOM_SEED = 26
SETTINGS = (("17", "5"), ("225", str(2**64 - 1)))  # (--shots, --seed)
FLAG_SETS = ((), ("--trace",), ("--format", "json"), ("--trace", "--format", "json"))
DIAGNOSED = {
    "unknown_keyword.bk": "prepare basis 00\nfrobnicate A\nmeasure value A\n",
    "missing_prepare.bk": "measure value A\nshots 5\n",
    "duplicate_statements.bk": "prepare basis 00\nprepare basis 11\nshots 5\nshots 6\nseed 1\nseed 2\n",
    "bad_arguments.bk": "prepare bell phi + s0=1.5\napply flip C\nshots 3x\nseed 18446744073709551616\n",
    "extra_argument.bk": "prepare basis 00 11\napply bellop A\nmeasure relative B\n",
    "not_unitary.bk": "prepare basis 00\napply raw A 1 0 1 0 0 0 1 0\nmeasure value A\n",
    "not_normalized.bk": "prepare raw 1 0 1 0 0 0 0 0\nmeasure relative\n",
    "zero_shots.bk": "prepare basis 00\nmeasure value A\nshots 0\n",
    "not_utf8.bk": "prepare basis 00\n\udcff\n",  # the byte 0xff, as surrogateescape decodes it
    "no_measurement.bk": "prepare bell psi -\napply t_minus B\n",  # a warning, exit 0
    "after_both_measured.bk": "prepare basis 10\nmeasure value A\nmeasure value B\napply flip A\n",  # a warning
}


def corpus() -> tuple[dict[str, str], list[list[str]]]:
    """The program files, name -> text, and the command lines that use them."""
    samples = {path.name: path.read_text(encoding="utf-8") for path in sorted(SAMPLES.glob("*.bk"))}
    rng = np.random.default_rng(RANDOM_SEED)
    generated = {f"random_{i:03d}.bk": circuit.format_program(random_program(rng)) for i in range(RANDOM_PROGRAMS)}
    argvs = [["run", name, *flags] for name in samples for flags in ((), ("--format", "json"))]
    argvs += [
        ["run", name, "--shots", shots, "--seed", seed, *flags]
        for name in [*samples, *generated]
        for shots, seed in SETTINGS
        for flags in FLAG_SETS
    ]
    argvs += [["run", name] for name in DIAGNOSED]
    argvs += [["demo"], ["sweep", "--class", "phi"], ["sweep", "--class", "psi"], ["check"]]
    return {**samples, **generated, **DIAGNOSED}, argvs


def write_files(files: dict[str, str], directory: Path) -> None:
    for name, text in files.items():
        (directory / name).write_bytes(text.encode("utf-8", "surrogateescape"))


def run_line(argv: list[str]) -> list:
    """[exit code, sha256 of stdout, sha256 of stderr] of one `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [code, *(hashlib.sha256(stream.getvalue().encode()).hexdigest() for stream in (out, err))]


def main() -> None:
    files, argvs = corpus()
    with tempfile.TemporaryDirectory() as directory:
        write_files(files, Path(directory))
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            lines = [[argv, *run_line(argv)] for argv in argvs]
        finally:
            os.chdir(cwd)
    # One command line per row, so that a rewrite shows in a diff as the lines that changed.
    rows = ",\n".join("    " + json.dumps(line) for line in lines)
    DIGESTS.parent.mkdir(exist_ok=True)
    files_json = json.dumps(files, indent=2, sort_keys=True).replace("\n", "\n  ")
    DIGESTS.write_text(f'{{\n  "files": {files_json},\n  "lines": [\n{rows}\n  ]\n}}\n')
    print(f"{DIGESTS}: {len(lines)} command lines, {len(files)} program files")


if __name__ == "__main__":
    main()
