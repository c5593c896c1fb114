"""Write tests/data/mutation_digests.json, the bytes that test_mutation_digests.py checks.

MUTATIONS seeded edits of the sample programs (programs/*.bk) each run once through
`bellkit.cli.main`, at 1 to 40 shots and one of four flag sets.  An edit inserts a whitespace
code point (ASCII or not), a lookalike that is not whitespace, `\\r`, `#`, or a stray keyword or
number; swaps one whitespace character for another; deletes a few characters; or duplicates or
drops a line.  About three in five mutations print diagnostics and exit 2.

The file holds, for every command line, the argv, the exit code and the sha256 of stdout and of
stderr, and the sha256 of the mutated texts, so a change in how the generator draws shows as
such and not as a change in bellkit.  Run it from the repository root:

    PYTHONPATH=src python tests/make_mutation_digests.py

A change that means to alter what bellkit prints for a malformed program runs it again and says
which lines changed and why.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for make_stdout_digests, when run as a script

from make_stdout_digests import SAMPLES, run_lines  # noqa: E402

DIGESTS = Path(__file__).parent / "data" / "mutation_digests.json"
MUTATIONS = 3000
SEED = 31
FLAG_SETS = ((), ("--trace",), ("--format", "json"), ("--trace", "--format", "json"))
# Every str.isspace() kind of code point: ASCII, the \x1c-\x1f separators, Latin-1, and wider ones.
WHITESPACE = (" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u1680", "\u2000",
              "\u2007", "\u2028", "\u2029", "\u202f", "\u205f", "\u3000")
NOT_WHITESPACE = ("\u200b", "\ufeff", "\x00", "\u180e")  # look blank, but are parts of a word
STRAY = ("prepare", "apply", "measure", "shots", "seed", "basis", "bell", "bell-random-sign", "raw", "bellop",
         "relative", "value", "flip", "t_plus", "identity", "A", "B", "C", "phi", "psi", "+", "-", "s0=0.3",
         "s0=2", "s0=", "00", "11", "0", "1", "-1", "0.5", "1e400", "nan", "3x", "18446744073709551616",
         "\u0661", "1_0")


def mutate(text: str, rng: random.Random) -> str:
    """`text` after one to four random edits."""
    for _ in range(rng.randint(1, 4)):
        at = rng.randint(0, len(text))
        edit = rng.randrange(9)
        if edit == 0:
            text = text[:at] + rng.choice(WHITESPACE) + text[at:]
        elif edit == 1:
            text = text[:at] + rng.choice(NOT_WHITESPACE) + text[at:]
        elif edit == 2:
            spaces = [i for i, c in enumerate(text) if c in " \n"]
            if spaces:
                i = rng.choice(spaces)
                text = text[:i] + rng.choice(WHITESPACE + ("\r\n", "\r")) + text[i + 1:]
        elif edit == 3:
            text = text[:at] + rng.choice(("\r", "\r\n", "#", "# ")) + text[at:]
        elif edit == 4:
            text = text[:at] + f" {rng.choice(STRAY)} " + text[at:]
        elif edit == 5:
            text = text[:at] + text[at + rng.randint(1, 8):]
        else:
            lines = text.split("\n")
            i = rng.randrange(len(lines))
            if edit == 6:
                lines.insert(i, lines[i])
            elif edit == 7:
                del lines[i]
            else:
                lines.insert(i, " ".join(rng.choice(STRAY) for _ in range(rng.randint(1, 4))))
            text = "\n".join(lines)
    return text


def corpus() -> tuple[dict[str, str], list[list[str]]]:
    """The mutated program files, name -> text, and one command line for each."""
    samples = [path.read_text(encoding="utf-8") for path in sorted(SAMPLES.glob("*.bk"))]
    rng = random.Random(SEED)
    files, argvs = {}, []
    for i in range(MUTATIONS):
        name = f"mutant_{i:04d}.bk"
        files[name] = mutate(rng.choice(samples), rng)
        argvs.append(["run", name, "--shots", str(rng.randint(1, 40)), *FLAG_SETS[i % len(FLAG_SETS)]])
    return files, argvs


def corpus_digest(files: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()


def main() -> None:
    files, argvs = corpus()
    lines = run_lines(files, argvs)
    rows = ",\n".join("    " + json.dumps(line) for line in lines)
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(f'{{\n  "corpus_sha256": "{corpus_digest(files)}",\n  "lines": [\n{rows}\n  ]\n}}\n')
    diagnosed = sum(code == 2 for _, code, *_ in lines)
    print(f"{DIGESTS}: {len(lines)} command lines, {diagnosed} of them exit 2")


if __name__ == "__main__":
    main()
