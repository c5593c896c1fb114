"""The stdout contract: every command line of the committed corpus prints the bytes it printed
when tests/data/stdout_digests.json was written (see tests/make_stdout_digests.py)."""

import json

from make_stdout_digests import DIGESTS, RANDOM_PROGRAMS, run_line, write_files

from bellkit.circuit import _FORMS, format_program, parse


def test_every_command_line_prints_its_committed_digests(tmp_path, monkeypatch):
    corpus = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert sum(name.startswith("random_") for name in corpus["files"]) == RANDOM_PROGRAMS
    write_files(corpus["files"], tmp_path)
    monkeypatch.chdir(tmp_path)
    differing = [(argv, expected, got) for argv, *expected in corpus["lines"] if (got := run_line(argv)) != expected]
    assert not differing, f"{len(differing)} of {len(corpus['lines'])} command lines differ; the first: {differing[0]}"


def test_every_random_program_text_is_a_format_program_fixed_point():
    """The corpus stores program text, so the digests alone would not see a change in formatting."""
    texts = [text for name, text in json.loads(DIGESTS.read_text(encoding="utf-8"))["files"].items()
             if name.startswith("random_")]
    assert [format_program(parse(text)[0]) for text in texts] == texts
    # Together the texts use every statement form, and both a default and an explicit s0.
    heads = [line.split()[:2] for text in texts for line in text.splitlines()]
    assert {(k, None) if (k, None) in _FORMS else (k, kind) for k, kind in heads} == set(_FORMS)
    bell = [line.split() for text in texts for line in text.splitlines() if line.startswith("prepare bell")]
    assert {(tokens[1], tokens[-1].startswith("s0=")) for tokens in bell} == {
        (kind, explicit) for kind in ("bell", "bell-random-sign") for explicit in (False, True)
    }
