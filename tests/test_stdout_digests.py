"""The stdout contract: every command line of the committed corpus prints the bytes it printed
when tests/data/stdout_digests.json was written (see tests/make_stdout_digests.py)."""

import json

from make_stdout_digests import DIGESTS, RANDOM_PROGRAMS, run_line, write_files


def test_every_command_line_prints_its_committed_digests(tmp_path, monkeypatch):
    corpus = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert sum(name.startswith("random_") for name in corpus["files"]) == RANDOM_PROGRAMS
    write_files(corpus["files"], tmp_path)
    monkeypatch.chdir(tmp_path)
    differing = [(argv, expected, got) for argv, *expected in corpus["lines"] if (got := run_line(argv)) != expected]
    assert not differing, f"{len(differing)} of {len(corpus['lines'])} command lines differ; the first: {differing[0]}"
