"""Malformed input ends in a diagnostic, never a traceback: every mutated sample program of
tests/make_mutation_digests.py exits 0 or 2 and prints the bytes it printed when
tests/data/mutation_digests.json was written."""

import json

from make_mutation_digests import DIGESTS, corpus, corpus_digest
from make_stdout_digests import digests, run_text, write_files


def test_every_mutated_program_exits_cleanly_with_its_committed_digests(tmp_path, monkeypatch):
    committed = json.loads(DIGESTS.read_text(encoding="utf-8"))
    files, argvs = corpus()
    assert corpus_digest(files) == committed["corpus_sha256"], "the generator drew other mutations"
    assert argvs == [argv for argv, *_ in committed["lines"]]
    write_files(files, tmp_path)
    monkeypatch.chdir(tmp_path)
    runs = [(argv, expected, run_text(argv)) for argv, *expected in committed["lines"]]
    unclean = [(argv, code) for argv, _, (code, _, err) in runs if code not in (0, 2) or "Traceback" in err]
    assert not unclean, f"{len(unclean)} runs exit other than 0 or 2 or print a traceback; the first: {unclean[0]}"
    assert {code for _, _, (code, _, _) in runs} == {0, 2}
    differing = [(argv, expected, got) for argv, expected, run in runs if (got := digests(*run)) != expected]
    assert not differing, f"{len(differing)} of {len(runs)} command lines differ; the first: {differing[0]}"
