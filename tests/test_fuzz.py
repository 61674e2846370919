"""Mutation fuzzing of the command line: each corpus file with one token
deleted, duplicated or swapped must never crash ``main``.  Findings (exit 1)
and usage failures (exit 2) are expected; exit 3 is an internal error the
CLI caught and reported on one line."""

from __future__ import annotations

import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from axiotome.cli import main
from axiotome.syntax import tokenize

from conftest import BOOL_FNS, CORPUS, corpus_path

FILES = sorted(p.name for p in CORPUS.glob("*.axm"))
BOOL_PATHS = [str(corpus_path(n)) for n in BOOL_FNS]

#: A mutation: its kind and two token choices, each taken modulo the count.
MUTATIONS = st.tuples(st.sampled_from(FILES), st.sampled_from(["delete", "duplicate", "swap"]),
                      st.integers(0, 1 << 16), st.integers(0, 1 << 16))


def token_ranges(text: str) -> list[tuple[int, int]]:
    """The (start, end) offset of each token of ``text``."""
    line_starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
    return [(start, start + tok.span.length) for tok in tokenize(text)
            for start in [line_starts[tok.span.line - 1] + tok.span.column - 1]]


def mutate(text: str, kind: str, i: int, j: int) -> str:
    """``text`` with its ``i``-th token deleted or duplicated, or with its
    ``i``-th and ``j``-th tokens swapped (token numbers modulo the count)."""
    ranges = token_ranges(text)
    (a, b), (c, d) = sorted([ranges[i % len(ranges)], ranges[j % len(ranges)]])
    if kind == "delete":
        return text[:a] + text[b:]
    if kind == "duplicate":
        return text[:a] + text[a:b] + " " + text[a:]
    if (a, b) == (c, d):
        return text
    return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]


def run_commands(name: str, text: str) -> list[tuple[str, int, str, str]]:
    """(command, exit code, stdout, stderr) of ``check``, ``validate``,
    ``fmt --check`` and ``fill`` on ``text``, a mutant of the corpus file
    ``name``, with the boolean definition files other than ``name``."""
    results = []
    defs = [path for path, file in zip(BOOL_PATHS, BOOL_FNS) if file != name]
    with tempfile.TemporaryDirectory() as tmp:
        source = str(Path(tmp, name))
        Path(source).write_text(text, encoding="utf-8")
        for argv in (["check", *defs, source], ["validate", *defs, source], ["fmt", "--check", source],
                     ["fill", source, *defs, "-o", str(Path(tmp, "out.axm"))]):
            out, err = io.StringIO(), io.StringIO()
            results.append((argv[0], main(argv, out, err), out.getvalue(), err.getvalue()))
    return results


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(MUTATIONS)
def test_mutated_corpus_never_crashes_the_cli(mutation):
    name, kind, i, j = mutation
    text = mutate(corpus_path(name).read_text(encoding="utf-8"), kind, i, j)
    for command, code, out, err in run_commands(name, text):
        assert type(code) is int and code in (0, 1, 2, 3), (command, code)
        assert "Traceback" not in out + err, (command, out, err)
