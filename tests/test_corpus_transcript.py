"""The corpus CLI transcript, pinned byte for byte.

Every program fixture is run through ``cli.main`` in process, with the base
types and connectives loaded and paths relative to the repository root:
``check`` plain, ``--machine`` and ``--strict``; ``validate`` plain and
``--machine``, with and without ``if_function.axm``; ``fill -o`` at
``--max-depth`` 4 and 5, with the file it writes; and ``fmt --check``.
Each line of ``term_examples.axm`` is run through ``eval``.  The exit code,
stdout and stderr of every run are compared with ``corpus_transcript.txt``.

When a change of output is intended, regenerate the golden file with
``PYTHONPATH=src python tests/test_corpus_transcript.py``.
"""

from __future__ import annotations

import difflib
import io
import os
import sys
import tempfile
from pathlib import Path

from axiotome.cli import main

from conftest import BOOL_FNS, PROGRAM_FIXTURES

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("corpus_transcript.txt")
CORPUS = "tests/corpus/"

#: How the written file of ``fill -o`` is named in the transcript.
OUT = "OUT.axm"


def _commands() -> list[list[str]]:
    defs = [CORPUS + name for name in BOOL_FNS]
    with_if = defs + [CORPUS + "if_function.axm"]
    commands = []
    for name in PROGRAM_FIXTURES:
        fixture = CORPUS + name
        paths = [p for p in defs if p != fixture] + [fixture]
        commands += [["check", *paths], ["check", *paths, "--machine"], ["check", *paths, "--strict"]]
        for loaded in (paths, [p for p in with_if if p != fixture] + [fixture]):
            commands += [["validate", *loaded], ["validate", *loaded, "--machine"]]
        for depth in ("4", "5"):
            commands.append(["fill", fixture, *(p for p in defs if p != fixture), "-o", OUT, "--max-depth", depth])
        commands.append(["fmt", "--check", fixture])
    for line in (ROOT / CORPUS / "term_examples.axm").read_text(encoding="utf-8").splitlines():
        commands.append(["eval", line, *defs])
    return commands


def _block(label: str, text: str) -> list[str]:
    lines = [f"{label}:"] + [f"| {line}" for line in text.splitlines()]
    if text and not text.endswith("\n"):
        lines.append("\\ no newline at end")
    return lines


def transcript(out_dir: Path) -> str:
    """The transcript of every corpus command, ``fill``'s output file
    written under ``out_dir`` and named ``OUT`` in the text."""
    written = out_dir / OUT
    lines: list[str] = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for argv in _commands():
            argv_run = [str(written) if arg == OUT else arg for arg in argv]
            out, err = io.StringIO(), io.StringIO()
            code = main(argv_run, out=out, err=err)
            lines.append("$ axiotome " + " ".join(argv))
            lines.append(f"exit {code}")
            lines += _block("stdout", out.getvalue().replace(str(written), OUT))
            lines += _block("stderr", err.getvalue().replace(str(written), OUT))
            if OUT in argv:
                lines += _block(OUT, written.read_text(encoding="utf-8")) if written.exists() else ["(not written)"]
                written.unlink(missing_ok=True)
            lines.append("")
    finally:
        os.chdir(cwd)
    return "\n".join(lines)


def test_corpus_transcript_is_unchanged(tmp_path):
    actual = transcript(tmp_path)
    expected = GOLDEN.read_text(encoding="utf-8")
    if actual != expected:
        diff = difflib.unified_diff(expected.splitlines(True), actual.splitlines(True), "golden", "now", n=2)
        raise AssertionError("corpus transcript changed:\n" + "".join(list(diff)[:200]))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(transcript(Path(scratch)), encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
