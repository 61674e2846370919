"""Diagnostic construction, rendering contracts and code-set closure."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from axiotome.diagnostics import (
    CODES, Diagnostic, Severity, Span, error, render_human, render_machine, warning,
)

SRC = Path(__file__).parent.parent / "src" / "axiotome"


def test_unpublished_code_is_refused():
    with pytest.raises(ValueError):
        error("E-MADE-UP", "nope")


def test_render_human_header_shape():
    d = error(
        "E-UNJUSTIFIED-STEP",
        "axiom $not°T does not transform not(not(False)) into not(True)",
        Span("notnotfalse_bad.axm", 4, 17, 6),
    )
    assert render_human(d) == (
        "notnotfalse_bad.axm:4:17: error[E-UNJUSTIFIED-STEP]: "
        "axiom $not°T does not transform not(not(False)) into not(True)"
    )


def test_render_human_includes_related_notes():
    d = error("E-DUP-NAME", "duplicate type name 'False'", Span("a.axm", 3, 1, 4),
              related=((Span("a.axm", 1, 1, 4), "first declared here"),))
    lines = render_human(d).splitlines()
    assert lines[1] == "  a.axm:1:1: first declared here"


def test_render_human_severity_tokens():
    w = warning("W-INFERRED-VIA", "justification inferred: $not°T")
    n = Diagnostic(Severity.NOTE, "W-INFERRED-VIA", "for information")
    assert "warning[W-INFERRED-VIA]" in render_human(w)
    assert "note[" in render_human(n)


def test_render_machine_empty():
    assert render_machine([]) == ""


def test_render_machine_one_line_six_fields():
    d = error("E-SYNTAX", "expected a statement", Span("x.axm", 2, 5, 1))
    out = render_machine([d])
    assert out.count("\n") == 1
    fields = out.rstrip("\n").split("\t")
    assert fields == ["E-SYNTAX", "error", "x.axm", "2", "5", "expected a statement"]


def test_render_machine_sorts_by_position():
    diags = [
        error("E-SYNTAX", "later", Span("b.axm", 1, 1, 1)),
        error("E-SYNTAX", "earlier", Span("a.axm", 9, 9, 1)),
        error("E-SYNTAX", "mid", Span("b.axm", 1, 0, 1)),
    ]
    lines = render_machine(diags).splitlines()
    assert [line.split("\t")[5] for line in lines] == ["earlier", "mid", "later"]


def test_line_count_equals_diagnostic_count():
    diags = [error("E-SYNTAX", f"d{i}") for i in range(7)]
    assert len(render_machine(diags).splitlines()) == 7


def test_every_source_code_literal_is_published():
    # Closure: any E-/W- code string mentioned anywhere in the kernel source
    # must be in the published set.
    pattern = re.compile(r'"((?:E|W)-[A-Z-]+)"')
    found = set()
    for path in SRC.rglob("*.py"):
        found.update(pattern.findall(path.read_text(encoding="utf-8")))
    assert found, "expected to find code literals"
    assert found <= CODES


def test_exercised_error_paths_stay_inside_the_closed_set():
    from axiotome.syntax import parse_program
    from axiotome.typesys import build_registry, check_well_formed
    from axiotome.verifier import verify_theorem
    from axiotome.diagnostics import DiagnosticError

    emitted: set[str] = set()
    bad_sources = [
        "type X ≡ Sum[Missing]",
        "type X ≡ Product[]\ntype X ≡ Product[]",
        "theorem ¶t: mystery ↔ mystery\nproof\n  0. mystery\n",
    ]
    for source in bad_sources:
        try:
            program = parse_program(source)
        except DiagnosticError as exc:
            emitted.update(d.code for d in exc.diagnostics)
            continue
        registry, diags = build_registry(program)
        diags += check_well_formed(registry)
        for thm in registry.theorems.values():
            diags += list(verify_theorem(thm, registry).diagnostics)
        emitted.update(d.code for d in diags)
    assert emitted <= CODES and emitted
