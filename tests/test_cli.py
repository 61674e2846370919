"""Command-line surface: exit codes, output contracts, flags."""

from __future__ import annotations

import io
import time

import pytest

from axiotome.cli import main
from axiotome.syntax import parse_program

from conftest import BASE_TYPES, BOOL_FNS, CORE, corpus_path, corpus_text

CORE_PATHS = [str(corpus_path(n)) for n in CORE]
BOOL_PATHS = [str(corpus_path(n)) for n in BOOL_FNS]
NOT_PATHS = [str(corpus_path(n)) for n in BASE_TYPES + ["not_function.axm"]]
BASE_PATHS = [str(corpus_path(n)) for n in BASE_TYPES]

#: A polymorphic sum over two nullary products, and a function over it.
OPT = """\
type Nil[A] ≡ Product[]
type Unit[A] ≡ Product[]
type Opt[A] ≡ Sum[Nil[A], Unit[A]]
function g(o: Opt[Boolean]) : Boolean
  allowing $g°N: g(Nil[Boolean]) ↔ False
           $g°U: g(Unit[Boolean]) ↔ False
theorem ¶t: ∀o ∈ Opt[Boolean]: g(o) ↔ False
proof by cases of o using Opt[Boolean] = Nil[Boolean] U Unit[Boolean]
"""


def run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# -------------------------------------------------------------------- check

def test_check_core_module_is_clean():
    code, out, _ = run("check", *CORE_PATHS)
    assert code == 0
    assert "¶notNotFalse: accepted" in out
    assert "¶and°LeftFalse: accepted" in out


def test_check_original_de_morgan_exits_one_with_four_findings():
    code, out, _ = run("check", *BOOL_PATHS, str(corpus_path("de_morgan_original.axm")), "--machine")
    assert code == 1
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 4
    assert all(l.startswith("E-UNJUSTIFIED-STEP\terror\t") for l in lines)


def test_check_faulty_fixture_exits_one_with_one_finding():
    code, out, _ = run("check", *BOOL_PATHS, str(corpus_path("not_not_false_faulty.axm")), "--machine")
    assert code == 1
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 1
    assert "E-UNJUSTIFIED-STEP" in lines[0] and "$not°T" in lines[0]


def test_check_strict_escalates_inferred_vias():
    relaxed, _, _ = run("check", *CORE_PATHS)
    strict, out, _ = run("check", *CORE_PATHS, "--strict")
    assert relaxed == 0 and strict == 1
    assert "¶notNotFalse: rejected" in out


def test_check_unreadable_file_exits_two():
    code, _, err = run("check", "no-such-file.axm")
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("command", ["check", "fmt"])
def test_file_that_is_not_utf8_exits_two(tmp_path, command):
    source = tmp_path / "bad.axm"
    source.write_bytes(b"type False \xff Product[]\n")
    code, out, err = run(command, str(source))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot read {source}: not valid UTF-8 (byte 11)\n"


def test_check_non_ascii_step_number_is_a_syntax_error(tmp_path):
    # NUMBER is [0-9]+, so a superscript two is no step number and never
    # reaches int() in the parser.
    source = tmp_path / "digit.axm"
    source.write_text("theorem t: False ↔ False\nproof\n  0. False\n  ². False\n", encoding="utf-8")
    code, out, _ = run("check", str(source), "--machine")
    assert code == 1
    assert out.startswith("E-SYNTAX\terror\t")
    assert "illegal character '²'" in out


def test_joint_checking_equals_concatenation(tmp_path):
    merged = tmp_path / "merged.axm"
    merged.write_text("".join(corpus_text(n) + "\n" for n in CORE), encoding="utf-8")
    separate = run("check", *CORE_PATHS, "--machine")
    joint = run("check", str(merged), "--machine")
    strip = lambda text: [l.split("\t")[0] + "|" + l.split("\t")[5] for l in text.splitlines() if l]
    assert separate[0] == joint[0]
    assert strip(separate[1]) == strip(joint[1])


def test_operator_injection_flag(tmp_path):
    source = tmp_path / "infix.axm"
    source.write_text(
        "theorem ¶t: ∀a ∈ Boolean: a ∨ a ↔ a\n"
        "proof by cases of a using Boolean = False U True\n"
        "case ∀a ∈ False:\n  0. a ∨ a\n  1. False ∨ False via ∀a ∈ False\n"
        "  2. False via $or°FF\n  3. a via ∀a ∈ False\n"
        "case ∀a ∈ True:\n  0. a ∨ a\n  1. True ∨ True via ∀a ∈ True\n"
        "  2. True via $or°TT\n  3. a via ∀a ∈ True\n",
        encoding="utf-8",
    )
    failing = run("check", *BOOL_PATHS, str(source))
    assert failing[0] == 1  # the glyph is undeclared without the flag
    code, out, _ = run("check", *BOOL_PATHS, str(source), "--operator", "∨=or")
    assert code == 0
    ascii_alias = run("check", *BOOL_PATHS, str(source), "--operator", "\\/=or")
    assert ascii_alias[0] == 0


@pytest.mark.parametrize("glyph, code", [("∨", 0), ("\\/", 0), ("x", 2), ("+", 2), ("forall", 2), ("∀", 2)])
def test_operator_flag_takes_only_infix_glyphs(glyph, code):
    # ``∨`` and ``∧``, or their ASCII spellings, can be infix operators; any
    # other glyph is a usage error, where it used to be ignored.
    paths = [*BOOL_PATHS, str(corpus_path("de_morgan_corrected.axm"))]
    got, out, err = run("check", *paths, "--operator", f"{glyph}=not")
    assert got == code
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1 and f"'{glyph}=not'" in err


def test_case_range_mismatch_shows_type_arguments(tmp_path):
    source = tmp_path / "opt.axm"
    source.write_text(OPT + "  case ∀o ∈ Nil[Boolean]:\n"
                      "    0. g(o)\n    1. g(Nil[Boolean]) via ∀o ∈ Nil[False]\n    2. False via $g°N\n"
                      "  case ∀o ∈ Unit[Boolean]:\n"
                      "    0. g(o)\n    1. g(Unit[Boolean]) via ∀o ∈ Unit[Boolean]\n    2. False via $g°U\n",
                      encoding="utf-8")
    code, out, _ = run("check", str(source), *BASE_PATHS)
    assert code == 1
    assert "step 1: case range binds o ∈ Nil[False], but the enclosing case binds o ∈ Nil[Boolean]" in out


# ----------------------------------------------------------------- validate

def test_validate_reports_statement_truth():
    code, out, _ = run("validate", *BOOL_PATHS, str(corpus_path("de_morgan_original.axm")))
    assert code == 0
    assert "¶deMorgan1: valid" in out


def test_validate_counterexample_exits_one(tmp_path):
    source = tmp_path / "wrong.axm"
    source.write_text("theorem ¶notIsId: ∀a ∈ Boolean: not(a) ↔ a\nproof\n  0. not(a)\n",
                      encoding="utf-8")
    code, out, _ = run("validate", *BOOL_PATHS, str(source))
    assert code == 1
    assert "¶notIsId: invalid counterexample a = False" in out


def test_validate_refutes_a_ground_theorem_without_an_assignment(tmp_path):
    source = tmp_path / "ground.axm"
    source.write_text("theorem ¶bad: not(False) ↔ False\nproof\n  0. not(False)\n", encoding="utf-8")
    code, out, _ = run("validate", *BOOL_PATHS, str(source))
    assert (code, out) == (1, "¶bad: invalid\n")
    code, out, _ = run("validate", *BOOL_PATHS, str(source), "--machine")
    assert (code, out) == (1, "¶bad\tinvalid\t\n")


def test_validate_infinite_domain_is_inconclusive(tmp_path):
    source = tmp_path / "nats.axm"
    source.write_text(
        corpus_text("natural_numbers.axm")
        + "theorem ¶idNat: ∀n ∈ NaturalNumber: n ↔ n\nproof\n  0. n\n",
        encoding="utf-8",
    )
    code, out, _ = run("validate", str(source))
    assert code == 0
    assert "¶idNat: inconclusive" in out


SPIN_IDENTITY = ("function spin(b: Boolean) : Boolean\n  allowing $spin: spin(b) ↔ spin(spin(b))\n"
                 "theorem ¶spinId: ∀a ∈ Boolean: spin(a) ↔ a\nproof\n  0. spin(a)\n")
IF_IDENTITY = "theorem ¶ifSame: ∀c ∈ Boolean, ∀a ∈ Boolean: if(c, a, a) ↔ a\nproof\n  0. if(c, a, a)\n"
IF_PATH = str(corpus_path("if_function.axm"))


@pytest.mark.parametrize("source, paths, budget, plain, machine", [
    # ``spin`` never terminates; its rule set is orthogonal, so validation
    # evaluates bottom-up and must still run out of budget.
    (SPIN_IDENTITY, (), "20", "¶spinId: inconclusive (normalization budget exhausted)\n",
     "¶spinId\tinconclusive\t(normalization budget exhausted)\n"),
    # ``if`` erases a branch, so its registry is reduced leftmost-outermost;
    # every assignment takes one step, which a budget of one exhausts.
    (IF_IDENTITY, (IF_PATH,), "1", "¶ifSame: inconclusive (normalization budget exhausted)\n",
     "¶ifSame\tinconclusive\t(normalization budget exhausted)\n"),
    (IF_IDENTITY, (IF_PATH,), "2", "¶ifSame: valid\n", "¶ifSame\tvalid\t\n"),
])
def test_validate_budget(tmp_path, source, paths, budget, plain, machine):
    path = tmp_path / "identity.axm"
    path.write_text(source, encoding="utf-8")
    argv = ("validate", *BOOL_PATHS, *paths, str(path), "--budget", budget)
    assert run(*argv) == (0, plain, "")
    assert run(*argv, "--machine") == (0, machine, "")


# --------------------------------------------------------------------- eval

def test_eval_examples():
    assert run("eval", "not(not(False))", *BOOL_PATHS) == (0, "False\n", "")
    assert run("eval", "or(False, True)", *BOOL_PATHS)[1] == "True\n"
    code, out, _ = run("eval", "if(True, False, True)", *BOOL_PATHS,
                       str(corpus_path("if_function.axm")))
    assert (code, out) == (0, "False\n")


def test_eval_rejects_unknown_names():
    code, out, _ = run("eval", "mystery(False)", *BOOL_PATHS)
    assert code == 1
    assert "E-UNRESOLVED" in out


#: A type error in each kind of typed term, and the output of ``check``: each
#: error points at the failing node's first occurrence (an argument mismatch
#: at the argument), an infix application at its first operand.
TYPE_ERRORS = {
    "proof step": (
        "operator ∧ ≡ and\n"
        "theorem ¶step: not(False) ↔ True\nproof\n  0. not(False)\n  1. and(not(Zero), not(Zero)) via $not°F\n"
        "theorem ¶infix: False ∧ True ↔ False\nproof\n  0. False ∧ True\n  1. False ∧ (True ∧ Zero) via $and°FT\n"
        "theorem ¶node: False ↔ False\nproof\n"
        "  0. False\n  1. not(Successor(True ∧ False)) via $not°F\n",
        "t.axm:5:14: error[E-TYPE-MISMATCH]: argument Zero of 'not': Zero does not conform to Boolean\n"
        "t.axm:9:22: error[E-TYPE-MISMATCH]: argument Zero of 'and': Zero does not conform to Boolean\n"
        "t.axm:13:20: error[E-TYPE-MISMATCH]: argument and(True, False) of 'Successor': "
        "Boolean does not conform to Number\n"
        "¶step: rejected\n¶infix: rejected\n¶node: rejected\n"),
    "theorem side": (
        "theorem ¶left: and(True, Zero) ↔ False\nproof\n  0. and(True, Zero)\n"
        "theorem ¶side: ∀b ∈ Boolean: not(b) ↔ or(b,\n    not(b, b))\nproof\n  0. not(b)\n",
        "t.axm:1:26: error[E-TYPE-MISMATCH]: argument Zero of 'and': Zero does not conform to Boolean\n"
        "t.axm:3:16: error[E-TYPE-MISMATCH]: argument Zero of 'and': Zero does not conform to Boolean\n"
        "t.axm:5:5: error[E-ARITY]: 'not' expects 1 argument(s), got 2\n"
        "t.axm:7:3: error[E-ENDPOINT-MISMATCH]: final term is not(b), expected or(b, not(b, b))\n"
        "¶left: rejected\n¶side: rejected\n"),
    "axiom side": (
        "function h(b: Boolean) : Boolean\n"
        "  allowing $h°F: h(False) ↔ and(True, Successor(Zero))\n"
        "           $h°T: h(mystery(True)) ↔ True\n",
        "t.axm:2:39: error[E-TYPE-MISMATCH]: argument Successor(Zero) of 'and': "
        "Successor does not conform to Boolean\n"
        "t.axm:3:20: error[E-UNRESOLVED]: unknown term head 'mystery'\n"),
    "formulaic body": (
        "function g(b: Boolean) : Boolean ≡ or(b, not(Zero))\nfunction g2(b: Boolean) : Boolean ≡ Zero\n",
        "t.axm:1:46: error[E-TYPE-MISMATCH]: argument Zero of 'not': Zero does not conform to Boolean\n"
        "t.axm:2:37: error[E-TYPE-MISMATCH]: body of 'g2' has type Zero, expected Boolean\n"),
}


@pytest.mark.parametrize("where", TYPE_ERRORS)
def test_type_errors_point_into_the_term(tmp_path, monkeypatch, where):
    source, expected = TYPE_ERRORS[where]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.axm").write_text(source, encoding="utf-8")
    assert run("check", *BOOL_PATHS, "t.axm") == (1, expected, "")


@pytest.mark.parametrize("expression, expected", [
    ("and(not(False), Successor(Zero))",
     "<expression>:1:17: error[E-TYPE-MISMATCH]: argument Successor(Zero) of 'and': "
     "Successor does not conform to Boolean\n"),
    ("or(False,\n mystery(True))", "<expression>:2:2: error[E-UNRESOLVED]: unknown term head 'mystery'\n"),
])
def test_eval_type_errors_point_into_the_expression(expression, expected):
    assert run("eval", expression, *BOOL_PATHS) == (1, expected, "")


def test_eval_of_a_deep_term_reports_the_budget():
    # The redex search walks with an explicit stack, so a term nested deeper
    # than the interpreter's recursion limit is reduced, not a crash.
    expression = "not(" * 1500 + "False" + ")" * 1500
    assert run("eval", expression, *NOT_PATHS, "--budget", "2") \
        == (1, "", "error: normalization budget of 2 exhausted\n")


def test_validate_names_a_polymorphic_infinite_domain_with_its_arguments(tmp_path):
    source = tmp_path / "pair.axm"
    source.write_text("theorem ¶t: ∀p ∈ Pair[Number, Boolean]: p ↔ p\nproof\n  0. p\n", encoding="utf-8")
    code, out, _ = run("validate", *BASE_PATHS, str(source))
    assert (code, out) == (0, "¶t: inconclusive (domain Pair[Number, Boolean] is not finite)\n")


# --------------------------------------------------------------------- fill

def test_fill_repairs_de_morgan(tmp_path):
    target = tmp_path / "repaired.axm"
    code, out, _ = run("fill", str(corpus_path("de_morgan_original.axm")), *BOOL_PATHS,
                       "-o", str(target))
    assert code == 0
    assert "¶deMorgan1: repaired" in out
    check = run("check", *BOOL_PATHS, str(target))
    assert check[0] == 0
    repaired = parse_program(target.read_text(encoding="utf-8"))
    corrected = parse_program(corpus_text("de_morgan_corrected.axm"))
    assert repaired.statements == corrected.statements


def test_fill_clean_file_is_a_formatting_noop(tmp_path):
    target = tmp_path / "out.axm"
    code, out, _ = run("fill", str(corpus_path("de_morgan_corrected.axm")), *BOOL_PATHS,
                       "-o", str(target))
    assert code == 0
    assert "no repairs needed" in out
    fmt_once = target.read_text(encoding="utf-8")
    run("fmt", str(target))
    assert target.read_text(encoding="utf-8") == fmt_once


def test_fill_reports_irreparable_with_suggestion(tmp_path):
    target = tmp_path / "out.axm"
    code, out, _ = run("fill", str(corpus_path("not_not_false_faulty.axm")), *BOOL_PATHS,
                       "-o", str(target))
    assert code == 1
    assert "not repairable by insertion" in out
    assert "suggest via $not°F" in out


def test_fill_inserts_only_steps_a_via_can_cite(tmp_path):
    # ``¶not`` is named like the function ``not``, so no ``via`` can cite
    # it; the gap it would close in one hop takes the two axioms instead.
    defs = tmp_path / "defs.axm"
    defs.write_text("theorem ¶not: not(not(False)) ↔ False\n"
                    "proof\n  0. not(not(False))\n  1. not(True) via $not°F\n  2. False via $not°T\n",
                    encoding="utf-8")
    source = tmp_path / "target.axm"
    source.write_text("theorem ¶t: not(not(False)) ↔ False\nproof\n  0. not(not(False))\n  1. False\n",
                      encoding="utf-8")
    target = tmp_path / "out.axm"
    code, out, _ = run("fill", str(source), *NOT_PATHS, str(defs), "-o", str(target))
    assert code == 0
    assert out.splitlines()[:3] == ["¶t: repaired", "  + 1. not(True) via $not°F", "  + 2. False via $not°T"]
    assert run("check", *NOT_PATHS, str(defs), str(target))[0] == 0


def test_fill_keeps_the_case_range_hops_check_heals(tmp_path):
    # Step 3 of the False case is omitted.  Step 5 of either case needs an
    # inferred rewrite before its case range, which ``check`` heals; ``fill``
    # used to insert that rewrite as well, in the True case too.
    text = corpus_text("triple_negation.axm")
    omitted = "  3. not(False) via $not°T\n"
    source = tmp_path / "gap.axm"
    source.write_text(text.replace(omitted + "  4. True via $not°F\n  5.", "  3. True via $not°F\n  4."),
                      encoding="utf-8")
    target = tmp_path / "out.axm"
    assert run("fill", str(source), *NOT_PATHS, "-o", str(target)) == (
        0, f"¶tripleNegation: repaired\n  a ∈ False + 3. not(False) via $not°T\nwrote {target}\n", "")
    # The omitted step is back, and the True case is written as it was read.
    (written,), (original,) = (parse_program(t).statements for t in (target.read_text(encoding="utf-8"), text))
    assert written.proof == original.proof
    code, out, _ = run("check", *NOT_PATHS, str(target))
    assert (code, out.count("W-INFERRED-VIA"), out.splitlines()[-1]) == (0, 2, "¶tripleNegation: accepted")


def test_fill_labels_cases_with_type_arguments(tmp_path):
    source = tmp_path / "opt.axm"
    source.write_text(OPT + "  case ∀o ∈ Nil[Boolean]:\n    0. g(o)\n    1. False via $g°N\n"
                      "  case ∀o ∈ Unit[Boolean]:\n    0. g(o)\n    1. False via $g°U\n", encoding="utf-8")
    target = tmp_path / "out.axm"
    code, out, _ = run("fill", str(source), *BASE_PATHS, "-o", str(target))
    assert code == 0
    assert out.splitlines()[:3] == [
        "¶t: repaired",
        "  o ∈ Nil[Boolean] + 1. g(Nil[Boolean]) via ∀o ∈ Nil[Boolean]",
        "  o ∈ Unit[Boolean] + 1. g(Unit[Boolean]) via ∀o ∈ Unit[Boolean]",
    ]


def test_fill_keeps_the_operator_flags(tmp_path):
    # The target is read once, with the flags, as ``check`` reads it.
    source = tmp_path / "infix.axm"
    source.write_text("theorem ¶t: False ∨ not(False) ↔ True\n"
                      "proof\n  0. False ∨ not(False)\n  1. True via $or°FT\n", encoding="utf-8")
    target = tmp_path / "out.axm"
    code, out, _ = run("fill", str(source), *BOOL_PATHS, "-o", str(target), "--operator", "∨=or")
    assert code == 0, out
    assert out.splitlines()[:2] == ["¶t: repaired", "  + 1. or(False, True) via $not°F"]
    assert run("check", *BOOL_PATHS, str(target))[0] == 0
    assert run("fill", str(source), *BOOL_PATHS, "-o", str(target))[0] == 1  # undeclared glyph


_DE_MORGAN_CASES = [("False", "False"), ("False", "True"), ("True", "False"), ("True", "True")]

#: de Morgan with steps 1-5 of every case left out and no vias: four 6-hop gaps.
_DE_MORGAN_6_HOPS = (
    "theorem ¶deMorgan1: ∀a ∈ Boolean, ∀b ∈ Boolean: not(and(a, b)) ↔ or(not(a), not(b))\n"
    "proof by cases of (a, b) using Boolean = False U True\n"
    + "".join(f"  case ∀a ∈ {x}, ∀b ∈ {y}:\n    0. not(and(a, b))\n    1. or(not(a), not(b))\n"
              for x, y in _DE_MORGAN_CASES)
)


@pytest.mark.parametrize("depth", ["4", "5"])
def test_fill_gives_up_on_six_hop_gaps_within_a_time_bound(tmp_path, depth):
    # No chain of at most five hops exists; the search must show it without
    # expanding the last layer's terms (about 1 s at depth 5 on a 2-core x86-64 VM).
    source = tmp_path / "de_morgan_6.axm"
    source.write_text(_DE_MORGAN_6_HOPS, encoding="utf-8")
    target = tmp_path / "out.axm"
    started = time.perf_counter()
    code, out, _ = run("fill", str(source), *BOOL_PATHS, "-o", str(target), "--max-depth", depth)
    assert time.perf_counter() - started < 30
    assert code == 1
    assert out == "".join(
        ["¶deMorgan1: not repairable by insertion\n"]
        + [f"  a ∈ {x}, b ∈ {y} step 1: via (no via) does not justify not(and(a, b)) into or(not(a), not(b))\n"
           for x, y in _DE_MORGAN_CASES]
        + [f"wrote {target}\n"])
    assert target.read_text(encoding="utf-8") == _DE_MORGAN_6_HOPS


# ---------------------------------------------------------------------- fmt

def test_fmt_is_idempotent(tmp_path):
    source = tmp_path / "file.axm"
    source.write_text(corpus_text("and_left_false_theorem.axm"), encoding="utf-8")
    run("fmt", str(source))
    once = source.read_bytes()
    run("fmt", str(source))
    assert source.read_bytes() == once


def test_fmt_normalizes_name_separators(tmp_path):
    source = tmp_path / "file.axm"
    source.write_text(corpus_text("and_left_false_theorem.axm"), encoding="utf-8")
    run("fmt", str(source))
    text = source.read_text(encoding="utf-8")
    assert "$and°FF" in text and "$and.FF" not in text


def test_fmt_check_flags_unformatted_files(tmp_path):
    source = tmp_path / "file.axm"
    source.write_text("type   False ≡ Product[]", encoding="utf-8")
    code, out, _ = run("fmt", "--check", str(source))
    assert code == 1
    assert "needs formatting" in out
    assert source.read_text(encoding="utf-8").startswith("type   False")  # untouched


def test_fmt_round_trips_a_5000_deep_term(tmp_path):
    k = 5000
    deep = "not(" * k + "False" + ")" * k
    canonical = f"theorem ¶deep: {deep} ↔ False\nproof\n  0. {deep}\n"
    source = tmp_path / "deep.axm"
    source.write_text(canonical.replace(" ↔ ", " <-> ").replace("0. ", "0.  "), encoding="utf-8")
    assert run("fmt", str(source)) == (0, f"formatted {source}\n", "")
    assert source.read_text(encoding="utf-8") == canonical
    assert run("fmt", "--check", str(source)) == (0, "", "")


def test_fmt_unparsable_file_exits_one(tmp_path):
    source = tmp_path / "bad.axm"
    source.write_text("type ≡ Product[", encoding="utf-8")
    code, out, _ = run("fmt", str(source))
    assert code == 1
    assert "E-SYNTAX" in out


# ------------------------------------------------------------------ general

def test_usage_error_exits_two():
    assert run("frobnicate", "x.axm")[0] == 2
    assert run("check")[0] == 2


def test_internal_error_exits_three_without_a_traceback(tmp_path, monkeypatch):
    # A kernel defect must not read as a finding.
    def broken(*args):
        raise RecursionError("maximum recursion depth exceeded\nin comparison")

    monkeypatch.setattr("axiotome.cli.verify_theorem", broken)
    code, out, err = run("check", *BOOL_PATHS, str(corpus_path("not_not_false_corrected.axm")))
    assert code == 3
    assert err == "error: internal error: RecursionError: maximum recursion depth exceeded in comparison\n"
    assert "Traceback" not in out + err


@pytest.mark.parametrize("k", [250, 1000, 5000])
def test_deep_step_is_checked(tmp_path, k):
    # Term equality is identity, and no walk on the way recurses.
    deep = "not(" * k + "False" + ")" * k
    step = "not(" * (k - 1) + "True" + ")" * (k - 1)
    source = tmp_path / "deep.axm"
    source.write_text(f"theorem ¶deep: {deep} ↔ {step}\nproof\n  0. {deep}\n  1. {step} via $not°F\n",
                      encoding="utf-8")
    assert run("check", *BOOL_PATHS, str(source)) == (0, "¶deep: accepted\n", "")


def _and_chain(leaves: list[str]) -> str:
    chain = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        chain = f"and({leaf}, {chain})"
    return chain


def _wide_tuple_theorem(k: int, first: str = "True", via: bool = True) -> str:
    """``k`` leaves ``not(False)`` turned into ``first`` and ``True``s in
    one step, by a ``via`` naming ``$not°F`` ``k`` times or by none."""
    lhs, rhs = _and_chain(["not(False)"] * k), _and_chain([first] + ["True"] * (k - 1))
    clause = f" via ({', '.join(['$not°F'] * k)})" if via else ""
    return f"theorem ¶wide: {lhs} ↔ {rhs}\nproof\n  0. {lhs}\n  1. {rhs}{clause}\n"


@pytest.mark.parametrize("k", [7, 10, 12])
def test_check_judges_a_wide_tuple_step_within_a_time_bound(tmp_path, k):
    # Each name of a tuple takes only the moves whose replacement the next
    # term holds, and a repeated name its moves in order: checking the whole
    # product of the names' matches took 3.3 s at k = 7 and 87 s at k = 8.
    # Without the order, rejecting took 26 s at k = 10 (2-core x86-64 VM).
    source = tmp_path / "wide.axm"
    source.write_text(_wide_tuple_theorem(k), encoding="utf-8")
    started = time.perf_counter()
    assert run("check", *BOOL_PATHS, str(source)) == (0, "¶wide: accepted\n", "")
    assert time.perf_counter() - started < 1
    source.write_text(_wide_tuple_theorem(k, first="False"), encoding="utf-8")
    started = time.perf_counter()
    code, out, _ = run("check", *BOOL_PATHS, str(source), "--machine")
    assert time.perf_counter() - started < 1
    lines = [l for l in out.splitlines() if l]
    assert code == 1 and len(lines) == 1
    assert lines[0].startswith("E-UNJUSTIFIED-STEP\terror\t") and "step 1:" in lines[0]


@pytest.mark.parametrize("k", [7, 12])
def test_fill_writes_a_wide_tuple_step_that_check_accepts(tmp_path, k):
    # Gap search inserts the k-way tuple itself and re-verifies it.
    source, target = tmp_path / "wide.axm", tmp_path / "out.axm"
    source.write_text(_wide_tuple_theorem(k, via=False), encoding="utf-8")
    started = time.perf_counter()
    code, out, _ = run("fill", str(source), *BOOL_PATHS, "-o", str(target))
    assert code == 0 and out.startswith("¶wide: repaired\n")
    assert target.read_text(encoding="utf-8") == _wide_tuple_theorem(k)
    assert run("check", *BOOL_PATHS, str(target)) == (0, "¶wide: accepted\n", "")
    assert time.perf_counter() - started < 2


def _tuple_of(name: str, k: int) -> str:
    return f"({', '.join([name] * k)})"


@pytest.mark.parametrize("k", [7, 12])
def test_fill_displaces_a_wide_tuple_step_within_a_time_bound(tmp_path, k):
    # The written k-way ``$not°T`` step belongs one hop later.  Displacing
    # it walks the clause's combinations, a repeated name taking its moves
    # in order: the whole product of its matches took 4.0 s at k = 7
    # (2-core x86-64 VM).
    lhs, rhs = _and_chain(["not(not(False))"] * k), _and_chain(["False"] * (k - 1))
    nots, falses = _and_chain(["not(True)"] * k), _and_chain(["False"] * k)
    source, target = tmp_path / "t.axm", tmp_path / "out.axm"
    source.write_text(f"theorem ¶t: {lhs} ↔ {rhs}\nproof\n  0. {lhs}\n  1. {nots} via {_tuple_of('$not°T', k)}\n"
                      f"  2. {rhs} via $and°FF\n", encoding="utf-8")
    started = time.perf_counter()
    code, out, err = run("fill", str(source), *BOOL_PATHS, "-o", str(target))
    assert (code, err) == (0, "")
    assert out == (f"¶t: repaired\n  + 1. {nots} via {_tuple_of('$not°F', k)}\n"
                   f"  + 2. {falses} via {_tuple_of('$not°T', k)}\nwrote {target}\n")
    assert target.read_text(encoding="utf-8") == (
        f"theorem ¶t: {lhs} ↔ {rhs}\nproof\n  0. {lhs}\n  1. {nots} via {_tuple_of('$not°F', k)}\n"
        f"  2. {falses} via {_tuple_of('$not°T', k)}\n  3. {rhs} via $and°FF\n")
    assert run("check", *BOOL_PATHS, str(target)) == (0, "¶t: accepted\n", "")
    assert time.perf_counter() - started < 2


@pytest.mark.parametrize("k", [7, 12])
def test_fill_gives_up_on_a_wide_tuple_step_within_a_time_bound(tmp_path, k):
    # Step 1 makes k - 1 rewrites, not k, and no insertion mends it, so
    # every image of its clause is tried and rejected: 5.5 s at k = 7 when
    # the images came from the whole product of its matches.
    lhs, rhs = _and_chain(["not(False)"] * k), _and_chain(["True"] * k)
    step = _and_chain(["not(False)"] + ["True"] * (k - 1))
    source, target = tmp_path / "t.axm", tmp_path / "out.axm"
    source.write_text(f"theorem ¶t: {lhs} ↔ {rhs}\nproof\n  0. {lhs}\n  1. {step} via {_tuple_of('$not°F', k)}\n"
                      f"  2. {rhs} via $not°F\n", encoding="utf-8")
    started = time.perf_counter()
    code, out, err = run("fill", str(source), *BOOL_PATHS, "-o", str(target))
    assert time.perf_counter() - started < 2
    assert (code, err) == (1, "")
    assert out == (f"¶t: not repairable by insertion\n  step 1: via {_tuple_of('$not°F', k)} does not justify "
                   f"{lhs} into {step}\nwrote {target}\n")


def test_check_rejects_a_five_name_tuple_within_a_time_bound(tmp_path):
    # Each of the five names rewrites every ``False`` leaf backwards, so the
    # unfiltered walk over twelve leaves visits about 12·11·10·9·8 combinations
    # (about 6 s on a 2-core x86-64 VM).  A tuple check keeps only the moves
    # whose replacement the next term holds: one per name here, and the
    # last leaf, which no name rewrites, differs.
    names = ["$not°T", "$and°FF", "$and°FT", "$and°TF", "$or°FF"]
    images = ["not(True)", "and(False, False)", "and(False, True)", "and(True, False)", "or(False, False)"]
    lhs, rhs = _and_chain(["False"] * 12), _and_chain(images + ["False"] * 6 + ["True"])
    source = tmp_path / "t.axm"
    source.write_text(f"theorem ¶t: {lhs} ↔ {rhs}\nproof\n  0. {lhs}\n  1. {rhs} via ({', '.join(names)})\n",
                      encoding="utf-8")
    started = time.perf_counter()
    code, out, _ = run("check", *BOOL_PATHS, str(source), "--machine")
    assert time.perf_counter() - started < 1
    lines = [l for l in out.splitlines() if l]
    assert code == 1 and len(lines) == 1
    assert lines[0].startswith("E-UNJUSTIFIED-STEP\terror\t") and "step 1:" in lines[0]


def test_deep_type_argument_is_checked(tmp_path):
    # Type expressions compare by their interned bare form, and typing a
    # polymorphic application walks its type arguments with a stack.
    deep = "List[" * 3000 + "Boolean" + "]" * 3000
    source = tmp_path / "deep.axm"
    source.write_text(f"theorem ¶deep: if(True, Nil[{deep}], Nil[{deep}]) ↔ Nil[{deep}]\nproof\n"
                      f"  0. if(True, Nil[{deep}], Nil[{deep}])\n  1. Nil[{deep}] via $if°True\n", encoding="utf-8")
    paths = [str(corpus_path(n)) for n in BASE_TYPES + ["polymorphic_lists.axm", "if_function.axm"]]
    assert run("check", *paths, str(source)) == (0, "¶deep: accepted\n", "")


def test_deep_declared_type_is_checked(tmp_path):
    # Resolving a quantifier's declared domain walks it with a stack.
    deep = "List[" * 3000 + "Boolean" + "]" * 3000
    source = tmp_path / "deep.axm"
    source.write_text(f"theorem ¶deep: ∀x ∈ {deep}: x ↔ x\nproof\n  0. x\n", encoding="utf-8")
    paths = [str(corpus_path(n)) for n in BASE_TYPES + ["polymorphic_lists.axm"]]
    assert run("check", *paths, str(source)) == (0, "¶deep: accepted\n", "")


def test_deep_declared_type_is_validated(tmp_path):
    # Enumerating a quantifier's declared domain walks it with a stack.
    deep = "List[" * 3000 + "Boolean" + "]" * 3000
    source = tmp_path / "deep.axm"
    source.write_text(f"theorem ¶deep: ∀x ∈ {deep}: x ↔ x\nproof\n  0. x\n", encoding="utf-8")
    paths = [str(corpus_path(n)) for n in BASE_TYPES + ["polymorphic_lists.axm"]]
    assert run("validate", *paths, str(source)) == (0, f"¶deep: inconclusive (domain {deep} is not finite)\n", "")


def _products(depth: int, fields: str) -> str:
    """Product types ``P0`` to ``P<depth>``, each but the last with
    ``fields`` fields of the next type."""
    return "".join(f"type P{i} ≡ Product[{', '.join(f'{x}: P{i + 1}' for x in fields)}]\n"
                   for i in range(depth)) + f"type P{depth} ≡ Product[]\n"


def test_long_product_chain_is_checked(tmp_path):
    # The W-INHABITATION check walks the product types a type's fields
    # reach with a worklist; at 3,000 types it ended in a RecursionError.
    source = tmp_path / "chain.axm"
    source.write_text(_products(1500, "a"), encoding="utf-8")
    assert run("check", str(source)) == (0, "", "")


def test_product_diamond_is_checked_quickly(tmp_path):
    # Each of the 2^40 paths down the diamond used to be walked.
    source = tmp_path / "diamond.axm"
    source.write_text(_products(40, "ab"), encoding="utf-8")
    started = time.perf_counter()
    assert run("check", str(source)) == (0, "", "")
    assert time.perf_counter() - started < 5


def test_long_product_chain_is_checked_quickly(tmp_path):
    # The W-INHABITATION check used to walk the rest of the chain from each
    # type, about 2 s here; one pass over the product-field graph takes 0.1 s.
    source = tmp_path / "chain.axm"
    source.write_text(_products(3000, "a"), encoding="utf-8")
    started = time.perf_counter()
    assert run("check", str(source)) == (0, "", "")
    assert time.perf_counter() - started < 1


def _nested_cases(depth: int, sibling: bool) -> str:
    """A theorem ``∀a ∈ Boolean: a ↔ a`` whose proof nests ``proof by
    cases`` ``depth`` deep in canonical layout.  Without ``sibling`` each
    level cases on ``a`` with a ``False`` case alone, so coverage fails at
    every level.  With it, level ``i`` cases on ``v<i>`` (the last on
    ``a``), its ``True`` case is one step, and the innermost ``False`` case
    lacks its first hop, ``a`` into ``False``, which ``fill`` inserts."""
    subjects = ["a"] * depth if not sibling else [f"v{i}" for i in range(depth - 1)] + ["a"]
    lines = ["theorem ¶t: ∀a ∈ Boolean: a ↔ a"]
    for i, subject in enumerate(subjects):
        pad = "  " * 2 * i
        lines += [f"{pad}proof by cases of {subject} using Boolean = False U True",
                  f"{pad}  case ∀{subject} ∈ False:"]
    pad = "  " * 2 * depth
    if not sibling:
        return "\n".join(lines + [f"{pad}0. a"]) + "\n"
    lines += [f"{pad}0. a", f"{pad}1. not(True)", f"{pad}2. False via $not°T", f"{pad}3. a via ∀a ∈ False"]
    for i in reversed(range(depth)):
        pad = "  " * (2 * i + 1)
        lines += [f"{pad}case ∀{subjects[i]} ∈ True:", f"{pad}  0. a"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("sibling", [False, True], ids=["false-cases", "both-cases"])
@pytest.mark.parametrize("command", ["check", "validate", "fmt", "fill"])
def test_proof_nested_a_thousand_cases_deep(tmp_path, command, sibling):
    # Parsing, printing, verification and repair walk nested case blocks
    # with stacks; at 350 levels each used to end in a RecursionError.
    source = tmp_path / "nested.axm"
    source.write_text(_nested_cases(1000, sibling), encoding="utf-8")
    argv = {"check": ["check", *NOT_PATHS, str(source)], "validate": ["validate", *NOT_PATHS, str(source)],
            "fmt": ["fmt", "--check", str(source)],
            "fill": ["fill", str(source), *NOT_PATHS, "-o", str(tmp_path / "filled.axm")]}[command]
    code, out, err = run(*argv)
    assert "internal error" not in out + err
    assert code == {"check": 1, "validate": 0, "fmt": 0, "fill": 1 - sibling}[command]
    if command == "fill" and sibling:
        assert run("check", *NOT_PATHS, str(tmp_path / "filled.axm"))[:2] == (0, "¶t: accepted\n")


def _orphan_cases(depth: int) -> str:
    """A theorem whose proof nests ``depth`` levels in canonical layout:
    level ``i`` cases on ``x<i>``, its ``False`` case cases on ``y<i>``,
    and its ``True`` case, met while that inner ``proof by cases`` is still
    open, holds level ``i + 1``."""
    names = ", ".join(f"∀{v}{i} ∈ Boolean" for i in range(depth) for v in "xy")
    lines = [f"theorem ¶t: ∀a ∈ Boolean, {names}: a ↔ a"]
    for i in range(depth):
        pad = "  " * 2 * i
        lines += [f"{pad}proof by cases of x{i} using Boolean = False U True", f"{pad}  case ∀x{i} ∈ False:",
                  f"{pad}    proof by cases of y{i} using Boolean = False U True",
                  f"{pad}      case ∀y{i} ∈ False:", f"{pad}        0. a",
                  f"{pad}      case ∀y{i} ∈ True:", f"{pad}        0. a", f"{pad}  case ∀x{i} ∈ True:"]
    return "\n".join(lines + ["  " * 2 * depth + "0. a"]) + "\n"


def test_case_block_owner_is_decided_at_its_header(tmp_path):
    # Each ``case ∀x<i> ∈ True:`` belongs to the enclosing proof by cases.
    # Reading its whole body before handing it back made parsing
    # exponential in the depth: 2.5 s at 14 levels.
    source = tmp_path / "orphans.axm"
    source.write_text(_orphan_cases(25), encoding="utf-8")
    started = time.perf_counter()
    assert run("check", *BASE_PATHS, str(source)) == (0, "¶t: accepted\n", "")
    assert run("fmt", "--check", str(source)) == (0, "", "")
    assert time.perf_counter() - started < 10


def test_sum_with_growing_type_arguments_is_a_finding(tmp_path):
    # A[Zero]'s summand closure is A[W[Zero]], A[W[W[Zero]]], ...: infinite.
    source = tmp_path / "growing.axm"
    source.write_text("type Zero ≡ Product[]\ntype W[T] ≡ Product[]\ntype A[T] ≡ Sum[A[W[T]]]\n"
                      "function f(x: A[Zero]) : Zero ≡ Zero\n"
                      "theorem ¶t: f(Zero) ↔ Zero\nproof\n  0. f(Zero)\n  1. Zero via f\n", encoding="utf-8")
    code, out, err = run("check", str(source))
    infinite = "error[E-INFINITE-SUM]: the summand closure of A[T] is infinite: a sum recurses with growing " \
               "type arguments"
    mismatch = "error[E-TYPE-MISMATCH]: argument Zero of 'f': Zero does not conform to A[Zero]"
    assert (code, err) == (1, "")
    assert out == f"{source}:3:1: {infinite}\n{source}:5:15: {mismatch}\n{source}:7:8: {mismatch}\n¶t: rejected\n"


def test_cyclic_sum_types_are_a_finding(tmp_path):
    # The summand closure of A is {A, B}: Zero conforms to neither.
    source = tmp_path / "cyclic.axm"
    source.write_text("type Zero ≡ Product[]\ntype A ≡ Sum[B]\ntype B ≡ Sum[A]\nfunction f(x: A) : A ≡ x\n"
                      "theorem ¶t: f(Zero) ↔ Zero\nproof\n  0. f(Zero)\n  1. Zero via f\n", encoding="utf-8")
    code, out, err = run("check", str(source))
    mismatch = "error[E-TYPE-MISMATCH]: argument Zero of 'f': Zero does not conform to A"
    assert (code, err) == (1, "")
    assert out == f"{source}:5:15: {mismatch}\n{source}:7:8: {mismatch}\n¶t: rejected\n"


def test_unreconciled_type_parameter_lies_at_the_argument(tmp_path):
    # ``if`` binds A to Zero at its second argument, then meets False.
    source = tmp_path / "reconcile.axm"
    source.write_text("theorem ¶r: if(True, Zero, False) ↔ Zero\nproof\n  0. if(True, Zero, False)\n"
                      "  1. Zero via $if°True\n", encoding="utf-8")
    paths = [str(corpus_path(n)) for n in BASE_TYPES + ["if_function.axm"]]
    code, out, _ = run("check", *paths, str(source))
    message = "error[E-TYPE-MISMATCH]: cannot reconcile Zero and False for type parameter 'A'"
    assert code == 1
    assert out == f"{source}:1:28: {message}\n{source}:3:21: {message}\n¶r: rejected\n"


def test_deep_unjustified_step_is_a_finding(tmp_path):
    # Comparing these 300-deep terms once overflowed the recursion limit.
    k = 300
    deep = "not(" * k + "False" + ")" * k
    shallower = "not(" * (k - 2) + "False" + ")" * (k - 2)
    source = tmp_path / "deep.axm"
    source.write_text(f"theorem ¶deep: {deep} ↔ {shallower}\nproof\n  0. {deep}\n  1. {shallower} via $not°F\n",
                      encoding="utf-8")
    code, out, err = run("check", *BOOL_PATHS, str(source))
    assert (code, err) == (1, "")
    assert out.endswith("¶deep: rejected\n") and out.count("error[E-UNJUSTIFIED-STEP]") == 1


DE_MORGAN = str(corpus_path("de_morgan_original.axm"))
BUDGET_FLAGS = {
    "fill --max-depth": ("fill", DE_MORGAN, *BOOL_PATHS, "-o", "out.axm", "--max-depth"),
    "fill --max-nodes": ("fill", DE_MORGAN, *BOOL_PATHS, "-o", "out.axm", "--max-nodes"),
    "validate --budget": ("validate", *BOOL_PATHS, "--budget"),
    "eval --budget": ("eval", "not(not(False))", *BOOL_PATHS, "--budget"),
}


@pytest.mark.parametrize("flag", BUDGET_FLAGS)
def test_negative_budget_is_a_usage_error(tmp_path, monkeypatch, capsys, flag):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(*BUDGET_FLAGS[flag], "-1")
    assert (code, out) == (2, "")
    assert "expected a non-negative integer, got '-1'" in err
    assert capsys.readouterr() == ("", "")  # nothing went to the process's own streams
    assert not (tmp_path / "out.axm").exists()
    assert run(*BUDGET_FLAGS[flag], "0")[0] in (0, 1)  # zero is a budget, not a usage error


@pytest.mark.parametrize("argv", [["--help"], *([command, "--help"] for command in
                                                  ("check", "validate", "eval", "fill", "fmt"))])
def test_help_goes_to_out(capsys, argv):
    code, out, err = run(*argv)
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: {' '.join(['axiotome', *argv[:-1]])} [-h]")
    assert capsys.readouterr() == ("", "")


def test_main_calls_in_a_row_do_not_share_state():
    # Flags of one call (an operator, a budget) must not reach the next.
    first = run("eval", "True ∧ False", *BOOL_PATHS, "--operator", "∧=and", "--budget", "0")
    assert first == (1, "", "error: normalization budget of 0 exhausted\n")
    code, out, _ = run("eval", "True ∧ False", *BOOL_PATHS)
    assert code == 1 and "used without an operator declaration" in out
    assert run("eval", "and(True, False)", *BOOL_PATHS) == (0, "False\n", "")
    assert run("check", *CORE_PATHS, "--strict", "--machine")[0] == 1  # inferred vias are errors
    assert run("check", *CORE_PATHS)[0] == 0
    code, _, err = run("check")
    assert code == 2 and "the following arguments are required: paths" in err


def test_machine_output_is_byte_stable_across_runs():
    args = ("check", *BOOL_PATHS, str(corpus_path("de_morgan_original.axm")), "--machine")
    assert run(*args) == run(*args)
