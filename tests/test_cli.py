"""Command-line surface: exit codes, output contracts, flags."""

from __future__ import annotations

import io

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


def test_internal_error_exits_three_without_a_traceback(tmp_path):
    # Comparing the 300-deep terms of this step overflows the interpreter's
    # recursion limit: a kernel defect, which must not read as a finding.
    k = 300
    deep = "not(" * k + "False" + ")" * k
    shallower = "not(" * (k - 2) + "False" + ")" * (k - 2)
    source = tmp_path / "deep.axm"
    source.write_text(f"theorem ¶deep: {deep} ↔ {shallower}\nproof\n  0. {deep}\n  1. {shallower} via $not°F\n",
                      encoding="utf-8")
    code, out, err = run("check", *BOOL_PATHS, str(source))
    assert code == 3
    assert err.startswith("error: internal error: RecursionError: ") and err.count("\n") == 1
    assert "Traceback" not in out + err


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
