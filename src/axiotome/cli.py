"""Batch command-line front end.

Commands: ``check`` (well-formedness + proof verification), ``validate``
(brute-force oracle over finite domains), ``eval`` (normalize a term),
``fill`` (repair proofs with omitted steps), ``fmt`` (canonical formatting).

Exit codes: 0 clean, 1 findings, 2 usage or I/O failure, 3 internal error (an
exception the kernel did not expect, reported on one line of ``err``).  All
files are read and merged into one registry before any verification, so
forward references across files behave exactly like one concatenated file.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from importlib import import_module
from pathlib import Path

from .diagnostics import Diagnostic, DiagnosticError, Severity, render_human, render_machine
from .syntax import (
    OperatorDecl, Program, TheoremDecl, format_justification, format_node,
    format_term, parse_program, parse_term_with_spans,
)
from .syntax.lexer import ALIASES, OPERATOR_GLYPHS
from .typesys import Registry, build_registry, check_well_formed
from .verifier import effective_quantifiers, verify_theorem

#: The module of each kernel function that only one command calls.  Such a
#: name is imported with its module on first use, so ``check`` and ``fmt``
#: load neither ``oracle`` nor ``search``.
_LAZY = {"brute_force_validate": ".oracle", "repair_theorem": ".search"}

#: This module, through which the commands call the ``_LAZY`` functions.
_cli = sys.modules[__name__]


def __getattr__(name: str):
    """A ``_LAZY`` function (PEP 562), imported on first use and then kept
    as a global of this module, where a caller may replace it."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_LAZY[name], __package__), name)
    return value


class _Exit(Exception):
    def __init__(self, code: int) -> None:
        self.code = code


def _parse_operator_flags(pairs: list[str], err) -> dict[str, str]:
    """The ``--operator`` pairs by glyph, each ASCII spelling mapped to its
    glyph; exit 2 on a malformed pair or a glyph that is not an infix
    operator."""
    operators = {}
    for pair in pairs:
        glyph, sep, fn = pair.partition("=")
        if not sep or not fn or not glyph:
            print(f"error: --operator expects GLYPH=FUNCTION, got {pair!r}", file=err)
            raise _Exit(2)
        glyph = ALIASES.get(glyph, glyph)
        if glyph not in OPERATOR_GLYPHS:
            spellings = sorted(OPERATOR_GLYPHS) + [a for a, g in ALIASES.items() if g in OPERATOR_GLYPHS]
            print(f"error: --operator glyph must be one of {' '.join(spellings)}, got {pair!r}", file=err)
            raise _Exit(2)
        operators[glyph] = fn
    return operators


def _read(path: str, err) -> str:
    """The text of ``path``; exit 2 if it cannot be read or is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError as exc:
        reason = f"not valid UTF-8 (byte {exc.start})"
    print(f"error: cannot read {path}: {reason}", file=err)
    raise _Exit(2)


def _load_programs(sources: list[tuple[str, str]], operators: dict[str, str]) \
        -> tuple[list[Program], list[Diagnostic]]:
    """Parse every file in order, threading operator declarations from
    earlier files into later ones; a file that does not parse is left out."""
    programs: list[Program] = []
    diagnostics: list[Diagnostic] = []
    ops = dict(operators)
    for path, text in sources:
        try:
            program = parse_program(text, path, dict(ops))
        except DiagnosticError as exc:
            diagnostics.extend(exc.diagnostics)
            continue
        programs.append(program)
        for stmt in program.statements:
            if isinstance(stmt, OperatorDecl):
                ops[stmt.glyph] = stmt.function_name
    return programs, diagnostics


def _build(paths: list[str], operators: dict[str, str], err) -> tuple[Registry, list[Program], list[Diagnostic]]:
    """The registry of every file's statements merged in order, each file's
    parse, and the diagnostics of parsing, building and well-formedness;
    exit 2 if a file cannot be read."""
    programs, diagnostics = _load_programs([(path, _read(path, err)) for path in paths], operators)
    merged = Program(tuple(stmt for program in programs for stmt in program.statements), ";".join(paths))
    registry, diags = build_registry(merged)
    diagnostics.extend(diags)
    diagnostics.extend(check_well_formed(registry))
    return registry, programs, diagnostics


def _escalate_strict(diags: list[Diagnostic], strict: bool) -> list[Diagnostic]:
    if not strict:
        return diags
    return [
        Diagnostic(Severity.ERROR, d.code, d.message, d.span, d.related)
        if d.code == "W-INFERRED-VIA" else d
        for d in diags
    ]


def _emit_diagnostics(diags: list[Diagnostic], machine: bool, out) -> None:
    if machine:
        text = render_machine(diags)
        if text:
            out.write(text)
        return
    color = hasattr(out, "isatty") and out.isatty() and not os.environ.get("NO_COLOR")
    ordered = sorted(diags, key=lambda d: (d.span.file, d.span.line, d.span.column))
    for d in ordered:
        print(render_human(d, color), file=out)


def _has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diags)


# ----------------------------------------------------------------- commands

def cmd_check(args, out, err) -> int:
    registry, programs, diags = _build(args.paths, args.operators, err)
    reports = []
    for stmt in (stmt for program in programs for stmt in program.statements):
        if isinstance(stmt, TheoremDecl) and registry.theorems.get(stmt.name) is stmt:
            reports.append(verify_theorem(stmt, registry))
    for report in reports:
        diags.extend(report.diagnostics)
    diags = _escalate_strict(diags, args.strict)
    _emit_diagnostics(diags, args.machine, out)
    if not args.machine:
        for report in reports:
            status = report.status
            if args.strict and report.inferred_justifications:
                status = "rejected"
            print(f"¶{report.theorem}: {status}", file=out)
    return 1 if _has_errors(diags) else 0


def cmd_validate(args, out, err) -> int:
    from .oracle import DEFAULT_BUDGET
    registry, _, diags = _build(args.paths, args.operators, err)
    _emit_diagnostics([d for d in diags if d.severity is Severity.ERROR], args.machine, out)
    if _has_errors(diags):
        return 1
    any_invalid = False
    for thm in registry.theorems.values():
        quantifiers, _ = effective_quantifiers(thm, registry)
        verdict = _cli.brute_force_validate(
            [(q.var, q.domain) for q in quantifiers], thm.lhs, thm.rhs, registry,
            getattr(args, "budget", DEFAULT_BUDGET),
        )
        detail = ""
        if verdict.status == "invalid":
            any_invalid = True
            if verdict.counterexample:  # a ground theorem is refuted without an assignment
                assignment = ", ".join(f"{v} = {format_term(t)}" for v, t in verdict.counterexample.items())
                detail = f" counterexample {assignment}"
        elif verdict.status == "inconclusive":
            detail = f" ({verdict.reason})"
        if args.machine:
            print(f"¶{thm.name}\t{verdict.status}\t{detail.strip()}", file=out)
        else:
            print(f"¶{thm.name}: {verdict.status}{detail}", file=out)
    return 1 if any_invalid else 0


def cmd_eval(args, out, err) -> int:
    registry, _, diags = _build(args.paths, args.operators, err)
    if _has_errors(diags):
        _emit_diagnostics(diags, args.machine, out)
        return 1
    operators = dict(registry.operators)
    operators.update(args.operators)
    try:
        term, spans = parse_term_with_spans(args.expression, "<expression>", operators)
        from .typesys import TypingContext, infer_type
        infer_type(term, TypingContext(), registry, spans)
    except DiagnosticError as exc:
        _emit_diagnostics(exc.diagnostics, args.machine, out)
        return 1
    from .oracle import DEFAULT_BUDGET, normalize
    budget = getattr(args, "budget", DEFAULT_BUDGET)
    result = normalize(term, registry, budget)
    if result.exhausted_budget:
        print(f"error: normalization budget of {budget} exhausted", file=err)
        return 1
    print(format_node(result.normal_form), file=out)
    return 0


def cmd_fill(args, out, err) -> int:
    if not args.in_place and not args.output:
        print("error: fill requires --output PATH or --in-place", file=err)
        return 2
    registry, programs, diags = _build(args.paths, args.operators, err)
    if _has_errors(diags):
        _emit_diagnostics(diags, args.machine, out)
        return 1
    # With no errors every file parsed, so the first program is the target's.
    target_path, target = args.paths[0], programs[0]

    from .search import SearchBudget
    given = vars(args)  # the budget flags given, over ``SearchBudget``'s defaults
    budget = SearchBudget(**{name: given[name] for name in SearchBudget._fields if name in given})
    patched_statements = []
    failed = False
    repaired_any = False
    for stmt in target.statements:
        if not isinstance(stmt, TheoremDecl):
            patched_statements.append(stmt)
            continue
        report = verify_theorem(stmt, registry)
        if report.accepted:
            patched_statements.append(stmt)
            continue
        outcome = _cli.repair_theorem(stmt, report, registry, budget)
        if outcome.theorem is None:
            failed = True
            patched_statements.append(stmt)
            print(f"¶{stmt.name}: not repairable by insertion", file=out)
            for ir in outcome.irreparable:
                where = " ".join(ir.case_path) + " " if ir.case_path else ""
                via = format_justification(ir.justification) if ir.justification else "(no via)"
                line = (f"  {where}step {ir.step_index}: via {via} does not justify "
                        f"{format_term(ir.prev)} into {format_term(ir.term)}")
                if ir.suggestion is not None:
                    line += f"; suggest via {format_justification(ir.suggestion)}"
                print(line, file=out)
            continue
        repaired_any = True
        patched_statements.append(outcome.theorem)
        print(f"¶{stmt.name}: repaired", file=out)
        for path, index, term, clause in outcome.inserted:
            where = " ".join(path) + " " if path else ""
            print(f"  {where}+ {index}. {format_term(term)} via {format_justification(clause)}", file=out)

    if not repaired_any and not failed:
        print("note: no repairs needed", file=out)
    rendered = format_node(Program(tuple(patched_statements), target_path))
    destination = target_path if args.in_place else args.output
    try:
        Path(destination).write_text(rendered, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {destination}: {exc.strerror}", file=err)
        return 2
    print(f"wrote {destination}", file=out)
    return 1 if failed else 0


def cmd_fmt(args, out, err) -> int:
    findings = 0
    for path in args.paths:
        text = _read(path, err)
        try:
            rendered = format_node(parse_program(text, path, dict(args.operators)))
        except DiagnosticError as exc:
            _emit_diagnostics(exc.diagnostics, args.machine, out)
            findings = 1
            continue
        if args.check:
            if rendered != text:
                print(f"{path}: needs formatting", file=out)
                findings = 1
        elif rendered != text:
            try:
                Path(path).write_text(rendered, encoding="utf-8")
            except OSError as exc:
                print(f"error: cannot write {path}: {exc.strerror}", file=err)
                return 2
            print(f"formatted {path}", file=out)
    return findings


# --------------------------------------------------------------- entry point

def _non_negative_int(text: str) -> int:
    """argparse type of the budget flags: a negative budget is a usage error."""
    try:
        if (value := int(text)) >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


@cache
def _arg_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use: once per process, and not at
    import.  A budget flag that is not given is left out of the parsed
    arguments, and the command that reads it supplies its module's default,
    so building the parser imports neither ``oracle`` nor ``search``."""
    parser = argparse.ArgumentParser(
        prog="axiotome",
        description="Check, validate, evaluate, repair and format Axiotome source files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("paths", nargs="+", help="input .axm files")
        p.add_argument("--machine", action="store_true", help="line-oriented machine output")
        p.add_argument("--operator", dest="operators", action="append", default=[],
                       metavar="G=F", help="treat infix glyph G as function F")

    p_check = sub.add_parser("check", help="verify declarations and proofs")
    common(p_check)
    p_check.add_argument("--strict", action="store_true",
                         help="reject steps whose justification had to be inferred")

    p_validate = sub.add_parser("validate", help="brute-force theorems over finite domains")
    common(p_validate)
    p_validate.add_argument("--budget", type=_non_negative_int, default=argparse.SUPPRESS,
                            help="normalization step budget")

    p_eval = sub.add_parser("eval", help="normalize a term over the loaded definitions")
    p_eval.add_argument("expression", help="term to evaluate")
    common(p_eval)
    p_eval.add_argument("--budget", type=_non_negative_int, default=argparse.SUPPRESS)

    p_fill = sub.add_parser(
        "fill", help="repair proofs with omitted steps",
        description="The first path is the repair target; remaining paths supply definitions.",
    )
    common(p_fill)
    p_fill.add_argument("--in-place", action="store_true", help="rewrite the first input file")
    p_fill.add_argument("--output", "-o", metavar="PATH", help="write the patched source here")
    p_fill.add_argument("--max-depth", type=_non_negative_int, default=argparse.SUPPRESS,
                        help="most hops in the chain that closes one gap")
    p_fill.add_argument("--max-nodes", type=_non_negative_int, default=argparse.SUPPRESS,
                        help="most distinct terms expanded per gap")

    p_fmt = sub.add_parser("fmt", help="canonically format source files")
    common(p_fmt)
    p_fmt.add_argument("--check", action="store_true", help="report differences without writing")

    return parser


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        # argparse prints help and usage errors to sys.stdout and sys.stderr.
        with redirect_stdout(out), redirect_stderr(err):
            args = _arg_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.operators = _parse_operator_flags(args.operators, err)
        handler = {
            "check": cmd_check,
            "validate": cmd_validate,
            "eval": cmd_eval,
            "fill": cmd_fill,
            "fmt": cmd_fmt,
        }[args.command]
        return handler(args, out, err)
    except _Exit as exc:
        return exc.code
    except Exception as exc:  # a kernel defect: report it on one line, never as a finding
        message = str(exc).replace("\n", " ")
        print(f"error: internal error: {type(exc).__name__}: {message}", file=err)
        return 3


if __name__ == "__main__":
    sys.exit(main())
