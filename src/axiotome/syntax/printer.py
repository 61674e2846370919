"""Canonical pretty-printer.

Output always uses the Unicode glyphs and ``°`` name separators, desugars
infix applications to prefix form, drops comments, and indents proof bodies
by two spaces per level.  Formatting is idempotent and its output reparses
to an AST equal to the input (spans aside).
"""

from __future__ import annotations

from .nodes import (
    Axiom, ByCasesProof, CaseBlock, FormulaicBody, FunctionDecl, Justification,
    LinearProof, OperatorDecl, ProductBody, Program, ProofBody, Quantifier,
    RuleJustification, Term, TheoremDecl, TypeDecl, TypeExpr,
)


def format_type(ty: TypeExpr) -> str:
    parts: list[str] = []
    stack: list[TypeExpr | str] = [ty]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            parts.append(item)
        elif item.args:
            parts.append(item.name + "[")
            _push_arguments(stack, item.args, "]")
        else:
            parts.append(item.name)
    return "".join(parts)


def format_term(term: Term, annotations: dict[str, TypeExpr] | None = None) -> str:
    """Render a term; ``annotations`` marks metavariables whose first
    occurrence, in pre-order, should carry an inline ``: Type``
    annotation."""
    parts: list[str] = []
    stack: list[Term | str] = [term]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            parts.append(item)
            continue
        head, args = item.head, item.args
        if annotations is not None and not args and not item.type_args and head in annotations:
            parts.append(f"{head}: {format_type(annotations.pop(head))}")
            continue
        if item.type_args:
            head += f"[{', '.join(map(format_type, item.type_args))}]"
        if args:
            parts.append(head + "(")
            _push_arguments(stack, args, ")")
        else:
            parts.append(head)
    return "".join(parts)


def _push_arguments(stack: list, items: tuple, closing: str) -> None:
    """Push ``items`` with commas between them, then ``closing``, so that
    they pop in order."""
    stack.append(closing)
    for item in items[:0:-1]:
        stack.append(item)
        stack.append(", ")
    stack.append(items[0])


def format_quantifier(q: Quantifier) -> str:
    return f"∀{q.var} ∈ {format_type(q.domain)}"


def format_justification(j: Justification) -> str:
    if isinstance(j, RuleJustification):
        if len(j.names) == 1:
            return j.names[0]
        return f"({', '.join(j.names)})"
    rendered = ", ".join(format_quantifier(b) for b in j.bindings)
    return rendered if len(j.bindings) == 1 else f"({rendered})"


def _format_axiom(ax: Axiom) -> str:
    annotations = dict(ax.metavar_types)
    lhs = format_term(ax.lhs, annotations)
    rhs = format_term(ax.rhs, annotations)
    return f"{ax.name}: {lhs} ↔ {rhs}"


def _format_linear(proof: LinearProof, indent: int) -> list[str]:
    pad = " " * indent
    lines = []
    for step in proof.steps:
        line = f"{pad}{step.index}. {format_term(step.term)}"
        if step.justification is not None:
            line += f" via {format_justification(step.justification)}"
        lines.append(line)
    return lines


def _format_proof_body(body: ProofBody, indent: int) -> list[str]:
    """The lines of ``body`` at ``indent``, each case block two spaces in
    from its ``proof by cases`` and its body two more, read with a stack of
    the bodies and case blocks still to print."""
    lines: list[str] = []
    stack: list[tuple[ProofBody | CaseBlock, int]] = [(body, indent)]
    while stack:
        item, indent = stack.pop()
        if isinstance(item, LinearProof):
            lines.extend(_format_linear(item, indent))
            continue
        pad = " " * indent
        if isinstance(item, ByCasesProof):
            subjects = item.subjects[0] if len(item.subjects) == 1 else f"({', '.join(item.subjects)})"
            summands = " U ".join(format_type(s) for s in item.stated_summands)
            lines.append(f"{pad}proof by cases of {subjects} using {format_type(item.scrutinee)} = {summands}")
            stack.extend((case, indent + 2) for case in reversed(item.cases))
        else:
            header = f"{pad}case "
            if item.label is not None:
                header += f"{item.label}: "
            header += ", ".join(format_quantifier(q) for q in item.ranges) + ":"
            if item.restated is not None:
                header += f" {format_term(item.restated[0])} ↔ {format_term(item.restated[1])}"
            lines.append(header)
            stack.append((item.body, indent + 2))
    return lines


def _format_statement(stmt) -> str:
    if isinstance(stmt, TypeDecl):
        name = stmt.name
        if stmt.params:
            name += f"[{', '.join(stmt.params)}]"
        if isinstance(stmt.body, ProductBody):
            inner = ", ".join(f"{label}: {format_type(ty)}" for label, ty in stmt.body.fields)
            return f"type {name} ≡ Product[{inner}]"
        inner = ", ".join(format_type(s) for s in stmt.body.summands)
        return f"type {name} ≡ Sum[{inner}]"

    if isinstance(stmt, FunctionDecl):
        name = stmt.name
        if stmt.type_params:
            name += f"[{', '.join(stmt.type_params)}]"
        params = ", ".join(f"{p}: {format_type(t)}" for p, t in stmt.params)
        head = f"function {name}({params}) : {format_type(stmt.return_type)}"
        if isinstance(stmt.body, FormulaicBody):
            return f"{head} ≡ {format_term(stmt.body.term)}"
        lines = [head]
        lead = "  allowing "
        for i, ax in enumerate(stmt.body.axioms):
            prefix = lead if i == 0 else " " * len(lead)
            lines.append(prefix + _format_axiom(ax))
        return "\n".join(lines)

    if isinstance(stmt, OperatorDecl):
        return f"operator {stmt.glyph} ≡ {stmt.function_name}"

    if isinstance(stmt, TheoremDecl):
        header = f"theorem ¶{stmt.name}:"
        if stmt.quantifiers:
            header += " " + ", ".join(format_quantifier(q) for q in stmt.quantifiers) + ":"
        header += f" {format_term(stmt.lhs)} ↔ {format_term(stmt.rhs)}"
        if isinstance(stmt.proof, LinearProof):
            lines = [header, "proof", *_format_linear(stmt.proof, 2)]
        else:
            lines = [header, *_format_proof_body(stmt.proof, 0)]
        return "\n".join(lines)

    raise TypeError(f"cannot format node of type {type(stmt).__name__}")


def format_node(node) -> str:
    """Render a Program, Statement or Term back to canonical source."""
    if isinstance(node, Program):
        return "\n".join(_format_statement(s) for s in node.statements) + "\n"
    if isinstance(node, Term):
        return format_term(node)
    if isinstance(node, TypeExpr):
        return format_type(node)
    return _format_statement(node)
