"""Lexer, parser and formatter behaviour, including the alias closure."""

from __future__ import annotations

import importlib.util
import re
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiotome.diagnostics import DiagnosticError, Span
from axiotome.syntax import (
    Axiom, ByCasesProof, CaseBlock, CaseRangeJustification, EquationalBody, FormulaicBody, FunctionDecl,
    LinearProof, OperatorDecl, ProductBody, Program, ProofStep, Quantifier, RuleJustification, SumBody, Term,
    TheoremDecl, Token, TokenKind, TypeDecl, TypeExpr, format_node, parse_program, parse_term,
    parse_term_with_spans, tokenize,
)
from axiotome.syntax import lexer
from axiotome.syntax.lexer import NUMBER, RECALL, scan
from axiotome.syntax.parser import _Parser

from conftest import PROGRAM_FIXTURES, corpus_text, load_program
from test_fuzz import MUTATIONS, mutate


# ------------------------------------------------------------------ tokens

def test_axiom_name_is_one_token():
    tokens = tokenize("$not°F")
    assert len(tokens) == 1
    assert tokens[0].kind is TokenKind.AXIOM_NAME
    assert tokens[0].lexeme == "$not°F"


def test_dot_separator_normalizes_inside_axiom_names():
    tokens = tokenize("$and.FF")
    assert [t.lexeme for t in tokens] == ["$and°FF"]


def test_block_comment_becomes_trivia():
    tokens = tokenize("and(False, a) /* premiss */")
    assert len(tokens) == 6
    assert [t.lexeme for t in tokens] == ["and", "(", "False", ",", "a", ")"]
    # Trivia rides on the next token, so a comment at the end of input is dropped.
    assert all(t.trivia == () for t in tokens)
    trailing = tokenize("and(False, a) /* premiss */ x")
    assert trailing[-1].trivia == ("/* premiss */",)


def test_ascii_digraphs_normalize_to_unicode():
    assert tokenize("<->")[0] == tokenize("↔")[0]
    assert tokenize(":=")[0].lexeme == "≡"
    assert tokenize("forall")[0].lexeme == "∀"
    assert tokenize("in")[0].lexeme == "∈"
    assert tokenize("\\/")[0].lexeme == "∨"
    assert tokenize("/\\")[0].lexeme == "∧"


def test_empty_input_gives_empty_token_list():
    assert tokenize("") == []


def test_unterminated_block_comment_is_diagnosed():
    with pytest.raises(DiagnosticError) as exc:
        tokenize("type X /* oops")
    assert exc.value.diagnostics[0].code == "E-SYNTAX"
    assert "unterminated" in exc.value.diagnostics[0].message


def test_illegal_character_has_span():
    with pytest.raises(DiagnosticError) as exc:
        tokenize("type X ≡ @")
    d = exc.value.diagnostics[0]
    assert d.code == "E-SYNTAX"
    assert d.span.column == 10


def test_numbers_are_ascii_digits():
    assert [t.lexeme for t in tokenize("0129")] == ["0129"]
    for digit in ("²", "١"):
        with pytest.raises(DiagnosticError) as exc:
            tokenize(f"1{digit}")
        assert exc.value.diagnostics[0].message == f"illegal character {digit!r}"
        assert exc.value.diagnostics[0].span.column == 2


def test_token_equality_ignores_span_and_trivia():
    first, second = tokenize("not /* a */ not")
    assert first.span != second.span and first.trivia != second.trivia
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert first == Token(TokenKind.IDENT, "not")
    assert first != Token(TokenKind.KEYWORD, "not") and first != Token(TokenKind.IDENT, "and")
    assert first != tuple(first) and tuple(first) != first
    assert len({first, second, Token(TokenKind.IDENT, "and")}) == 2


@pytest.mark.parametrize("value", [Token(TokenKind.IDENT, "x"), Span("a.axm", 2, 3, 4)])
def test_tokens_and_spans_are_immutable(value):
    for name in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_span_repr_and_defaults():
    assert repr(Span("a.axm", 2, 3, 4)) == "Span(file='a.axm', line=2, column=3, length=4)"
    assert Span() == Span("<input>", 1, 1, 0)
    assert Token(TokenKind.EOF, "<eof>").span == Span() and Token(TokenKind.EOF, "<eof>").trivia == ()


def test_tokenizer_consumes_every_position():
    # Totality: every corpus file tokenizes without looping or dropping input.
    for name in PROGRAM_FIXTURES:
        assert tokenize(corpus_text(name), name)


#: Pieces spliced into corpus text: every lexical class, every digraph and
#: its lone first characters, and characters the grammar rejects.
_PIECES = list("/*\\<->$¶.°\n\r\t ()[]:=;,^≡↔∀∈∨∧@a0²١\xa0") + [
    "", "//", "/*", "*/", ":=", "<->", "\\/", "/\\", "forall", "in", "via", "$a.b", "¶c.d", "/* a\nb */",
]
_GLYPHS = {"forall": "∀", "in": "∈", ":=": "≡", "<->": "↔", "\\/": "∨", "/\\": "∧"}
_FILLER = re.compile(r"[ \t\r\n]+|//[^\n]*|/\*.*?\*/", re.S)


@st.composite
def mutated_corpus(draw):
    """A corpus file with a few slices replaced by pieces."""
    text = corpus_text(draw(st.sampled_from(PROGRAM_FIXTURES)))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, min(len(text), start + 8)))
        text = text[:start] + draw(st.sampled_from(_PIECES)) + text[stop:]
    return text


def _filler(gap: str) -> tuple[tuple[str, ...], bool]:
    """The comments in ``gap`` and whether it holds a newline outside them;
    ``gap`` must consist of whitespace and comments only."""
    pieces = [m.group() for m in _FILLER.finditer(gap)]
    assert "".join(pieces) == gap
    return tuple(p for p in pieces if p[0] == "/"), any("\n" in p for p in pieces if p[0] != "/")


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(mutated_corpus())
def test_token_spans_cover_mutated_corpus_text(source):
    line_starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]

    def offset(span):
        return line_starts[span.line - 1] + span.column - 1

    try:
        tokens = tokenize(source)
    except DiagnosticError as exc:
        diagnostic = exc.diagnostics[0]
        at = offset(diagnostic.span)
        tokenize(source[:at])  # the first offending character is the one reported
        if diagnostic.message == "unterminated block comment":
            assert source[at:at + 2] == "/*" and "*/" not in source[at + 2:]
            assert diagnostic.span.length == 2
        elif diagnostic.message.startswith("expected a name after"):
            assert source[at] in "$¶" and not re.match("[A-Za-z]", source[at + 1:at + 2])
        else:
            assert diagnostic.message == f"illegal character {source[at]!r}"
        return
    end, depth, previous = 0, 0, None
    for token in tokens + [None]:
        at = offset(token.span) if token else len(source)
        comments, newline = _filler(source[end:at])
        # A newline between tokens is one the lexer had to suppress.
        assert not newline or depth > 0 or previous in (None, TokenKind.NEWLINE)
        if token is None:
            break
        assert token.trivia == comments
        if token.kind is TokenKind.NEWLINE:
            assert depth == 0 and previous not in (None, TokenKind.NEWLINE)
        text = source[at:at + token.span.length]
        if token.kind in (TokenKind.AXIOM_NAME, TokenKind.THEOREM_NAME):
            assert token.lexeme == text.replace(".", "°")
        else:
            assert token.lexeme == _GLYPHS.get(text, text)
        if text in ("(", "["):
            depth += 1
        elif text in (")", "]"):
            depth = max(0, depth - 1)
        end, previous = at + len(text), token.kind


#: ASCII spellings of glyphs, spaced so that they stay separate tokens.
_RESPELLINGS = {"↔": "<->", "≡": ":=", "∀": "forall ", "∈": " in ", "∨": "\\/", "∧": "/\\", "°": "."}


@st.composite
def respaced_corpus(draw):
    """A corpus file with blanks and comments inserted before brackets,
    commas, colons and blanks, newlines after an opening bracket, and
    glyphs respelled in ASCII: text that mostly still parses, with its
    tokens moved and some lexemes longer."""
    text = corpus_text(draw(st.sampled_from(PROGRAM_FIXTURES)))
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            piece = draw(st.sampled_from([" ", "\t", "\n", "/* c */", "/* a\nb */"]))
            if piece == "\n":  # inside brackets, where it separates nothing
                at = [i for i, ch in enumerate(text) if text[i - 1:i] in ("(", "[")]
            else:
                at = [i for i, ch in enumerate(text) if ch in " ()[],:"]
        else:
            at = [i for i, ch in enumerate(text) if ch in _RESPELLINGS]
            piece = None
        if at:
            i = draw(st.sampled_from(at))
            text = text[:i] + piece + text[i:] if piece else text[:i] + _RESPELLINGS[text[i]] + text[i + 1:]
    return text


#: Every kind of AST node above the terms.
NODE_KINDS = (
    Axiom, ByCasesProof, CaseBlock, CaseRangeJustification, EquationalBody, FormulaicBody, FunctionDecl,
    LinearProof, OperatorDecl, ProductBody, Program, ProofStep, Quantifier, RuleJustification, SumBody,
    TheoremDecl, TypeDecl, TypeExpr,
)


def _nodes(root):
    """Every AST node under ``root``, walked with an explicit stack."""
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, NODE_KINDS):
            yield node
            stack.extend(node.args if isinstance(node, TypeExpr) else node)
        elif isinstance(node, tuple) and not isinstance(node, Span):
            stack.extend(node)


def test_node_walk_visits_every_node_of_the_corpus_programs():
    # The span test below finds its nodes with ``_nodes``; a walk that found
    # none would let it pass without checking a span.
    kinds = Counter(type(node).__name__ for name in PROGRAM_FIXTURES for node in _nodes(load_program(name)))
    assert len(PROGRAM_FIXTURES) == 19 and sum(kinds.values()) == 613
    assert kinds == {
        "Axiom": 12, "ByCasesProof": 10, "CaseBlock": 24, "CaseRangeJustification": 38, "EquationalBody": 4,
        "FormulaicBody": 1, "FunctionDecl": 5, "LinearProof": 23, "OperatorDecl": 2, "ProductBody": 9,
        "Program": 19, "ProofStep": 111, "Quantifier": 108, "RuleJustification": 48, "SumBody": 4,
        "TheoremDecl": 9, "TypeDecl": 13, "TypeExpr": 173,
    }


def _spanned_terms(node):
    """The terms a parsed node owns, each with its nodes' spans."""
    if isinstance(node, (ProofStep, FormulaicBody)):
        yield node.term, node.term_spans
    elif isinstance(node, (TheoremDecl, Axiom)):
        yield node.lhs, node.lhs_spans
        yield node.rhs, node.rhs_spans


def _preorder(term):
    stack = [term]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.args))


_KEYWORD_OF = {TypeDecl: "type", FunctionDecl: "function", OperatorDecl: "operator",
               TheoremDecl: "theorem", CaseBlock: "case"}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(mutated_corpus(), respaced_corpus()))
def test_parsed_spans_point_at_their_lexemes(source):
    line_starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]

    def text_at(span):
        start = line_starts[span.line - 1] + span.column - 1
        return source[start:start + span.length]

    try:
        program = parse_program(source)
    except DiagnosticError as exc:
        # A syntax error points at a token, the one it names if it names
        # one, or at nothing at the end of input.
        diagnostic = exc.diagnostics[0]
        try:
            lexemes = {t.span: t.lexeme for t in tokenize(source)}
        except DiagnosticError as lexical:
            assert lexical.diagnostics == exc.diagnostics
            return
        found = re.search(r"found ('.*')$", diagnostic.message)
        lexeme = lexemes.get(diagnostic.span, "<eof>" if diagnostic.span == Span() else None)
        assert lexeme is not None and (not found or found.group(1) == repr(lexeme))
        return
    operators = {d.function_name for d in program.statements if isinstance(d, OperatorDecl)}
    for node in _nodes(program):
        for term, spans in _spanned_terms(node):
            subterms = list(_preorder(term))
            assert len(spans) == len(subterms)
            for i, (sub, span) in enumerate(zip(subterms, spans)):
                if text_at(span) != sub.head:
                    # An infix application carries its first operand's span.
                    assert sub.head in operators and len(sub.args) == 2 and span == spans[i + 1]
        text = text_at(node.span) if hasattr(node, "span") else None
        if isinstance(node, TypeExpr):
            assert text == node.name
        elif isinstance(node, ProofStep):
            assert re.fullmatch("[0-9]+", text) and int(text) == node.index
        elif type(node) in _KEYWORD_OF:
            assert text == _KEYWORD_OF[type(node)]
        elif isinstance(node, Quantifier):
            assert text in ("∀", "forall")
        elif isinstance(node, Axiom):
            assert text.replace(".", "°") == node.name
        elif isinstance(node, RuleJustification):
            assert text == "(" or node.names[0].startswith(text.replace(".", "°").lstrip("¶"))
        elif isinstance(node, CaseRangeJustification):
            assert text in ("(", "∀", "forall")


# ----------------------------------------------------------------- parsing

def test_nullary_product_type():
    program = parse_program("type False ≡ Product[]")
    decl = program.statements[0]
    assert isinstance(decl, TypeDecl)
    assert decl.name == "False"
    assert decl.params == ()
    assert decl.body == ProductBody(())


def test_term_tree_depth():
    term = parse_term("not(and(not(False), True))")

    def depth(t: Term) -> int:
        return 1 + max((depth(a) for a in t.args), default=0)

    assert depth(term) == 4


def test_deep_term_parses_without_recursion():
    term = parse_term("not(" * 5000 + "False" + ")" * 5000)
    depth = 0
    while term.args:
        (term,) = term.args
        depth += 1
    assert depth == 5000 and term.head == "False"


def test_deep_type_argument_parses_without_recursion():
    deep = "List[" * 5000 + "Boolean" + "]" * 5000
    program = parse_program(f"theorem ¶t: nil[{deep}] ↔ nil[{deep}]\nproof\n  0. nil[{deep}]\n")
    (ty,) = program.statements[0].proof.steps[0].term.type_args
    depth = 0
    while ty.args:
        (ty,) = ty.args
        depth += 1
    assert depth == 5000 and ty.name == "Boolean"


@pytest.mark.parametrize("source, message, column", [
    ("f(a b)", "expected ), found 'b'", 5),
    ("(a b)", "expected ), found 'b'", 4),
    ("f(a, )", "expected a term, found ')'", 6),
    ("f[]", "expected a type name, found ']'", 3),
    ("f[A[B C]]", "expected ], found 'C'", 7),
    ("f[A](b", "expected ), found '<eof>'", None),
    ("f(a: A)", "type annotations are only allowed inside axiom terms", 4),
    ("a ∨ b", "infix operator '∨' used without an operator declaration", 3),
    ("a \\/ b", "infix operator '∨' used without an operator declaration", 3),
    ("(a ∨ b) ∨ c ∧ d", "mixing infix operators '∨' and '∧' requires parentheses", 13),
    ("a b", "unexpected trailing input after term", 3),
])
def test_term_diagnostics(source, message, column):
    with pytest.raises(DiagnosticError) as exc:
        parse_term(source, operators={"∨": "or"} if "(a ∨" in source else None)
    (diagnostic,) = exc.value.diagnostics
    assert diagnostic.message == message
    if column is None:  # at the end of input
        assert diagnostic.span == Span()
    else:
        assert (diagnostic.span.line, diagnostic.span.column) == (1, column)


@pytest.mark.parametrize("axiom, message, column", [
    ("$a: f(g(x): B) ↔ x", "only a bare metavariable can carry a type annotation", 11),
    ("$a: f(x ∨ y: B) ↔ x", "only a bare metavariable can carry a type annotation", 12),
    ("$a: f(x: B, x: C) ↔ x", "conflicting annotations for metavariable 'x'", 14),
    ("$a: f((x): B) ↔ g(x: B)", None, None),
    ("$a: f((x: B)) ↔ x", "expected ), found ':'", 9),
])
def test_axiom_annotations(axiom, message, column):
    source = f"operator ∨ ≡ or\nfunction f(x: B) : B allowing {axiom}"
    if message is None:
        (ax,) = parse_program(source).statements[1].body.axioms
        assert ax.metavar_types == (("x", TypeExpr("B")),)
        return
    with pytest.raises(DiagnosticError) as exc:
        parse_program(source)
    (diagnostic,) = exc.value.diagnostics
    assert (diagnostic.message, diagnostic.span.line, diagnostic.span.column) == (message, 2, column + 30)


def test_dotted_rule_names_merge_while_each_dot_follows_on_the_first_line():
    def names(justification):
        source = f"theorem ¶t: a ↔ a\nproof\n  0. a\n  1. a via {justification}\n"
        return parse_program(source).statements[0].proof.steps[1].justification.names

    assert names("and.Left.False") == ("and°Left°False",)
    assert names("and. Left") == ("and°Left",)
    assert names("(and.\nLeft, b)") == ("and°Left", "b")
    for unmerged in ("(and .Left)", "(and.\nLeft.False)"):
        with pytest.raises(DiagnosticError) as exc:
            names(unmerged)
        assert exc.value.diagnostics[0].message == "expected ), found '.'"


def test_spans_of_a_term_across_lines():
    step = parse_program("theorem ¶t: a ↔ a\nproof\n  0. f(\na,\n  g(b))\n").statements[0].proof.steps[0]
    # f, a, g and b in pre-order.
    assert [(span.line, span.column) for span in step.term_spans] == [(3, 6), (4, 1), (5, 3), (5, 5)]


def test_nullary_application_equals_bare_identifier():
    assert parse_term("False()") == parse_term("False")


def test_operator_declaration_desugars_infix():
    program = parse_program("operator ∨ ≡ or\ntheorem ¶t: a ∨ b ↔ b ∨ a\nproof\n  0. a ∨ b")
    thm = program.statements[1]
    assert thm.lhs == Term("or", (), (Term("a"), Term("b")))


def test_injected_operators_config():
    term = parse_term("a ∨ b", operators={"∨": "or"})
    assert term == Term("or", (), (Term("a"), Term("b")))


def test_infix_chain_is_left_associative():
    term = parse_term("a ∨ b ∨ c", operators={"∨": "or"})
    assert term == Term("or", (), (Term("or", (), (Term("a"), Term("b"))), Term("c")))


def test_infix_without_declaration_is_an_error():
    with pytest.raises(DiagnosticError) as exc:
        parse_term("a ∨ b")
    assert "operator" in exc.value.diagnostics[0].message


def test_mixing_infix_glyphs_requires_parentheses():
    ops = {"∨": "or", "∧": "and"}
    with pytest.raises(DiagnosticError):
        parse_term("a ∨ b ∧ c", operators=ops)
    term = parse_term("a ∨ (b ∧ c)", operators=ops)
    assert term.head == "or"
    assert term.args[1].head == "and"


def test_ascii_spelling_parses_to_identical_ast():
    unicode_src = "type Boolean ≡ Sum[False, True]"
    ascii_src = "type Boolean := Sum[False, True]"
    assert parse_program(unicode_src).statements == parse_program(ascii_src).statements


def test_semicolons_and_newlines_split_statements_identically():
    newline_form = corpus_text("product_types.axm")
    one_line = "; ".join(
        line.split("//")[0].strip() for line in newline_form.splitlines() if line.strip()
    )
    assert parse_program(one_line).statements == parse_program(newline_form).statements


def test_trailing_decomposition_annotation_is_discarded():
    with_annotation = (
        "theorem ¶t: ∀a ∈ Boolean: and(False, a) ↔ False\n"
        "proof by cases of a using (Boolean = False U True)2\n"
        "case ∀a ∈ False:\n  0. and(False, a)\n"
        "case ∀a ∈ True:\n  0. and(False, a)\n"
    )
    without = with_annotation.replace("(Boolean = False U True)2", "Boolean = False U True")
    assert parse_program(with_annotation).statements == parse_program(without).statements


def test_paired_justification_parens_are_optional():
    src_a = "theorem ¶t: a ↔ b\nproof\n  0. a\n  1. b via (∀a ∈ False, ∀b ∈ True)\n"
    src_b = "theorem ¶t: a ↔ b\nproof\n  0. a\n  1. b via ∀a ∈ False, ∀b ∈ True\n"
    assert parse_program(src_a).statements == parse_program(src_b).statements
    step = parse_program(src_a).statements[0].proof.steps[1]
    assert isinstance(step.justification, CaseRangeJustification)
    assert [q.var for q in step.justification.bindings] == ["a", "b"]


def test_rule_tuple_justification():
    src = "theorem ¶t: a ↔ b\nproof\n  0. a\n  1. b via ($not°F, $not°T)\n"
    step = parse_program(src).statements[0].proof.steps[1]
    assert step.justification == RuleJustification(("$not°F", "$not°T"))


def test_mixed_justification_tuple_is_rejected():
    src = "theorem ¶t: a ↔ b\nproof\n  0. a\n  1. b via ($not°F, ∀a ∈ False)\n"
    with pytest.raises(DiagnosticError) as exc:
        parse_program(src)
    assert "mixes" in exc.value.diagnostics[0].message


def test_pilcrow_is_optional_in_ascii_mode():
    with_pilcrow = corpus_text("not_not_false_corrected.axm")
    without = with_pilcrow.replace("¶", "")
    assert parse_program(with_pilcrow).statements == parse_program(without).statements


def test_multi_variable_case_split_parses():
    program = load_program("de_morgan_original.axm")
    proof = program.statements[0].proof
    assert proof.subjects == ("a", "b")
    assert len(proof.cases) == 4
    assert all(len(c.ranges) == 2 for c in proof.cases)


def test_nested_named_cases_attach_to_the_right_level():
    program = load_program("or_commutativity.axm")
    outer = program.statements[1].proof
    assert [c.label for c in outer.cases] == ["A", "B"]
    for case in outer.cases:
        assert [c.label for c in case.body.cases] in (["A1", "A2"], ["B1", "B2"])


def test_syntax_error_carries_expected_hint():
    with pytest.raises(DiagnosticError) as exc:
        parse_program("type ≡ Product[]")
    assert "expected" in exc.value.diagnostics[0].message


def test_step_zero_keeps_no_justification_marker():
    program = load_program("not_not_false_theorem.axm")
    proof = program.statements[0].proof
    assert isinstance(proof, LinearProof)
    assert proof.steps[0].justification is None
    assert proof.steps[2].justification is None  # comment-only justification


# -------------------------------------------------------------- formatting

@pytest.mark.parametrize("name", PROGRAM_FIXTURES)
def test_round_trip_every_corpus_file(name):
    program = load_program(name)
    rendered = format_node(program)
    reparsed = parse_program(rendered, name)
    assert reparsed.statements == program.statements


@pytest.mark.parametrize("name", PROGRAM_FIXTURES)
def test_format_is_idempotent(name):
    program = load_program(name)
    once = format_node(program)
    assert format_node(parse_program(once, name)) == once


def test_format_normalizes_separators():
    program = parse_program(
        "function and(a: Boolean, b: Boolean) : Boolean\n"
        "  allowing $and.FF: and(False, False) ↔ False"
    )
    assert "$and°FF" in format_node(program)


def test_format_reconstructs_inline_annotations():
    rendered = format_node(load_program("if_function.axm"))
    assert "if(True, a: A, b: A) ↔ a" in rendered


def test_term_fixture_round_trips():
    for line in corpus_text("term_examples.axm").splitlines():
        source = line.split("//")[0].strip()
        if not source:
            continue
        term = parse_term(source)
        assert parse_term(format_node(term)) == term


# ------------------------------------------------------------ alias closure

def _asciiize(text: str) -> str:
    text = text.replace("≡", ":=").replace("↔", "<->")
    text = text.replace("∀", "forall ").replace("∈", "in")
    text = text.replace("∨", "\\/").replace("∧", "/\\")
    text = text.replace("¶", "")
    return text.replace("°", ".")


@pytest.mark.parametrize("name", PROGRAM_FIXTURES)
def test_alias_closure_on_corpus(name):
    unicode_form = corpus_text(name)
    ascii_form = _asciiize(unicode_form)
    assert parse_program(ascii_form, name).statements == parse_program(unicode_form, name).statements


# -------------------------------------------------------- repeated subterms

class _Forgetful(dict):
    """A memo that keeps nothing, so that every term is read token by token."""

    def __setitem__(self, key, value):
        pass


@contextmanager
def _memo_of(kind):
    """Parse with a new ``kind`` as each parser's memo."""
    init = _Parser.__init__

    def with_memo(self, *args):
        init(self, *args)
        self.memo = kind()

    with mock.patch.object(_Parser, "__init__", with_memo):
        yield


def _read(source: str, term: bool = False):
    """What parsing ``source`` gives, spans included: the term and its
    spans, or each node of the program with its span and its terms' spans,
    or the diagnostics."""
    try:
        if term:
            parsed, spans = parse_term_with_spans(source)
            return parsed, list(spans)
        return [(type(node), node, getattr(node, "span", None),
                 [list(getattr(node, field)) for field in getattr(node, "_fields", ()) if field.endswith("_spans")])
                for node in _nodes(parse_program(source))]
    except DiagnosticError as exc:
        return [(d.code, d.message, d.span) for d in exc.diagnostics]


def _assert_memo_changes_nothing(source: str, term: bool = False) -> None:
    read = _read(source, term)
    with _memo_of(_Forgetful):
        assert _read(source, term) == read


def _generated_programs():
    """The definitions and every job file of each benchmark workload at
    seeds 101 and 202."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).parent.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # for its dataclasses
    try:
        spec.loader.exec_module(workloads)
        return [workloads.DEFS] + [job.text for workload in workloads.WORKLOADS for seed in (101, 202)
                                   for job in workloads.generate(workload, seed)]
    finally:
        del sys.modules[spec.name]


def test_memo_reads_the_corpus_and_generated_programs_as_tokens_do():
    hits = []

    class Counted(dict):
        """A memo that records whether each lookup of a recall token finds a term."""

        def get(self, key):
            kept = dict.get(self, key)
            hits.append(kept is not None)
            return kept

    with _memo_of(Counted), mock.patch.object(_Forgetful, "get", Counted.get):
        for name in PROGRAM_FIXTURES:
            _assert_memo_changes_nothing(corpus_text(name))
        for line in corpus_text("term_examples.axm").splitlines():
            _assert_memo_changes_nothing(line.split("//")[0], term=True)
        for source in _generated_programs():
            _assert_memo_changes_nothing(source)
    # Both sides look up; only the memo that keeps terms can find one, and
    # on the generated proofs it finds most.
    assert sum(hits) > len(hits) / 4


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(MUTATIONS.map(lambda m: mutate(corpus_text(m[0]), *m[1:])), respaced_corpus()))
def test_memo_reads_mutated_and_respaced_corpus_text_as_tokens_do(source):
    _assert_memo_changes_nothing(source)


def _proof(*steps: str) -> str:
    return "theorem ¶t: a ↔ a\nproof\n" + "".join(f"  {i}. {step}\n" for i, step in enumerate(steps))


def _steps(program):
    return [step for thm in program.statements if isinstance(thm, TheoremDecl) for step in thm.proof.steps]


@pytest.mark.parametrize("source, observe, expected", [
    pytest.param(
        "operator ∧ ≡ and\n" + _proof("not(a ∧ b)") + "operator ∧ ≡ or\n" + _proof("not(a ∧ b)"),
        lambda program: [step.term for step in _steps(program)],
        [parse_term("not(and(a, b))"), parse_term("not(or(a, b))")],
        id="redeclared operator"),
    pytest.param(
        _proof("f(a, b)") + "function f(x: B, y: B) : B\n  allowing $l: f(a: B, b) ↔ a\n"
        "           $r: f(a: B, b) ↔ b\n",
        lambda program: [ax.metavar_types for ax in program.statements[1].body.axioms],
        [(("a", TypeExpr("B")),)] * 2,
        id="annotated axioms"),
    pytest.param(
        _proof("f(\na, /* c */\n  g(b))", "f(\na, /* c */\n  g(b))"),
        lambda program: [[(span.line, span.column) for span in step.term_spans] for step in _steps(program)],
        [[(3, 6), (4, 1), (5, 3), (5, 5)], [(6, 6), (7, 1), (8, 3), (8, 5)]],
        id="spans across lines"),
    pytest.param(
        "operator ∧ ≡ and\n" + _proof("not(a ∧ b)", "not( a /\\ b )", "not(a∧b)"),
        lambda program: [(step.term, [(span.column, span.length) for span in step.term_spans])
                         for step in _steps(program)],
        [(parse_term("not(and(a, b))"), spans)
         for spans in ([(6, 3), (10, 1), (10, 1), (14, 1)], [(6, 3), (11, 1), (11, 1), (16, 1)],
                       [(6, 3), (10, 1), (10, 1), (12, 1)])],
        id="respelled repeat"),
])
def test_repeated_subterms_read_as_their_own_text(source, observe, expected):
    assert observe(parse_program(source)) == expected


def test_an_annotation_read_in_an_axiom_is_not_recalled_outside_one():
    source = "function f(x: B) : B\n  allowing $l: f(a: B) ↔ a\n" + _proof("f(a: B)")
    with pytest.raises(DiagnosticError) as exc:
        parse_program(source)
    assert exc.value.diagnostics[0].message == "type annotations are only allowed inside axiom terms"


# ------------------------------------------------------------ recall tokens

@contextmanager
def _nothing_recalled():
    """Scan with a step-root search that finds nothing, so that every term
    is read from its own tokens."""
    with mock.patch.object(lexer, "_STEP_ROOT", re.compile("(?!)")):
        yield


def _columns(scanned):
    return list(zip(scanned.kinds, scanned.lexemes, scanned.starts, scanned.texts))


def _assert_recalls_stand_for_their_tokens(source: str) -> int | None:
    """Each recall token of ``source`` follows a step's ``<digits> .`` at the
    start of a line, holds text written earlier, and unfolds to the tokens
    that a scan with nothing recalled has in its place; returns how many
    there are, or None if scanning fails, as it then does with nothing
    recalled."""
    with _nothing_recalled():
        try:
            whole = scan(source)
        except DiagnosticError as exc:
            whole = exc.diagnostics
    try:
        scanned = scan(source)
    except DiagnosticError as exc:
        assert exc.diagnostics == whole
        return None
    unfolded = []
    recalls = 0
    for i, token in enumerate(_columns(scanned)):
        if token[0] is not RECALL:
            unfolded.append(token)
            continue
        recalls += 1
        start, text, number = scanned.starts[i], scanned.texts[i], scanned.starts[i - 2]
        assert scanned.kinds[i - 2] is NUMBER and scanned.lexemes[i - 1] == "."
        assert source[source.rfind("\n", 0, number) + 1:number].strip(" \t\r") == ""
        assert source[start:start + len(text)] == text and source.find(text) < start
        inner = scanned.unfold(i)
        assert inner.lexemes[-2] == ")" and inner.starts[-1] == start + len(text)
        unfolded += _columns(inner)[:-1]
    assert unfolded == _columns(whole)
    return recalls


def _assert_recall_changes_nothing(source: str) -> None:
    """Parsing ``source`` gives the same with recall tokens, with nothing
    recalled, and with recall tokens that all miss the memo."""
    read = _read(source)
    with _nothing_recalled():
        assert _read(source) == read
    with _memo_of(_Forgetful):
        assert _read(source) == read


def test_recall_tokens_read_the_corpus_and_generated_programs_as_tokens_do():
    # Reading each recall token's text, as a memo that never stores does,
    # is compared in ``test_memo_reads_the_corpus_and_generated_programs_as_tokens_do``.
    recalls = 0
    for source in [corpus_text(name) for name in PROGRAM_FIXTURES] + _generated_programs():
        recalls += _assert_recalls_stand_for_their_tokens(source) or 0
        read = _read(source)
        with _nothing_recalled():
            assert _read(source) == read
    assert recalls > 10000


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(mutated_corpus(), MUTATIONS.map(lambda m: mutate(corpus_text(m[0]), *m[1:])), respaced_corpus()))
def test_recall_tokens_read_mutated_and_respaced_corpus_text_as_tokens_do(source):
    _assert_recalls_stand_for_their_tokens(source)
    _assert_recall_changes_nothing(source)


@pytest.mark.parametrize("source, recalls", [
    pytest.param(_proof("f(g(a))", "f(g(a))") + "// f(g(a))\n" + _proof("f(g(a))"), 1,
                 id="repeats before a line comment"),
    pytest.param("// a note\n" + _proof("f(g(a))", "f(g(a))"), 0, id="repeats after a line comment"),
    pytest.param(_proof("f(g(a))", "f(g(a))") + "/* a\n  1. f(g(a))\n  2. f(g(a))\n*/\n" + _proof("f(g(a))"), 1,
                 id="step lines in a block comment"),
    pytest.param("/* a\n  1. f(g(a))\n*/\n" + _proof("f(g(a))", "f(g(a))"), 0, id="repeats after a block comment"),
    pytest.param("operator ∧ ≡ and\noperator ∨ ≡ or\n"
                 + _proof("not(and(a, b))", "not(and(a, b))", "not(a /\\ b)", "not(a \\/ b)", "not(and(a, b))"), 1,
                 id="ascii operators"),
    pytest.param(_proof("xvia(a)", "via(a)"), 1, id="keyword head"),
    pytest.param(_proof("xforall(a)", "forall(a)"), 1, id="alias head"),
    pytest.param(_proof("pin(a)", "in(a, b)", "in(a)"), 1, id="alias head after a step"),
    pytest.param(_proof("f(a#)", "f(a#)"), None, id="illegal character"),
    pytest.param(_proof("f(°a)", "f(°a)"), None, id="illegal degree sign"),
    pytest.param(_proof("f(a, $)", "f(a, $)"), None, id="dollar without a name"),
    pytest.param(_proof("f(g(a))", "f(g(a)) @"), None, id="illegal character after a repeat"),
    pytest.param("operator ∧ ≡ and\n" + _proof("not(a ∧ b)")
                 + "operator ∧ ≡ or\n" + _proof("not(a ∧ b)"), 1, id="operator redeclared"),
    pytest.param("function f(x: B, y: B) : B\n  allowing $l: f(a, g(b)) ↔ a\n" + _proof("f(a, g(b))"), 1,
                 id="axiom text"),
    pytest.param(_proof("f(g(a))", "f(g(a)]", "f(g(a))"), 1, id="a bracket closed by ]"),
    pytest.param(_proof("f(g(a))", "f([g(a))", "f(g(a))"), 0, id="a bracket never closed"),
    pytest.param(_proof("f(g(a))", "f(g(a),\n  g(a))", "f(g(a),\n  g(a))"), 1, id="a repeat across lines"),
    pytest.param(_proof("f(g(a))", "f(\n  g(a))", "f(\n  g(a))"), 0, id="a first line that closes nothing"),
])
def test_recall_tokens_read_as_their_own_text(source, recalls):
    assert _assert_recalls_stand_for_their_tokens(source) == recalls
    _assert_recall_changes_nothing(source)


def test_scan_recalls_only_step_terms_that_are_written_earlier():
    source = ("function f(x: B) : B\n  allowing $l: f(g(a)) ↔ a\n"
              "theorem ¶t: f(g(a)) ↔ f(g(a))\nproof\n"
              "  0. f(g(a))\n  1. f(g(a)) via $l\n  2. g(f(g(a)))\n  3. (f(g(a)))\n  4. f(g(a)) ∧ f(g(a))\n"
              "  5. f(g(b),\n  6. f(g(a)))\n  7. f(g(a)); 8. f(g(a))\n  9.f(g(a))\n10 . f(g(b))\n11. f(g(b))\n"
              "12. f(\n13. f(g(a)))\n")
    scanned = scan(source)
    # Step 6 lies inside step 5's brackets; step 12's first line closes
    # nothing, so it is not a root, and step 13 inside it is one.
    assert [scanned.lexemes[i - 2] for i, kind in enumerate(scanned.kinds) if kind is RECALL] == \
        ["0", "1", "4", "7", "9", "11", "13"]
    assert _assert_recalls_stand_for_their_tokens(source) == 7


def test_distinct_step_lines_scan_in_linear_time():
    # No step repeats another, so each looks back only a few times its own
    # length for an earlier copy, not over the whole file.
    source = _proof(*(f"not(not(x{i}))" for i in range(20000)))
    start = time.perf_counter()
    scanned = scan(source)
    assert time.perf_counter() - start < 1.0
    assert RECALL not in scanned.kinds


def test_repeated_steps_that_miss_parse_in_linear_time():
    # Every recall token misses a memo that never stores, and the tokens of
    # each step's second operand stay after it: reading a missed text must
    # not move them.
    term = "not(" * 6 + "False" + ")" * 6
    source = "operator ∧ ≡ and\n" + _proof(*[f"{term} ∧ {term}"] * 16000)
    with _memo_of(_Forgetful):
        start = time.perf_counter()
        (thm,) = parse_program(source).statements[1:]
        assert time.perf_counter() - start < 4.0
    assert len(thm.proof.steps) == 16000 and sum(kind is RECALL for kind in scan(source).kinds) == 15999


def test_a_deep_step_parses_in_linear_time():
    # Keeping the text of every application of one step would cost the
    # square of its depth.
    source = _proof("not(" * 30000 + "False" + ")" * 30000)
    start = time.perf_counter()
    (step,) = _steps(parse_program(source))
    assert time.perf_counter() - start < 3.0
    assert len(step.term_spans) == 30001


def test_distinct_deep_steps_parse_in_linear_time_and_space():
    # No step repeats another, so the memo only costs; the program's own
    # terms are built by the first parse, and the second one is measured.
    source = _proof(*("not(" * 1000 + f"x{i}" + ")" * 1000 for i in range(100)))
    start = time.perf_counter()
    program = parse_program(source)
    assert time.perf_counter() - start < 4.0
    tracemalloc.start()
    try:
        assert parse_program(source) == program
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
