"""Parser for Axiotome programs and terms.

The parser reads the flat token lists of one ``lexer.scan`` by integer
index.  Declarations and proofs are read top-down, one method per grammar
rule; terms and type expressions are read with an explicit stack of open
brackets, and nested proofs with one of open case blocks, so their nesting
depth is bounded by memory rather than by the recursion limit.  A ``Span``
is made from a token's offset only for a node that keeps one (type names,
declaration keywords, step indices and justification starts) and for a
diagnostic.  A term carries no span: the step or declaration that owns it
keeps its nodes' offsets and lengths in pre-order, as ``Spans`` that make a
node's ``Span`` when it is read (``term_spans``, ``lhs_spans`` and
``rhs_spans``).

A proof step repeats most of the step before it, so each file's parser
keeps a memo from the text of each application it has read, from its head
to its ``)``, to the term and its nodes' offsets and lengths.  The scanner
turns a step term that is an application written earlier in the file into
one ``recall`` token holding its text, and the parser looks that text up
in the memo: on a hit it takes the term and moves the offsets to the new
place, and on a miss it reads the token's own tokens (``Scan.unfold``) and
then the file's again.  This is packrat parsing (Ford, 2002) keyed by the
text instead of its position.  The memo is cleared at each operator
declaration, on which infix desugaring depends; terms in axioms, whose
annotations the parser collects, are not kept; and the text sliced for keys
is capped at ``MEMO_ROOM`` characters per character of the file.

Statements are delimited by semicolons or by newlines at bracket depth zero.
Proof-step lines are recognized by their ``<digits> '.'`` prefix; indentation
is never significant.  Case blocks attach to the nearest enclosing
``proof by cases`` whose subjects cover the case's ranged metavariables,
which is what lets nested case proofs parse without layout information.

Infix operator glyphs are desugared into function applications using the
operator declarations seen so far in the same program, plus any injected via
the ``operators`` argument.  Chains of one glyph are left-associative, and
the desugared node takes its first operand's span; mixing distinct glyphs
without parentheses is a syntax error.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import add
from typing import NoReturn

from ..diagnostics import DiagnosticError, Span, error
from .lexer import (
    AXIOM_NAME, EOF, IDENT, KEYWORD, NEWLINE, NUMBER, OPERATOR_GLYPHS, RECALL, THEOREM_NAME, Scan, Spans, scan,
)
from .nodes import (
    Axiom, ByCasesProof, CaseBlock, CaseRangeJustification, EquationalBody,
    FormulaicBody, FunctionDecl, Justification, LinearProof, OperatorDecl,
    ProductBody, Program, ProofBody, ProofStep, Quantifier, RuleJustification,
    Statement, SumBody, Term, TheoremDecl, TypeDecl, TypeExpr,
)

#: Statement separators: semicolon, or newline at depth zero.
_SEPARATORS = frozenset({";", "\n"})

#: Characters of application text that a file's memo may slice and keep,
#: per character of the file: keeping every nested application's text
#: would cost the square of a term's depth.
MEMO_ROOM = 4


class _Parser:
    def __init__(self, scanned: Scan, operators: dict[str, str] | None) -> None:
        self.scanned = scanned
        self.read(scanned)
        self.file = scanned.file
        self.line_starts = scanned.line_starts
        self.source = scanned.source
        self.pos = 0
        self.operators = dict(operators or {})
        # The terms read so far, by the text of each application; the text
        # sliced for it may total MEMO_ROOM characters per source character.
        self.memo: dict[str, tuple[Term, list[int], list[int]]] = {}
        self.room = MEMO_ROOM * len(self.source)

    # ------------------------------------------------------------- stream

    def read(self, scanned: Scan) -> None:
        """Read the tokens of ``scanned`` from here on."""
        # Every list ends in the EOF entry, and nothing moves past it: each
        # step forward follows a match of some other token.
        self.kinds, self.lex, self.starts, self.texts, self.span = (
            scanned.kinds, scanned.lexemes, scanned.starts, scanned.texts, scanned.span)

    def fail(self, message: str, at: int | None = None) -> NoReturn:
        span = self.span(self.pos if at is None else at)
        raise DiagnosticError(error("E-SYNTAX", message, span if span.length else Span(self.file)))

    def expect(self, lexeme: str) -> int:
        """The index of the current token, which must be ``lexeme``.  A
        keyword, symbol or newline lexeme is never of another kind, so
        tokens of those kinds are matched by lexeme alone."""
        at = self.pos
        if self.lex[at] != lexeme:
            self.fail(f"expected {lexeme}, found {self.lex[at]!r}", at)
        self.pos = at + 1
        return at

    def expect_kind(self, kind: str, what: str) -> int:
        at = self.pos
        if self.kinds[at] is not kind:
            self.fail(f"expected {what}, found {self.lex[at]!r}", at)
        self.pos = at + 1
        return at

    def ident(self, what: str) -> str:
        return self.lex[self.expect_kind(IDENT, what)]

    def accept(self, lexeme: str) -> bool:
        if self.lex[self.pos] == lexeme:
            self.pos += 1
            return True
        return False

    def at_end_of_item(self) -> bool:
        return self.lex[self.pos] in _SEPARATORS or self.kinds[self.pos] is EOF

    def skip_separators(self) -> None:
        lex, pos = self.lex, self.pos
        while lex[pos] in _SEPARATORS:
            pos += 1
        self.pos = pos

    def skip_newlines(self) -> None:
        while self.lex[self.pos] == "\n":
            self.pos += 1

    # -------------------------------------------------------------- names

    def parse_plain_name(self, what: str) -> str:
        """An identifier, merging ``.``-separated pieces into one
        ``°``-separated name (the ASCII spelling of separated names) while
        each ``.`` directly follows the name so far, on its first line."""
        lex, kinds, starts, texts = self.lex, self.kinds, self.starts, self.texts
        first = self.expect_kind(IDENT, what)
        name, end, line = lex[first], starts[first] + len(texts[first]), self.span(first).line
        pos = self.pos
        while (lex[pos] == "." and kinds[pos + 1] is IDENT and starts[pos] == end
               and self.span(pos).line == line):
            name += "°" + lex[pos + 1]
            end = starts[pos + 1] + len(texts[pos + 1])
            pos += 2
        self.pos = pos
        return name

    def parse_names(self, what: str) -> tuple[str, ...]:
        """``IDENT {"," IDENT}``."""
        items = [self.ident(what)]
        while self.accept(","):
            items.append(self.ident(what))
        return tuple(items)

    # -------------------------------------------------------------- types

    def parse_type_expr(self) -> TypeExpr:
        """``IDENT ["[" [type-list] "]"]``, read with a stack of the open
        ``[`` (each a name's index and the arguments read so far)."""
        kinds, lex, span = self.kinds, self.lex, self.span
        pos = self.pos
        stack: list[tuple[int, list[TypeExpr]]] = []
        while True:
            if kinds[pos] is not IDENT:
                self.fail(f"expected a type name, found {lex[pos]!r}", pos)
            name = pos
            pos += 1
            if lex[pos] == "[":
                if lex[pos + 1] != "]":
                    stack.append((name, []))
                    pos += 1
                    continue
                pos += 2
            node = TypeExpr(lex[name], (), span(name))
            while stack:
                name, items = stack[-1]
                items.append(node)
                if lex[pos] == ",":
                    pos += 1
                    break
                if lex[pos] != "]":
                    self.fail(f"expected ], found {lex[pos]!r}", pos)
                pos += 1
                stack.pop()
                node = TypeExpr(lex[name], tuple(items), span(name))
            else:
                self.pos = pos
                return node

    def parse_type_list(self) -> tuple[TypeExpr, ...]:
        """``type-expr {"," type-expr} "]"``."""
        items = [self.parse_type_expr()]
        while self.accept(","):
            items.append(self.parse_type_expr())
        self.expect("]")
        return tuple(items)

    # -------------------------------------------------------------- terms

    def parse_term(self, annotations: dict[str, TypeExpr] | None = None) -> tuple[Term, Spans]:
        """A term and its nodes' spans in pre-order, read with a stack of
        its open brackets.

        Each entry is ``(head, type arguments, arguments so far, start,
        chain, at)`` for an application and ``(None, ..., start, chain,
        at)`` for a parenthesized term, where ``start`` is the index of the
        bracketed term's first node in ``offsets``, ``chain`` is the infix
        chain the bracket interrupts (``None``, or ``[left operand so far,
        glyph, function, start of the left operand]``) and ``at`` is the
        index of its first token.  A head's offset and length are recorded
        as it is read, which is pre-order but for desugared infix nodes:
        each is inserted before its first operand's, as a copy of the first.
        ``annotations`` collects the ``name: Type`` annotations of an
        axiom's arguments; without it an annotation is a syntax error, and
        the terms read are kept in ``memo``.

        A ``RECALL`` token comes only as the first token of a proof step's
        term.  A hit in ``memo`` gives what reading its tokens would: equal
        text scans to equal tokens, and the memo holds only applications
        read whole.  On a miss, the parser reads the token's own tokens,
        whose last closes the application, and goes back to the file's
        tokens after it, at ``resume``.
        """
        kinds, lex, starts, texts, operators = self.kinds, self.lex, self.starts, self.texts, self.operators
        memo = self.memo if annotations is None else None
        source, room = self.source, self.room
        pos = self.pos
        offsets: list[int] = []
        lengths: list[int] = []
        stack: list[tuple] = []
        chain: list | None = None
        value = None
        resume = 0
        if kinds[pos] is RECALL:
            kept = self.memo.get(texts[pos])
            if kept is not None:
                value, first_offsets, first_lengths = kept
                offsets.extend(map(add, first_offsets, repeat(starts[pos] - first_offsets[0])))
                lengths.extend(first_lengths)
                pos += 1
            else:
                resume = pos + 1
                self.read(self.scanned.unfold(pos))
                kinds, lex, starts, texts, pos = self.kinds, self.lex, self.starts, self.texts, 0
        start = 0
        while True:
            if value is None:
                # Read a primary, opening its brackets on the way in.
                start = len(offsets)
                if kinds[pos] is IDENT:
                    head = lex[pos]
                    offsets.append(starts[pos])
                    lengths.append(len(texts[pos]))
                    at = pos
                    pos += 1
                    type_args: tuple[TypeExpr, ...] = ()
                    if lex[pos] == "[":
                        self.pos = pos + 1
                        type_args = self.parse_type_list()
                        pos = self.pos
                    if lex[pos] == "(":
                        if lex[pos + 1] != ")":
                            stack.append((head, type_args, [], start, chain, at))
                            chain = None
                            pos += 1
                            continue
                        pos += 2
                    value = Term(head, type_args)
                elif lex[pos] == "(":
                    stack.append((None, None, None, start, chain, pos))
                    chain = None
                    pos += 1
                    continue
                else:
                    self.fail(f"expected a term, found {lex[pos]!r}", pos)
            # Extend the infix chain with it, and close the brackets that
            # each finished term completes.
            while True:
                if chain is not None:
                    start = chain[3]
                    offsets.insert(start, offsets[start])
                    lengths.insert(start, lengths[start])
                    value = Term(chain[2], (), (chain[0], value))
                tok = lex[pos]
                if tok in OPERATOR_GLYPHS:
                    if chain is None:
                        if tok not in operators:
                            self.fail(f"infix operator {tok!r} used without an operator declaration", pos)
                        chain = [value, tok, operators[tok], start]
                    elif tok != chain[1]:
                        self.fail(f"mixing infix operators {chain[1]!r} and {tok!r} requires parentheses", pos)
                    else:
                        chain[0] = value
                    pos += 1
                    break
                if not stack:
                    if resume:  # the recalled application is read: back to the file's tokens
                        self.read(self.scanned)
                        kinds, lex, starts, texts = self.kinds, self.lex, self.starts, self.texts
                        pos, resume = resume, 0
                        continue
                    self.pos, self.room = pos, room
                    return value, Spans(self.file, self.line_starts, offsets, lengths)
                frame = stack[-1]
                if frame[0] is not None:
                    if tok == ":":
                        self.pos = pos
                        self.parse_annotation(value, annotations)
                        pos = self.pos
                        tok = lex[pos]
                    frame[2].append(value)
                    if tok == ",":
                        chain = None
                        pos += 1
                        break
                if tok != ")":
                    self.fail(f"expected ), found {tok!r}", pos)
                head, type_args, args, start, chain, at = stack.pop()
                if head is not None:
                    value = Term(head, type_args, tuple(args))
                    if memo is not None:  # keep its text, head to ``)``, while there is room
                        size = starts[pos] + 1 - starts[at]
                        if size <= room:
                            room -= size
                            key = source[starts[at]:starts[pos] + 1]
                            if key not in memo:
                                memo[key] = (value, offsets[start:], lengths[start:])
                pos += 1
            value = None

    def parse_annotation(self, term: Term, annotations: dict[str, TypeExpr] | None) -> None:
        """Record the ``: Type`` annotation at the current token on the
        argument ``term``."""
        colon = self.pos
        if annotations is None:
            self.fail("type annotations are only allowed inside axiom terms", colon)
        if term.args or term.type_args:
            self.fail("only a bare metavariable can carry a type annotation", colon)
        self.pos += 1
        ty = self.parse_type_expr()
        seen = annotations.get(term.head)
        if seen is not None and seen != ty:
            self.fail(f"conflicting annotations for metavariable {term.head!r}", colon)
        annotations[term.head] = ty

    # --------------------------------------------------------- statements

    def parse_program(self, source_name: str) -> Program:
        statements: list[Statement] = []
        self.skip_separators()
        while self.kinds[self.pos] is not EOF:
            statements.append(self.parse_statement())
            if not self.at_end_of_item():
                self.fail("expected end of statement")
            self.skip_separators()
        return Program(tuple(statements), source_name)

    def parse_statement(self) -> Statement:
        if self.kinds[self.pos] is KEYWORD:
            keyword = self.lex[self.pos]
            if keyword == "type":
                return self.parse_type_decl()
            if keyword == "function":
                return self.parse_function_decl()
            if keyword == "operator":
                return self.parse_operator_decl()
            if keyword == "theorem":
                return self.parse_theorem_decl()
        self.fail("expected a statement (type, function, operator or theorem)")

    def parse_type_decl(self) -> TypeDecl:
        kw = self.expect("type")
        name = self.ident("a type name")
        params: tuple[str, ...] = ()
        if self.accept("["):
            params = self.parse_names("a type parameter")
            self.expect("]")
        self.expect("≡")
        shape = self.expect_kind(IDENT, "Product or Sum")
        if self.lex[shape] == "Product":
            self.expect("[")
            fields = []
            if self.lex[self.pos] != "]":
                fields.append(self.parse_field())
                while self.accept(","):
                    fields.append(self.parse_field())
            self.expect("]")
            body: ProductBody | SumBody = ProductBody(tuple(fields))
        elif self.lex[shape] == "Sum":
            self.expect("[")
            summands: tuple[TypeExpr, ...] = ()
            if self.lex[self.pos] != "]":
                summands = self.parse_type_list()
            else:
                self.pos += 1
            body = SumBody(summands)
        else:
            self.fail("expected Product or Sum", shape)
        return TypeDecl(name, params, body, self.span(kw))

    def parse_field(self) -> tuple[str, TypeExpr]:
        label = self.ident("a field label")
        self.expect(":")
        return label, self.parse_type_expr()

    def parse_function_decl(self) -> FunctionDecl:
        kw = self.expect("function")
        name = self.ident("a function name")
        type_params: tuple[str, ...] = ()
        if self.accept("["):
            type_params = self.parse_names("a type parameter")
            self.expect("]")
        self.expect("(")
        params = []
        if self.lex[self.pos] != ")":
            params.append(self.parse_field())
            while self.accept(","):
                params.append(self.parse_field())
        self.expect(")")
        self.expect(":")
        return_type = self.parse_type_expr()
        self.skip_newlines()
        if self.accept("allowing"):
            body: EquationalBody | FormulaicBody = EquationalBody(tuple(self.parse_axioms()))
        elif self.accept("≡"):
            body = FormulaicBody(*self.parse_term())
        else:
            self.fail("expected 'allowing' or '≡' after the function signature")
        return FunctionDecl(name, type_params, tuple(params), return_type, body, self.span(kw))

    def parse_axioms(self) -> list[Axiom]:
        axioms = [self.parse_axiom()]
        while True:
            save = self.pos
            self.skip_separators()
            if self.kinds[self.pos] is not AXIOM_NAME:
                self.pos = save
                return axioms
            axioms.append(self.parse_axiom())

    def parse_axiom(self) -> Axiom:
        name = self.expect_kind(AXIOM_NAME, "an axiom name")
        self.expect(":")
        annotations: dict[str, TypeExpr] = {}
        lhs, lhs_spans = self.parse_term(annotations)
        self.expect("↔")
        rhs, rhs_spans = self.parse_term(annotations)
        return Axiom(self.lex[name], lhs, rhs, tuple(sorted(annotations.items())), self.span(name),
                     lhs_spans, rhs_spans)

    def parse_operator_decl(self) -> OperatorDecl:
        kw = self.expect("operator")
        glyph = self.lex[self.pos]
        if glyph not in OPERATOR_GLYPHS:
            self.fail("expected an operator glyph (∨ or ∧)")
        self.pos += 1
        self.expect("≡")
        fn = self.ident("a function name")
        self.operators[glyph] = fn
        self.memo.clear()  # the terms read so far desugared the glyph as it was
        return OperatorDecl(glyph, fn, self.span(kw))

    # ----------------------------------------------------------- theorems

    def parse_theorem_decl(self) -> TheoremDecl:
        kw = self.expect("theorem")
        if self.kinds[self.pos] is THEOREM_NAME:
            name = self.lex[self.pos].lstrip("¶")
            self.pos += 1
        else:
            name = self.parse_plain_name("a theorem name")
        self.expect(":")
        quantifiers: tuple[Quantifier, ...] = ()
        if self.lex[self.pos] == "∀":
            quantifiers = self.parse_quantifiers()
            self.expect(":")
        lhs, lhs_spans = self.parse_term()
        self.expect("↔")
        rhs, rhs_spans = self.parse_term()
        self.skip_separators()
        proof = self.parse_proof()
        return TheoremDecl(name, quantifiers, lhs, rhs, proof, self.span(kw), lhs_spans, rhs_spans)

    def parse_quantifiers(self) -> tuple[Quantifier, ...]:
        quantifiers = [self.parse_quantifier()]
        while self.lex[self.pos] == "," and self.lex[self.pos + 1] == "∀":
            self.pos += 1
            quantifiers.append(self.parse_quantifier())
        return tuple(quantifiers)

    def parse_quantifier(self) -> Quantifier:
        forall = self.expect("∀")
        var = self.ident("a metavariable name")
        self.expect("∈")
        return Quantifier(var, self.parse_type_expr(), self.span(forall))

    def parse_proof(self) -> ProofBody:
        """``proof`` and its body.  Nested proofs are read with a stack of
        the open ``proof by cases`` (subjects, scrutinee, summands and the
        cases so far) and, above each, of the header of the case block being
        read.  A case block whose ranges the innermost open subjects do not
        cover belongs to an enclosing ``proof by cases``: that is decided at
        its header, which is handed back, to be read again there, and the
        innermost one ends."""
        stack: list = []
        body = self.begin_proof(stack)
        while True:
            if body is not None:  # a body ends the case block that holds it, or the proof
                if not stack:
                    return body
                kw, label, ranges, restated = stack.pop()
                stack[-1][3].append(CaseBlock(label, ranges, restated, body, self.span(kw)))
                body = None
                continue
            save = self.pos  # the innermost open proof by cases reads its next case
            self.skip_separators()
            header = self.parse_case_header() if self.lex[self.pos] == "case" else None
            if header is None or not {q.var for q in header[2]} <= set(stack[-1][0]):
                self.pos = save
                body = self.end_cases(stack)
                continue
            stack.append(header)
            self.skip_separators()
            if self.lex[self.pos] == "proof":
                body = self.begin_proof(stack)
            else:
                steps = self.parse_steps()
                if not steps:
                    self.fail("expected a case body (proof steps or a nested proof)")
                body = LinearProof(steps)

    def begin_proof(self, stack: list) -> LinearProof | None:
        """``proof`` and a linear body, or the header of a ``proof by
        cases``, which opens on ``stack`` (``parse_proof``)."""
        self.expect("proof")
        if self.lex[self.pos] == "by":
            stack.append((*self.parse_cases_header(), []))
            return None
        self.skip_separators()
        steps = self.parse_steps()
        if not steps:
            self.fail("expected proof steps after 'proof'")
        return LinearProof(steps)

    def end_cases(self, stack: list) -> ByCasesProof:
        subjects, scrutinee, summands, cases = stack.pop()
        if not cases:
            self.fail("expected at least one case")
        return ByCasesProof(subjects, scrutinee, summands, tuple(cases))

    def parse_steps(self) -> tuple[ProofStep, ...]:
        kinds, lex = self.kinds, self.lex
        steps = []
        while True:
            pos = self.pos
            while lex[pos] in _SEPARATORS:
                pos += 1
            if kinds[pos] is not NUMBER or lex[pos + 1] != ".":
                return tuple(steps)
            index = pos
            self.pos = pos + 2
            term, term_spans = self.parse_term()
            justification = None
            if lex[self.pos] == "via":
                self.pos += 1
                justification = self.parse_justification()
            if not self.at_end_of_item():
                self.fail("expected end of proof step")
            steps.append(ProofStep(int(lex[index]), term, justification, self.span(index), term_spans))

    def parse_justification(self) -> Justification:
        start = self.pos
        parenthesized = self.accept("(")
        atoms: list[Quantifier | str] = [self.parse_justification_atom()]
        while self.accept(","):
            atoms.append(self.parse_justification_atom())
        if parenthesized:
            self.expect(")")
        if all(isinstance(a, Quantifier) for a in atoms):
            return CaseRangeJustification(tuple(atoms), self.span(start))  # type: ignore[arg-type]
        if all(isinstance(a, str) for a in atoms):
            return RuleJustification(tuple(atoms), self.span(start))  # type: ignore[arg-type]
        self.fail("justification tuple mixes rule names and case ranges", start)

    def parse_justification_atom(self) -> Quantifier | str:
        kind, lexeme = self.kinds[self.pos], self.lex[self.pos]
        if lexeme == "∀":
            return self.parse_quantifier()
        if kind is AXIOM_NAME or kind is THEOREM_NAME:
            self.pos += 1
            return lexeme.lstrip("¶")
        if kind is IDENT:
            return self.parse_plain_name("a rule name")
        self.fail("expected a rule name or a case range")

    def parse_cases_header(self) -> tuple[tuple[str, ...], TypeExpr, tuple[TypeExpr, ...]]:
        """``by cases of`` subjects ``using`` a decomposition: the subjects,
        the scrutinee and the stated summands."""
        self.expect("by")
        self.expect("cases")
        self.expect("of")
        if self.accept("("):
            subjects = self.parse_names("a metavariable")
            self.expect(")")
        else:
            subjects = (self.ident("a metavariable"),)
        self.expect("using")
        wrapped = self.accept("(")
        scrutinee = self.parse_type_expr()
        self.expect("=")
        summands = [self.parse_type_expr()]
        while self.lex[self.pos] == "U":
            self.pos += 1
            summands.append(self.parse_type_expr())
        if wrapped:
            self.expect(")")
        # An optional trailing ^n (or bare digit) annotation is accepted and
        # discarded; coverage is checked independently by the verifier.
        self.accept("^")
        if self.kinds[self.pos] is NUMBER:
            self.pos += 1
        return subjects, scrutinee, tuple(summands)

    def parse_case_header(self) -> tuple[int, str | None, tuple[Quantifier, ...], tuple[Term, Term] | None]:
        """``case [label:]`` ranges ``:`` [restated assertion]: the index
        of ``case``, the label, the ranges and the restated sides."""
        kw = self.expect("case")
        label = None
        if self.kinds[self.pos] is IDENT and self.lex[self.pos + 1] == ":":
            label = self.lex[self.pos]
            self.pos += 2
        ranges = self.parse_quantifiers()
        self.expect(":")
        restated = None
        if not self.at_end_of_item():
            lhs, _ = self.parse_term()
            self.expect("↔")
            restated = (lhs, self.parse_term()[0])
        return kw, label, ranges, restated


def parse_program(source: str, file: str = "<input>", operators: dict[str, str] | None = None) -> Program:
    """Parse a whole program; raises DiagnosticError on the first error."""
    return _Parser(scan(source, file), operators).parse_program(file)


def parse_term(source: str, file: str = "<input>", operators: dict[str, str] | None = None) -> Term:
    """Parse a single term (the ``eval`` surface and the term fixtures)."""
    return parse_term_with_spans(source, file, operators)[0]


def parse_term_with_spans(source: str, file: str = "<input>", operators: dict[str, str] | None = None) \
        -> tuple[Term, Spans]:
    """Parse a single term; returns it and its nodes' spans in pre-order."""
    scanned = scan(source, file)
    keep = [kind is not NEWLINE for kind in scanned.kinds]
    kinds, lexemes, starts, texts = (
        list(compress(tokens, keep)) for tokens in (scanned.kinds, scanned.lexemes, scanned.starts, scanned.texts))
    parser = _Parser(Scan(file, source, kinds, lexemes, starts, texts, {}, scanned.line_starts), operators)
    parsed = parser.parse_term()
    if parser.kinds[parser.pos] is not EOF:
        parser.fail("unexpected trailing input after term")
    return parsed
