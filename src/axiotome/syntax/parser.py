"""Recursive-descent parser for Axiotome programs and terms.

Statements are delimited by semicolons or by newlines at bracket depth zero.
Proof-step lines are recognized by their ``<digits> '.'`` prefix; indentation
is never significant.  Case blocks attach to the innermost enclosing
``proof by cases`` whose subjects cover the case's ranged metavariables,
which is what lets nested case proofs parse without layout information.

Infix operator glyphs are desugared into function applications using the
operator declarations seen so far in the same program, plus any injected via
the ``operators`` argument.  Chains of one glyph are left-associative; mixing
distinct glyphs without parentheses is a syntax error.
"""

from __future__ import annotations

from ..diagnostics import DiagnosticError, Span, error
from .lexer import OPERATOR_GLYPHS, tokenize
from .nodes import (
    Axiom, ByCasesProof, CaseBlock, CaseRangeJustification, EquationalBody,
    FormulaicBody, FunctionDecl, Justification, LinearProof, OperatorDecl,
    ProductBody, Program, ProofBody, ProofStep, Quantifier, RuleJustification,
    Statement, SumBody, Term, TheoremDecl, Token, TokenKind, TypeDecl, TypeExpr,
)

_EOF = Token(TokenKind.EOF, "<eof>")

#: Statement separators: semicolon, or newline at depth zero.
_SEPARATORS = frozenset({";", "\n"})


class _Parser:
    def __init__(self, tokens: list[Token], file: str, operators: dict[str, str] | None) -> None:
        # The EOF token ends the stream once; ``next`` never moves past it.
        self.tokens = [*tokens, _EOF]
        self.file = file
        self.pos = 0
        self.operators = dict(operators or {})

    # ------------------------------------------------------------- stream

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def at(self, kind: TokenKind, lexeme: str | None = None, offset: int = 0) -> bool:
        tok = self.tokens[self.pos + offset]
        return tok.kind is kind and (lexeme is None or tok.lexeme == lexeme)

    def at_separator(self) -> bool:
        tok = self.peek()
        return tok.kind is TokenKind.NEWLINE or (tok.kind is TokenKind.SYMBOL and tok.lexeme == ";")

    def fail(self, message: str, tok: Token | None = None) -> None:
        tok = tok or self.peek()
        span = tok.span if tok.span.length else Span(self.file)
        raise DiagnosticError(error("E-SYNTAX", message, span))

    def expect(self, kind: TokenKind, lexeme: str | None = None, what: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not kind or lexeme is not None and tok.lexeme != lexeme:
            expected = what or (lexeme if lexeme is not None else kind.value)
            self.fail(f"expected {expected}, found {tok.lexeme!r}", tok)
        return self.next()

    def accept(self, kind: TokenKind, lexeme: str | None = None) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.kind is kind and (lexeme is None or tok.lexeme == lexeme):
            return self.next()
        return None

    def skip_separators(self) -> None:
        while self.at_separator():
            self.next()

    def skip_newlines(self) -> None:
        while self.at(TokenKind.NEWLINE):
            self.next()

    # -------------------------------------------------------------- names

    def parse_plain_name(self, what: str) -> Token:
        """An identifier, merging adjacent ``.``-separated pieces into one
        ``°``-separated name (the ASCII spelling of separated names)."""
        tok = self.expect(TokenKind.IDENT, what=what)
        name = tok.lexeme
        length = tok.span.length
        while (
            self.at(TokenKind.SYMBOL, ".")
            and self.peek(1).kind is TokenKind.IDENT
            and self.peek().span.line == tok.span.line
            and self.peek().span.column == tok.span.column + length
        ):
            self.next()
            part = self.next()
            name += "°" + part.lexeme
            length = part.span.column + part.span.length - tok.span.column
        return Token(tok.kind, name, Span(tok.span.file, tok.span.line, tok.span.column, length))

    # -------------------------------------------------------------- types

    def parse_type_expr(self) -> TypeExpr:
        tok = self.expect(TokenKind.IDENT, what="a type name")
        args: tuple[TypeExpr, ...] = ()
        if self.accept(TokenKind.SYMBOL, "["):
            items = []
            if not self.at(TokenKind.SYMBOL, "]"):
                items.append(self.parse_type_expr())
                while self.accept(TokenKind.SYMBOL, ","):
                    items.append(self.parse_type_expr())
            self.expect(TokenKind.SYMBOL, "]")
            args = tuple(items)
        return TypeExpr(tok.lexeme, args, tok.span)

    # -------------------------------------------------------------- terms

    def parse_term(self, annotations: dict[str, TypeExpr] | None = None) -> Term:
        first = self.parse_primary(annotations)
        if not (self.at(TokenKind.SYMBOL) and self.peek().lexeme in OPERATOR_GLYPHS):
            return first
        glyph_tok = self.peek()
        glyph = glyph_tok.lexeme
        if glyph not in self.operators:
            self.fail(f"infix operator {glyph!r} used without an operator declaration", glyph_tok)
        fn = self.operators[glyph]
        result = first
        while self.at(TokenKind.SYMBOL) and self.peek().lexeme in OPERATOR_GLYPHS:
            tok = self.peek()
            if tok.lexeme != glyph:
                self.fail(
                    f"mixing infix operators {glyph!r} and {tok.lexeme!r} requires parentheses", tok
                )
            self.next()
            right = self.parse_primary(annotations)
            result = Term(fn, (), (result, right), first.span)
        return result

    def parse_primary(self, annotations: dict[str, TypeExpr] | None) -> Term:
        if self.accept(TokenKind.SYMBOL, "("):
            inner = self.parse_term(annotations)
            self.expect(TokenKind.SYMBOL, ")")
            return inner
        head = self.expect(TokenKind.IDENT, what="a term")
        type_args: tuple[TypeExpr, ...] = ()
        if self.at(TokenKind.SYMBOL, "["):
            self.next()
            items = [self.parse_type_expr()]
            while self.accept(TokenKind.SYMBOL, ","):
                items.append(self.parse_type_expr())
            self.expect(TokenKind.SYMBOL, "]")
            type_args = tuple(items)
        args: tuple[Term, ...] = ()
        if self.accept(TokenKind.SYMBOL, "("):
            items = []
            if not self.at(TokenKind.SYMBOL, ")"):
                items.append(self.parse_argument(annotations))
                while self.accept(TokenKind.SYMBOL, ","):
                    items.append(self.parse_argument(annotations))
            self.expect(TokenKind.SYMBOL, ")")
            args = tuple(items)
        return Term(head.lexeme, type_args, args, head.span)

    def parse_argument(self, annotations: dict[str, TypeExpr] | None) -> Term:
        term = self.parse_term(annotations)
        if self.at(TokenKind.SYMBOL, ":"):
            colon = self.peek()
            if annotations is None:
                self.fail("type annotations are only allowed inside axiom terms", colon)
            if term.args or term.type_args:
                self.fail("only a bare metavariable can carry a type annotation", colon)
            self.next()
            ty = self.parse_type_expr()
            seen = annotations.get(term.head)
            if seen is not None and seen != ty:
                self.fail(f"conflicting annotations for metavariable {term.head!r}", colon)
            annotations[term.head] = ty
        return term

    # --------------------------------------------------------- statements

    def parse_program(self, source_name: str) -> Program:
        statements: list[Statement] = []
        self.skip_separators()
        while not self.at(TokenKind.EOF):
            statements.append(self.parse_statement())
            if not self.at(TokenKind.EOF) and not self.at_separator():
                self.fail("expected end of statement")
            self.skip_separators()
        return Program(tuple(statements), source_name)

    def parse_statement(self) -> Statement:
        tok = self.peek()
        if tok.kind is TokenKind.KEYWORD:
            if tok.lexeme == "type":
                return self.parse_type_decl()
            if tok.lexeme == "function":
                return self.parse_function_decl()
            if tok.lexeme == "operator":
                return self.parse_operator_decl()
            if tok.lexeme == "theorem":
                return self.parse_theorem_decl()
        self.fail("expected a statement (type, function, operator or theorem)", tok)
        raise AssertionError  # unreachable

    def parse_type_decl(self) -> TypeDecl:
        kw = self.expect(TokenKind.KEYWORD, "type")
        name = self.expect(TokenKind.IDENT, what="a type name")
        params: tuple[str, ...] = ()
        if self.accept(TokenKind.SYMBOL, "["):
            items = [self.expect(TokenKind.IDENT, what="a type parameter").lexeme]
            while self.accept(TokenKind.SYMBOL, ","):
                items.append(self.expect(TokenKind.IDENT, what="a type parameter").lexeme)
            self.expect(TokenKind.SYMBOL, "]")
            params = tuple(items)
        self.expect(TokenKind.SYMBOL, "≡")
        shape = self.expect(TokenKind.IDENT, what="Product or Sum")
        if shape.lexeme == "Product":
            self.expect(TokenKind.SYMBOL, "[")
            fields = []
            if not self.at(TokenKind.SYMBOL, "]"):
                fields.append(self.parse_field())
                while self.accept(TokenKind.SYMBOL, ","):
                    fields.append(self.parse_field())
            self.expect(TokenKind.SYMBOL, "]")
            body: ProductBody | SumBody = ProductBody(tuple(fields))
        elif shape.lexeme == "Sum":
            self.expect(TokenKind.SYMBOL, "[")
            summands = []
            if not self.at(TokenKind.SYMBOL, "]"):
                summands.append(self.parse_type_expr())
                while self.accept(TokenKind.SYMBOL, ","):
                    summands.append(self.parse_type_expr())
            self.expect(TokenKind.SYMBOL, "]")
            body = SumBody(tuple(summands))
        else:
            self.fail("expected Product or Sum", shape)
            raise AssertionError
        return TypeDecl(name.lexeme, params, body, kw.span)

    def parse_field(self) -> tuple[str, TypeExpr]:
        label = self.expect(TokenKind.IDENT, what="a field label")
        self.expect(TokenKind.SYMBOL, ":")
        return label.lexeme, self.parse_type_expr()

    def parse_function_decl(self) -> FunctionDecl:
        kw = self.expect(TokenKind.KEYWORD, "function")
        name = self.expect(TokenKind.IDENT, what="a function name")
        type_params: tuple[str, ...] = ()
        if self.accept(TokenKind.SYMBOL, "["):
            items = [self.expect(TokenKind.IDENT, what="a type parameter").lexeme]
            while self.accept(TokenKind.SYMBOL, ","):
                items.append(self.expect(TokenKind.IDENT, what="a type parameter").lexeme)
            self.expect(TokenKind.SYMBOL, "]")
            type_params = tuple(items)
        self.expect(TokenKind.SYMBOL, "(")
        params = []
        if not self.at(TokenKind.SYMBOL, ")"):
            params.append(self.parse_field())
            while self.accept(TokenKind.SYMBOL, ","):
                params.append(self.parse_field())
        self.expect(TokenKind.SYMBOL, ")")
        self.expect(TokenKind.SYMBOL, ":")
        return_type = self.parse_type_expr()
        self.skip_newlines()
        if self.accept(TokenKind.KEYWORD, "allowing"):
            body: EquationalBody | FormulaicBody = EquationalBody(tuple(self.parse_axioms()))
        elif self.accept(TokenKind.SYMBOL, "≡"):
            body = FormulaicBody(self.parse_term())
        else:
            self.fail("expected 'allowing' or '≡' after the function signature")
            raise AssertionError
        return FunctionDecl(name.lexeme, type_params, tuple(params), return_type, body, kw.span)

    def parse_axioms(self) -> list[Axiom]:
        axioms = [self.parse_axiom()]
        while True:
            save = self.pos
            self.skip_separators()
            if self.at(TokenKind.AXIOM_NAME):
                axioms.append(self.parse_axiom())
            else:
                self.pos = save
                return axioms

    def parse_axiom(self) -> Axiom:
        name = self.expect(TokenKind.AXIOM_NAME, what="an axiom name")
        self.expect(TokenKind.SYMBOL, ":")
        annotations: dict[str, TypeExpr] = {}
        lhs = self.parse_term(annotations)
        self.expect(TokenKind.SYMBOL, "↔")
        rhs = self.parse_term(annotations)
        metavars = tuple(sorted(annotations.items()))
        return Axiom(name.lexeme, lhs, rhs, metavars, name.span)

    def parse_operator_decl(self) -> OperatorDecl:
        kw = self.expect(TokenKind.KEYWORD, "operator")
        glyph = self.peek()
        if not (glyph.kind is TokenKind.SYMBOL and glyph.lexeme in OPERATOR_GLYPHS):
            self.fail("expected an operator glyph (∨ or ∧)", glyph)
        self.next()
        self.expect(TokenKind.SYMBOL, "≡")
        fn = self.expect(TokenKind.IDENT, what="a function name")
        self.operators[glyph.lexeme] = fn.lexeme
        return OperatorDecl(glyph.lexeme, fn.lexeme, kw.span)

    # ----------------------------------------------------------- theorems

    def parse_theorem_decl(self) -> TheoremDecl:
        kw = self.expect(TokenKind.KEYWORD, "theorem")
        if self.at(TokenKind.THEOREM_NAME):
            name = self.next().lexeme.lstrip("¶")
        else:
            name = self.parse_plain_name("a theorem name").lexeme
        self.expect(TokenKind.SYMBOL, ":")
        quantifiers: tuple[Quantifier, ...] = ()
        if self.at(TokenKind.SYMBOL, "∀"):
            quantifiers = tuple(self.parse_quantifiers())
            self.expect(TokenKind.SYMBOL, ":")
        lhs = self.parse_term()
        self.expect(TokenKind.SYMBOL, "↔")
        rhs = self.parse_term()
        self.skip_separators()
        proof = self.parse_proof()
        return TheoremDecl(name, quantifiers, lhs, rhs, proof, kw.span)

    def parse_quantifiers(self) -> list[Quantifier]:
        quantifiers = [self.parse_quantifier()]
        while self.at(TokenKind.SYMBOL, ",") and self.at(TokenKind.SYMBOL, "∀", offset=1):
            self.next()
            quantifiers.append(self.parse_quantifier())
        return quantifiers

    def parse_quantifier(self) -> Quantifier:
        forall = self.expect(TokenKind.SYMBOL, "∀")
        var = self.expect(TokenKind.IDENT, what="a metavariable name")
        self.expect(TokenKind.SYMBOL, "∈")
        domain = self.parse_type_expr()
        return Quantifier(var.lexeme, domain, forall.span)

    def parse_proof(self) -> ProofBody:
        self.expect(TokenKind.KEYWORD, "proof")
        if self.at(TokenKind.KEYWORD, "by"):
            return self.parse_by_cases()
        self.skip_separators()
        steps = self.parse_steps()
        if not steps:
            self.fail("expected proof steps after 'proof'")
        return LinearProof(tuple(steps))

    def parse_steps(self) -> list[ProofStep]:
        steps: list[ProofStep] = []
        while True:
            save = self.pos
            self.skip_separators()
            if not (self.at(TokenKind.NUMBER) and self.at(TokenKind.SYMBOL, ".", offset=1)):
                self.pos = save
                return steps
            index_tok = self.next()
            self.next()  # '.'
            term = self.parse_term()
            justification = None
            if self.accept(TokenKind.KEYWORD, "via"):
                justification = self.parse_justification()
            if not (self.at_separator() or self.at(TokenKind.EOF)):
                self.fail("expected end of proof step")
            steps.append(ProofStep(int(index_tok.lexeme), term, justification, index_tok.span))

    def parse_justification(self) -> Justification:
        start = self.peek()
        parenthesized = self.accept(TokenKind.SYMBOL, "(") is not None
        atoms: list[Quantifier | str] = [self.parse_justification_atom()]
        while self.accept(TokenKind.SYMBOL, ","):
            atoms.append(self.parse_justification_atom())
        if parenthesized:
            self.expect(TokenKind.SYMBOL, ")")
        if all(isinstance(a, Quantifier) for a in atoms):
            return CaseRangeJustification(tuple(atoms), start.span)  # type: ignore[arg-type]
        if all(isinstance(a, str) for a in atoms):
            return RuleJustification(tuple(atoms), start.span)  # type: ignore[arg-type]
        self.fail("justification tuple mixes rule names and case ranges", start)
        raise AssertionError

    def parse_justification_atom(self) -> Quantifier | str:
        if self.at(TokenKind.SYMBOL, "∀"):
            return self.parse_quantifier()
        if self.at(TokenKind.AXIOM_NAME):
            return self.next().lexeme
        if self.at(TokenKind.THEOREM_NAME):
            return self.next().lexeme.lstrip("¶")
        if self.at(TokenKind.IDENT):
            return self.parse_plain_name("a rule name").lexeme
        self.fail("expected a rule name or a case range")
        raise AssertionError

    def parse_by_cases(self) -> ByCasesProof:
        self.expect(TokenKind.KEYWORD, "by")
        self.expect(TokenKind.KEYWORD, "cases")
        self.expect(TokenKind.KEYWORD, "of")
        if self.accept(TokenKind.SYMBOL, "("):
            subjects = [self.expect(TokenKind.IDENT, what="a metavariable").lexeme]
            while self.accept(TokenKind.SYMBOL, ","):
                subjects.append(self.expect(TokenKind.IDENT, what="a metavariable").lexeme)
            self.expect(TokenKind.SYMBOL, ")")
        else:
            subjects = [self.expect(TokenKind.IDENT, what="a metavariable").lexeme]
        self.expect(TokenKind.KEYWORD, "using")
        wrapped = self.accept(TokenKind.SYMBOL, "(") is not None
        scrutinee = self.parse_type_expr()
        self.expect(TokenKind.SYMBOL, "=")
        summands = [self.parse_type_expr()]
        while self.at(TokenKind.IDENT, "U"):
            self.next()
            summands.append(self.parse_type_expr())
        if wrapped:
            self.expect(TokenKind.SYMBOL, ")")
        # An optional trailing ^n (or bare digit) annotation is accepted and
        # discarded; coverage is checked independently by the verifier.
        self.accept(TokenKind.SYMBOL, "^")
        self.accept(TokenKind.NUMBER)
        cases = []
        while True:
            save = self.pos
            self.skip_separators()
            if not self.at(TokenKind.KEYWORD, "case"):
                self.pos = save
                break
            case = self.parse_case_block()
            if {q.var for q in case.ranges} <= set(subjects):
                cases.append(case)
            else:
                # Belongs to an enclosing proof-by-cases; hand it back.
                self.pos = save
                break
        if not cases:
            self.fail("expected at least one case")
        return ByCasesProof(tuple(subjects), scrutinee, tuple(summands), tuple(cases))

    def parse_case_block(self) -> CaseBlock:
        kw = self.expect(TokenKind.KEYWORD, "case")
        label = None
        if self.at(TokenKind.IDENT) and self.at(TokenKind.SYMBOL, ":", offset=1):
            label = self.next().lexeme
            self.next()
        ranges = tuple(self.parse_quantifiers())
        self.expect(TokenKind.SYMBOL, ":")
        restated = None
        if not (self.at_separator() or self.at(TokenKind.EOF)):
            lhs = self.parse_term()
            self.expect(TokenKind.SYMBOL, "↔")
            rhs = self.parse_term()
            restated = (lhs, rhs)
        self.skip_separators()
        if self.at(TokenKind.KEYWORD, "proof"):
            body: ProofBody = self.parse_proof()
        else:
            steps = self.parse_steps()
            if not steps:
                self.fail("expected a case body (proof steps or a nested proof)")
            body = LinearProof(tuple(steps))
        return CaseBlock(label, ranges, restated, body, kw.span)


def parse_program(source: str, file: str = "<input>", operators: dict[str, str] | None = None) -> Program:
    """Parse a whole program; raises DiagnosticError on the first error."""
    tokens = tokenize(source, file)
    return _Parser(tokens, file, operators).parse_program(file)


def parse_term(source: str, file: str = "<input>", operators: dict[str, str] | None = None) -> Term:
    """Parse a single term (the ``eval`` surface and the term fixtures)."""
    tokens = [t for t in tokenize(source, file) if t.kind is not TokenKind.NEWLINE]
    parser = _Parser(tokens, file, operators)
    term = parser.parse_term()
    if not parser.at(TokenKind.EOF):
        parser.fail("unexpected trailing input after term")
    return term
