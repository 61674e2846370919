"""Token and AST node types for Axiotome programs.

AST nodes are frozen dataclasses; tokens are named tuples, which are
cheaper to build.  Source spans (and a token's trivia) are carried for
diagnostics but excluded from equality and hashing, so two parses of
equivalent text compare equal node-for-node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Union

from ..diagnostics import Span


class TokenKind(Enum):
    KEYWORD = "keyword"
    IDENT = "identifier"
    AXIOM_NAME = "axiom-name"
    THEOREM_NAME = "theorem-name"
    SYMBOL = "symbol"
    NUMBER = "number"
    NEWLINE = "newline"
    EOF = "eof"


class Token(NamedTuple):
    """A lexeme of one kind; equal tokens have equal kinds and lexemes,
    wherever they stand and whatever comments precede them."""

    kind: TokenKind
    lexeme: str
    span: Span = Span()
    trivia: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Token) and self.kind is other.kind and self.lexeme == other.lexeme

    def __ne__(self, other: object) -> bool:  # tuple's own ``!=`` would compare every field
        return not self == other

    def __hash__(self) -> int:
        return hash((self.kind, self.lexeme))


@dataclass(frozen=True)
class TypeExpr:
    name: str
    args: tuple["TypeExpr", ...] = ()
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class Term:
    """Application tree; a bare identifier is a nullary application.

    Heads are left symbolic here; whether a head is a constructor, a function
    or a metavariable is resolved against a registry and a typing context.
    """

    head: str
    type_args: tuple[TypeExpr, ...] = ()
    args: tuple["Term", ...] = ()
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class Axiom:
    """Named equivalence ``lhs ↔ rhs`` attached to an equational function.

    ``metavar_types`` holds inline ``name: Type`` annotations found in the
    axiom's terms, sorted by name.
    """

    name: str
    lhs: Term
    rhs: Term
    metavar_types: tuple[tuple[str, TypeExpr], ...] = ()
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class ProductBody:
    fields: tuple[tuple[str, TypeExpr], ...] = ()


@dataclass(frozen=True)
class SumBody:
    summands: tuple[TypeExpr, ...] = ()


@dataclass(frozen=True)
class TypeDecl:
    name: str
    params: tuple[str, ...]
    body: Union[ProductBody, SumBody]
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class EquationalBody:
    axioms: tuple[Axiom, ...]


@dataclass(frozen=True)
class FormulaicBody:
    term: Term


@dataclass(frozen=True)
class FunctionDecl:
    name: str
    type_params: tuple[str, ...]
    params: tuple[tuple[str, TypeExpr], ...]
    return_type: TypeExpr
    body: Union[EquationalBody, FormulaicBody]
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class OperatorDecl:
    glyph: str
    function_name: str
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class Quantifier:
    """A binding ``∀var ∈ domain``; used for theorems and case ranges."""

    var: str
    domain: TypeExpr
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class RuleJustification:
    """``via $name`` or ``via ($n1, $n2)``: one rewrite per listed name."""

    names: tuple[str, ...]
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class CaseRangeJustification:
    """``via ∀a ∈ C`` or ``via (∀a ∈ C, ∀b ∈ D)``: constant intro/elimination."""

    bindings: tuple[Quantifier, ...]
    span: Span = field(default=Span(), compare=False)


Justification = Union[RuleJustification, CaseRangeJustification]


@dataclass(frozen=True)
class ProofStep:
    index: int
    term: Term
    justification: Justification | None = None
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class LinearProof:
    steps: tuple[ProofStep, ...]


@dataclass(frozen=True)
class CaseBlock:
    label: str | None
    ranges: tuple[Quantifier, ...]
    restated: tuple[Term, Term] | None
    body: "ProofBody"
    span: Span = field(default=Span(), compare=False)


@dataclass(frozen=True)
class ByCasesProof:
    subjects: tuple[str, ...]
    scrutinee: TypeExpr
    stated_summands: tuple[TypeExpr, ...]
    cases: tuple[CaseBlock, ...]


ProofBody = Union[LinearProof, ByCasesProof]


@dataclass(frozen=True)
class TheoremDecl:
    name: str
    quantifiers: tuple[Quantifier, ...]
    lhs: Term
    rhs: Term
    proof: ProofBody
    span: Span = field(default=Span(), compare=False)


Statement = Union[TypeDecl, FunctionDecl, OperatorDecl, TheoremDecl]


@dataclass(frozen=True)
class Program:
    statements: tuple[Statement, ...]
    source_name: str = field(default="<input>", compare=False)
