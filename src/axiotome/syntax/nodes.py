"""Token and AST node types for Axiotome programs.

Terms are interned (hash-consed): every ``Term`` is built through one
table keyed by its head, its type arguments and the identity of each
argument, so structurally equal terms are one and the same object, and
``==`` and ``hash`` are identity and never recurse (Filliâtre & Conchon,
"Type-Safe Modular Hash-Consing", 2006).  Each type expression points to
the one interned type of its structure without spans, its ``bare`` type,
and types compare by it.  The tables hold their objects weakly: an entry
goes when its object dies, so they hold no more than the objects in use.
Lookups and inserts are single dict operations, atomic under the GIL, so
threads that build equal terms get the same object.

A term carries no source positions.  As in ATerm, where annotations stay
outside term identity (van den Brand et al., 2000), the parser keeps each
parsed term's spans in pre-order beside it, on the proof step or
declaration that owns it (``term_spans``, ``lhs_spans``, ``rhs_spans``),
and a term holds its type arguments bare.  Those spans are a sequence that
makes each ``Span`` when it is read (``lexer.Spans``), since they are read
only to place a typing diagnostic.

Tokens and the other AST nodes are named tuples, which are cheap to
define and to build.  Their spans (and a token's trivia) are excluded from
equality and hashing, so two parses of equivalent text compare equal
node-for-node, and a node equals no node of another class and no plain
tuple.  Terms and types are plain classes that refuse to be changed.
"""

from __future__ import annotations

from enum import Enum
from operator import is_
from typing import NamedTuple, Sequence, Union
from weakref import ref

from _weakref import _remove_dead_weakref

from ..diagnostics import Span

#: The span of a node that was not parsed.
_NOWHERE = Span()


class TokenKind(Enum):
    KEYWORD = "keyword"
    IDENT = "identifier"
    AXIOM_NAME = "axiom-name"
    THEOREM_NAME = "theorem-name"
    SYMBOL = "symbol"
    NUMBER = "number"
    NEWLINE = "newline"
    EOF = "eof"


def _node(cls):
    """Make the named tuple ``cls`` a node record, as every AST node, token
    and rewrite rule is: equal only to a record of its own class, and
    compared and hashed by the fields before its spans (``span``,
    ``source_name`` and ``*_spans`` come last), so two parses of equivalent
    text compare equal and a record never equals a plain tuple."""
    n = next((i for i, f in enumerate(cls._fields) if f in ("span", "source_name") or f.endswith("_spans")),
             len(cls._fields))

    def __eq__(self, other: object) -> bool:
        return other.__class__ is cls and self[:n] == other[:n]

    cls.__eq__ = __eq__
    cls.__ne__ = lambda self, other: not __eq__(self, other)  # tuple's own ``!=`` would compare every field
    cls.__hash__ = lambda self: hash(self[:n])
    return cls


@_node
class Token(NamedTuple):
    """A lexeme of one kind; equal tokens have equal kinds and lexemes,
    wherever they stand and whatever comments precede them."""

    kind: TokenKind
    lexeme: str
    span: Span = Span()
    trivia: tuple[str, ...] = ()


def _record(table: dict[tuple, ref], key: tuple, obj):
    """Intern ``obj`` under ``key`` in ``table``: return it, or the live
    object recorded there before it.  A table holds its objects weakly, and
    an entry goes when its object dies, so a table holds no more than the
    objects in use.  The entry is put in with one ``setdefault``: of two
    threads that record equal objects at once, both get the one recorded
    first, and a dead entry in the way is removed only while it is dead."""
    entry = ref(obj, lambda _, key=key: _remove_dead_weakref(table, key))
    while (found := table.setdefault(key, entry)) is not entry:
        twin = found()
        if twin is not None:
            return twin
        _remove_dead_weakref(table, key)
    return obj


#: The span-free types by name and arguments, and the terms by head, type
#: arguments and arguments, each to a weak reference.
_TYPES: dict[tuple, ref] = {}
_TERMS: dict[tuple, ref] = {}


class Frozen:
    """Base of the kernel's plain immutable classes: ``__init__`` sets each
    attribute once, past ``__setattr__``, which refuses every later
    assignment, as ``__delattr__`` refuses deletion."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


class TypeExpr(Frozen):
    """A type name applied to type arguments.

    Each structure has one interned type with no span, ``bare``: types are
    equal when their ``bare`` is the same object, so ``==`` ignores spans
    and, like ``hash``, never recurses.  A term holds its type arguments
    bare."""

    name: str
    args: tuple[TypeExpr, ...]
    span: Span

    #: The bare type, set on construction where it is another object.
    _bare = None

    def __init__(self, name: str, args: tuple[TypeExpr, ...] = (), span: Span = _NOWHERE) -> None:
        bare_args = tuple(a.bare for a in args)
        key = (name, bare_args)
        vars(self).update(name=name, args=args, span=span, _hash=hash(key))
        entry = _TYPES.get(key)
        bare = None if entry is None else entry()
        if bare is None:
            if span == _NOWHERE and all(map(is_, bare_args, args)):
                bare = _record(_TYPES, key, self)
            else:
                bare = TypeExpr(name, bare_args).bare
        if bare is not self:
            vars(self)["_bare"] = bare

    @property
    def bare(self) -> TypeExpr:
        return self._bare or self

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TypeExpr:
            return NotImplemented
        return (self._bare or self) is (other._bare or other)

    def __reduce__(self):
        return TypeExpr, (self.name, self.args, self.span)

    def __repr__(self) -> str:
        return f"TypeExpr(name={self.name!r}, args={self.args!r}, span={self.span!r})"


class Term(Frozen):
    """Application tree; a bare identifier is a nullary application.

    Heads are left symbolic here; whether a head is a constructor, a function
    or a metavariable is resolved against a registry and a typing context.

    ``Term(head, type_args, args)`` returns the one live term with these
    parts, building and recording it if there is none.  Its key holds the
    arguments, which compare and hash by identity, and the bare type
    arguments.
    """

    __slots__ = ("head", "type_args", "args", "__weakref__")

    head: str
    type_args: tuple[TypeExpr, ...]
    args: tuple[Term, ...]

    def __new__(cls, head: str, type_args: tuple[TypeExpr, ...] = (), args: tuple[Term, ...] = ()) -> Term:
        if type_args:
            type_args = tuple(t.bare for t in type_args)
        key = (head, type_args, args)
        entry = _TERMS.get(key)
        if entry is not None:
            node = entry()
            if node is not None:
                return node
        node = object.__new__(cls)
        _set_head(node, head)
        _set_type_args(node, type_args)
        _set_args(node, args)
        return _record(_TERMS, key, node)

    def postorder(self) -> list[Term]:
        """Every node of the term written out as a tree, children before
        their parent and left to right, found with an explicit stack."""
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(node.args)
        out.reverse()
        return out

    def __reduce__(self):
        return Term, (self.head, self.type_args, self.args)

    def __repr__(self) -> str:
        from .printer import format_term
        return f"<Term {format_term(self)}>"


#: Set a new term's slots, which ``Frozen.__setattr__`` refuses.
_set_head, _set_type_args, _set_args = Term.head.__set__, Term.type_args.__set__, Term.args.__set__


@_node
class Axiom(NamedTuple):
    """Named equivalence ``lhs ↔ rhs`` attached to an equational function.

    ``metavar_types`` holds inline ``name: Type`` annotations found in the
    axiom's terms, sorted by name.
    """

    name: str
    lhs: Term
    rhs: Term
    metavar_types: tuple[tuple[str, TypeExpr], ...] = ()
    span: Span = _NOWHERE
    lhs_spans: Sequence[Span] = ()
    rhs_spans: Sequence[Span] = ()


@_node
class ProductBody(NamedTuple):
    fields: tuple[tuple[str, TypeExpr], ...] = ()


@_node
class SumBody(NamedTuple):
    summands: tuple[TypeExpr, ...] = ()


@_node
class TypeDecl(NamedTuple):
    name: str
    params: tuple[str, ...]
    body: Union[ProductBody, SumBody]
    span: Span = _NOWHERE


@_node
class EquationalBody(NamedTuple):
    axioms: tuple[Axiom, ...]


@_node
class FormulaicBody(NamedTuple):
    term: Term
    term_spans: Sequence[Span] = ()


@_node
class FunctionDecl(NamedTuple):
    name: str
    type_params: tuple[str, ...]
    params: tuple[tuple[str, TypeExpr], ...]
    return_type: TypeExpr
    body: Union[EquationalBody, FormulaicBody]
    span: Span = _NOWHERE


@_node
class OperatorDecl(NamedTuple):
    glyph: str
    function_name: str
    span: Span = _NOWHERE


@_node
class Quantifier(NamedTuple):
    """A binding ``∀var ∈ domain``; used for theorems and case ranges."""

    var: str
    domain: TypeExpr
    span: Span = _NOWHERE


@_node
class RuleJustification(NamedTuple):
    """``via $name`` or ``via ($n1, $n2)``: one rewrite per listed name."""

    names: tuple[str, ...]
    span: Span = _NOWHERE


@_node
class CaseRangeJustification(NamedTuple):
    """``via ∀a ∈ C`` or ``via (∀a ∈ C, ∀b ∈ D)``: constant intro/elimination."""

    bindings: tuple[Quantifier, ...]
    span: Span = _NOWHERE


Justification = Union[RuleJustification, CaseRangeJustification]


@_node
class ProofStep(NamedTuple):
    index: int
    term: Term
    justification: Justification | None = None
    span: Span = _NOWHERE
    term_spans: Sequence[Span] = ()


@_node
class LinearProof(NamedTuple):
    steps: tuple[ProofStep, ...]


@_node
class CaseBlock(NamedTuple):
    label: str | None
    ranges: tuple[Quantifier, ...]
    restated: tuple[Term, Term] | None
    body: ProofBody
    span: Span = _NOWHERE


@_node
class ByCasesProof(NamedTuple):
    subjects: tuple[str, ...]
    scrutinee: TypeExpr
    stated_summands: tuple[TypeExpr, ...]
    cases: tuple[CaseBlock, ...]


ProofBody = Union[LinearProof, ByCasesProof]


@_node
class TheoremDecl(NamedTuple):
    name: str
    quantifiers: tuple[Quantifier, ...]
    lhs: Term
    rhs: Term
    proof: ProofBody
    span: Span = _NOWHERE
    lhs_spans: Sequence[Span] = ()
    rhs_spans: Sequence[Span] = ()


Statement = Union[TypeDecl, FunctionDecl, OperatorDecl, TheoremDecl]


@_node
class Program(NamedTuple):
    statements: tuple[Statement, ...]
    source_name: str = "<input>"
