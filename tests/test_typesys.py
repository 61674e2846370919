"""Registry construction, well-formedness and term typing."""

from __future__ import annotations

import itertools
import sys
import threading
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiotome.diagnostics import DiagnosticError, Span, error
from axiotome.rewrite import RewriteRule, _reach
from axiotome.syntax import SumBody, Term, TypeExpr, format_term, format_type, parse_program, parse_term
from axiotome.typesys import (
    TypingContext, _mentions_unsolved, _solve_params, build_registry, check_well_formed, conforms,
    constructor_signature, infer_type, substitute_type, term_metavars,
)
from axiotome.verifier import verify_theorem

from conftest import BASE_TYPES, BOOL_FNS, load_program, load_registry, terms


def _diag_codes(diags):
    return [d.code for d in diags]


# ----------------------------------------------------------------- registry

def test_forward_references_resolve():
    # Prepend references List before List is declared.
    registry, diags = build_registry(load_program("polymorphic_lists.axm"))
    assert not diags
    assert set(registry.types) == {"Nil", "Prepend", "List"}


def test_duplicate_type_name_is_diagnosed():
    program = parse_program("type False ≡ Product[]\ntype False ≡ Product[]")
    _, diags = build_registry(program)
    assert _diag_codes(diags) == ["E-DUP-NAME"]


def test_unresolved_sum_summand():
    program = parse_program("type X ≡ Sum[Missing]")
    _, diags = build_registry(program)
    assert "E-UNRESOLVED" in _diag_codes(diags)


def test_type_reference_errors_come_in_pre_order():
    program = parse_program("type B ≡ Product[]\ntype P[X, Y] ≡ Product[]\n"
                            "function f[T](a: P[Nope, B[T[B], Q], R]) : B ≡ B")
    _, diags = build_registry(program)
    assert [(d.code, d.span.column) for d in diags] == [
        ("E-ARITY", 18), ("E-UNRESOLVED", 20), ("E-ARITY", 26), ("E-ARITY", 28), ("E-UNRESOLVED", 34),
        ("E-UNRESOLVED", 38),
    ]


def test_verbatim_core_types_lack_true_and_zero():
    # The original listings never declare True or Zero; building the
    # registry from them alone must surface both as unresolved.
    program = load_program("product_types.axm", "sum_types.axm")
    _, diags = build_registry(program)
    messages = " ".join(d.message for d in diags)
    assert "'Zero'" in messages and "'True'" in messages
    assert all(d.code == "E-UNRESOLVED" for d in diags)


def test_duplicate_axiom_name_is_global():
    program = parse_program(
        "type False ≡ Product[]\ntype True ≡ Product[]\ntype Boolean ≡ Sum[False, True]\n"
        "function f(a: Boolean) : Boolean\n  allowing $x: f(False) ↔ False\n"
        "function g(a: Boolean) : Boolean\n  allowing $x: g(False) ↔ False\n"
    )
    _, diags = build_registry(program)
    assert "E-DUP-NAME" in _diag_codes(diags)


# ----------------------------------------------------------- well-formedness

def test_natural_numbers_listing_is_well_formed():
    registry = load_registry("natural_numbers.axm")
    assert check_well_formed(registry) == []


def test_if_listing_is_well_formed(full_registry):
    assert check_well_formed(full_registry) == []


@pytest.mark.parametrize("name", ["or_function.axm", "if_function.axm",
                                  "natural_numbers.axm", "polymorphic_lists.axm"])
def test_response_listings_pass_with_zero_diagnostics(name):
    names = [name] if name in ("natural_numbers.axm", "polymorphic_lists.axm") \
        else BASE_TYPES + ["not_function.axm", "and_function.axm", name]
    registry = load_registry(*names)
    assert check_well_formed(registry) == []


def test_built_registry_is_immutable(bool_registry):
    with pytest.raises(TypeError):
        bool_registry.axioms["$extra"] = bool_registry.axioms["$not°F"]
    with pytest.raises(TypeError):
        del bool_registry.types["Boolean"]
    with pytest.raises(AttributeError):
        bool_registry.theorems = {}


def test_checked_registry_holds_only_read_only_maps_and_two_rule_indexes():
    # Typing reads the signature table, built whole; checking steps reads
    # the ``moves`` index, whatever rule a clause cites, and the reach of
    # its rules, a triple of tuples.
    registry = load_registry(*BOOL_FNS, "triple_negation.axm", "de_morgan_corrected.axm")
    assert check_well_formed(registry) == []
    assert all(verify_theorem(thm, registry).accepted for thm in registry.theorems.values())
    for name, value in vars(registry).items():
        assert isinstance(value, MappingProxyType) or value is registry.rules, name
    products = {name for name, decl in registry.types.items() if not isinstance(decl.body, SumBody)}
    assert set(registry.signatures) == products | set(registry.functions)
    rules = registry.rules
    assert set(vars(rules)) == {"rules", "named", "reductions", "moves", "reach"}
    assert all(isinstance(vars(rules)[name], MappingProxyType) for name in ("named", "reductions", "moves"))
    assert all(isinstance(rank, int) and isinstance(rule, RewriteRule)
               for index in (rules.reductions, rules.moves) for ranked in index.values() for rank, rule in ranked)
    depths, opened, by_rank = rules.reach
    assert isinstance(depths, tuple) and isinstance(opened, tuple) and isinstance(by_rank, tuple)
    assert all(by_rank[rank] == _reach(rule) for ranked in rules.moves.values() for rank, rule in ranked)


def test_axiom_arity_violation():
    program = load_program(*BASE_TYPES)
    extra = parse_program(
        "function or(a: Boolean, b: Boolean) : Boolean\n  allowing $bad: or(False) ↔ True"
    )
    from axiotome.syntax import Program
    registry, diags = build_registry(Program(program.statements + extra.statements))
    assert not diags
    codes = _diag_codes(check_well_formed(registry))
    assert "E-ARITY" in codes


def test_axiom_lhs_must_apply_the_function():
    program = load_program(*BASE_TYPES)
    extra = parse_program(
        "function f(a: Boolean) : Boolean\n  allowing $odd: not(False) ↔ True"
    )
    from axiotome.syntax import Program
    registry, _ = build_registry(Program(program.statements + extra.statements))
    codes = _diag_codes(check_well_formed(registry))
    assert "E-TYPE-MISMATCH" in codes


def test_unannotated_free_rhs_name_is_diagnosed():
    program = load_program(*BASE_TYPES)
    extra = parse_program(
        "function f(a: Boolean) : Boolean\n  allowing $f: f(False) ↔ mystery"
    )
    from axiotome.syntax import Program
    registry, _ = build_registry(Program(program.statements + extra.statements))
    codes = _diag_codes(check_well_formed(registry))
    assert "E-UNRESOLVED" in codes


def test_product_recursion_without_sum_warns():
    program = parse_program("type Loop ≡ Product[again: Loop]")
    registry, _ = build_registry(program)
    codes = _diag_codes(check_well_formed(registry))
    assert codes == ["W-INHABITATION"]


def test_recursion_through_sum_is_fine():
    registry = load_registry("natural_numbers.axm")
    assert check_well_formed(registry) == []


def test_product_cycle_through_two_types_warns_for_each_type_on_it():
    # ``C`` reaches the cycle of ``A`` and ``B`` but is not on it; ``D``'s
    # cycle passes through the sum ``S``.
    registry, _ = build_registry(parse_program(
        "type A ≡ Product[b: B]\ntype B ≡ Product[a: A]\ntype C ≡ Product[a: A]\n"
        "type Z ≡ Product[]\ntype D ≡ Product[s: S]\ntype S ≡ Sum[D, Z]"))
    assert [(d.code, d.message) for d in check_well_formed(registry)] == [
        ("W-INHABITATION", f"product type {name!r} recurses without an intervening sum and has no inhabitants")
        for name in "AB"]


# ------------------------------------------------------------------- typing

def test_infer_not_false(bool_registry):
    ty = infer_type(parse_term("not(False)"), TypingContext(), bool_registry)
    assert ty == TypeExpr("Boolean")


def test_infer_pair_instantiates_parameters(bool_registry):
    ty = infer_type(parse_term("Pair(False, True)"), TypingContext(), bool_registry)
    assert ty == TypeExpr("Pair", (TypeExpr("False"), TypeExpr("True")))


def test_infer_rejects_non_conforming_argument(bool_registry):
    with pytest.raises(DiagnosticError) as exc:
        infer_type(parse_term("and(Zero, True)"), TypingContext(), bool_registry)
    d = exc.value.diagnostics[0]
    assert d.code == "E-TYPE-MISMATCH"
    assert "Zero" in d.message


def test_if_branches_join_to_boolean(full_registry):
    ty = infer_type(parse_term("if(True, False, not(False))"), TypingContext(), full_registry)
    assert ty == TypeExpr("Boolean")


def test_metavariables_type_from_context(bool_registry):
    ctx = TypingContext({"a": TypeExpr("Boolean")})
    assert infer_type(parse_term("not(a)"), ctx, bool_registry) == TypeExpr("Boolean")


def test_unknown_head_is_unresolved(bool_registry):
    with pytest.raises(DiagnosticError) as exc:
        infer_type(parse_term("mystery(False)"), TypingContext(), bool_registry)
    assert exc.value.diagnostics[0].code == "E-UNRESOLVED"


def test_nil_keeps_unconstrained_parameter_symbolic():
    registry = load_registry("polymorphic_lists.axm")
    ty = infer_type(parse_term("Nil"), TypingContext(), registry)
    assert ty == TypeExpr("Nil", (TypeExpr("A"),))
    explicit = infer_type(parse_term("Nil[List[Nil]]"), TypingContext(), registry)
    assert explicit.name == "Nil"


def test_infer_is_declaration_order_independent():
    statements = load_program("missing_nullary_types.axm", "polymorphic_lists.axm").statements
    term = parse_term("Prepend(True, Nil[True])")
    results = set()
    from axiotome.syntax import Program
    for perm in itertools.permutations(statements):
        registry, diags = build_registry(Program(tuple(perm)))
        assert not diags
        results.add(infer_type(term, TypingContext(), registry))
    assert results == {TypeExpr("Prepend", (TypeExpr("True"),))}


# -------------------------------------------------------------- conformance

def test_conforms_examples(bool_registry):
    boolean = TypeExpr("Boolean")
    false = TypeExpr("False")
    assert conforms(false, boolean, bool_registry)
    assert not conforms(boolean, false, bool_registry)


def test_conforms_through_polymorphic_sum():
    registry = load_registry("polymorphic_lists.axm", "missing_nullary_types.axm")
    nil = TypeExpr("Nil", (TypeExpr("True"),))
    lst = TypeExpr("List", (TypeExpr("True"),))
    assert conforms(nil, lst, registry)
    assert not conforms(TypeExpr("Nil", (TypeExpr("Zero"),)), lst, registry)  # invariant args


def test_conforms_ends_on_cyclic_sums():
    registry, _ = build_registry(parse_program(
        "type Zero ≡ Product[]\ntype W[T] ≡ Product[]\ntype A ≡ Sum[B, W[Zero]]\ntype B ≡ Sum[A]\n"
        "type G[T] ≡ Sum[G[W[T]]]\n"))
    assert conforms(TypeExpr("W", (TypeExpr("Zero"),)), TypeExpr("B"), registry)
    assert not conforms(TypeExpr("Zero"), TypeExpr("B"), registry)
    # G's closure grows without end: G[Zero], G[W[Zero]], G[W[W[Zero]]], ...
    # The walk gives up after CLOSURE_BOUND types; check_well_formed reports G.
    assert not conforms(TypeExpr("Zero"), TypeExpr("G", (TypeExpr("Zero"),)), registry)
    assert [(d.code, d.message) for d in check_well_formed(registry)] == [(
        "E-INFINITE-SUM",
        "the summand closure of G[T] is infinite: a sum recurses with growing type arguments",
    )]


def test_substitute_type_takes_deep_types():
    def nest(ty):
        for _ in range(5000):
            ty = TypeExpr("List", (ty,))
        return ty

    assert substitute_type(nest(TypeExpr("T")), {"T": TypeExpr("Boolean")}) == nest(TypeExpr("Boolean"))


def test_conforms_reflexive_and_transitive_on_corpus():
    registry = load_registry(*BOOL_FNS, "polymorphic_lists.axm")
    instances = [
        TypeExpr("False"), TypeExpr("True"), TypeExpr("Boolean"),
        TypeExpr("Zero"), TypeExpr("Successor"), TypeExpr("Number"),
        TypeExpr("Pair", (TypeExpr("False"), TypeExpr("True"))),
        TypeExpr("Nil", (TypeExpr("Boolean"),)),
        TypeExpr("Prepend", (TypeExpr("Boolean"),)),
        TypeExpr("List", (TypeExpr("Boolean"),)),
    ]
    for ty in instances:
        assert conforms(ty, ty, registry)
    for a, b, c in itertools.product(instances, repeat=3):
        if conforms(a, b, registry) and conforms(b, c, registry):
            assert conforms(a, c, registry)


def test_axiom_sides_conform_to_return_types(bool_registry):
    ctx_cache = {}
    for name, (axiom, owner) in bool_registry.axioms.items():
        fn = bool_registry.functions[owner]
        ctx = TypingContext(bool_registry.axiom_metavars(axiom, owner))
        for side in (axiom.lhs, axiom.rhs):
            ty = infer_type(side, ctx, bool_registry)
            assert ty == fn.return_type or conforms(ty, fn.return_type, bool_registry), name


# -------------------------------------------------------------- constructors

def test_constructor_signature_successor():
    registry = load_registry("natural_numbers.axm")
    sig = constructor_signature("Successor", registry)
    assert sig.fields == (("n", TypeExpr("NaturalNumber")),)
    assert sig.result_type == TypeExpr("Successor")


def test_constructor_signature_pair(bool_registry):
    sig = constructor_signature("Pair", bool_registry)
    assert sig.type_params == ("A", "B")
    assert sig.fields == (("left", TypeExpr("A")), ("right", TypeExpr("B")))


def test_sum_types_have_no_constructor(bool_registry):
    with pytest.raises(DiagnosticError) as exc:
        constructor_signature("Boolean", bool_registry)
    assert exc.value.diagnostics[0].code == "E-NO-CONSTRUCTOR"


# ------------------------------------------------------------ deep terms

def _not_chain(depth: int, leaf: str) -> Term:
    term = Term(leaf)
    for _ in range(depth):
        term = Term("not", (), (term,))
    return term


def test_deep_terms_are_scanned_and_typed_without_recursion(bool_registry):
    assert term_metavars(_not_chain(5000, "a"), bool_registry) == {"a"}
    assert infer_type(_not_chain(5000, "False"), TypingContext(), bool_registry) == TypeExpr("Boolean")


# ------------------------------------------------- the recursive reference

def _size(term):
    return 1 + sum(_size(a) for a in term.args)


def _reference_check_application(name, declared, type_params, explicit, result, term, ctx, reg, spans, at):
    if explicit and len(explicit) != len(type_params):
        raise DiagnosticError(error(
            "E-ARITY",
            f"{name!r} expects {len(type_params)} type argument(s), got {len(explicit)}",
            spans[at],
        ))
    if len(term.args) != len(declared):
        raise DiagnosticError(error(
            "E-ARITY",
            f"{name!r} expects {len(declared)} argument(s), got {len(term.args)}",
            spans[at],
        ))
    bindings = dict(zip(type_params, explicit))
    places = list(itertools.accumulate((_size(a) for a in term.args[:-1]), initial=at + 1))
    arg_types = [_reference_infer_type(a, ctx, reg, spans, i) for a, i in zip(term.args, places)]
    params = set(type_params)
    if not explicit:
        for (_, pty), aty, i in zip(declared, arg_types, places):
            _solve_params(pty, aty, params, bindings, reg, lambda: spans[i])
    for (pname, pty), aty, arg, i in zip(declared, arg_types, term.args, places):
        expected = substitute_type(pty, bindings)
        unsolved = _mentions_unsolved(expected, params, bindings)
        if not unsolved and not conforms(aty, expected, reg):
            raise DiagnosticError(error(
                "E-TYPE-MISMATCH",
                f"argument {format_term(arg)} of {name!r}: "
                f"{format_type(aty)} does not conform to {format_type(expected)}",
                spans[i],
            ))
    return substitute_type(result, bindings)


def _reference_infer_type(term, ctx, reg, spans, at=0):
    """The recursive typer, with no memo, that ``infer_type`` replaced; the
    node at pre-order index ``at`` of the typed term has span ``spans[at]``."""
    if term.head in ctx.metavar_types:
        if term.args or term.type_args:
            raise DiagnosticError(error(
                "E-TYPE-MISMATCH", f"metavariable {term.head!r} cannot take arguments", spans[at],
            ))
        return ctx.metavar_types[term.head]
    fn = reg.functions.get(term.head)
    if fn is not None:
        return _reference_check_application(
            fn.name, fn.params, fn.type_params, term.type_args, fn.return_type, term, ctx, reg, spans, at,
        )
    decl = reg.types.get(term.head)
    if decl is not None:
        if isinstance(decl.body, SumBody):
            raise DiagnosticError(error(
                "E-NO-CONSTRUCTOR", f"sum type {term.head!r} has no constructor", spans[at],
            ))
        sig = constructor_signature(term.head, reg)
        return _reference_check_application(
            term.head, sig.fields, sig.type_params, term.type_args, sig.result_type, term, ctx, reg, spans, at,
        )
    if term.head in ctx.type_params:
        raise DiagnosticError(error(
            "E-UNRESOLVED", f"type parameter {term.head!r} used as a term", spans[at],
        ))
    raise DiagnosticError(error("E-UNRESOLVED", f"unknown term head {term.head!r}", spans[at]))


# ------------------------------------------------ typer against reference

TYPING_REGISTRIES = {
    "booleans": load_registry(*BOOL_FNS, "if_function.axm", "polymorphic_lists.axm"),
    "naturals": load_registry("natural_numbers.axm"),
}


def _context(file: str) -> TypingContext:
    """Equal quantifier types for every ``file``, with spans in ``file``."""
    types = {"a": TypeExpr("Boolean"), "b": TypeExpr("False"), "n": TypeExpr("Number"),
             "k": TypeExpr("NaturalNumber"), "xs": TypeExpr("List", (TypeExpr("Boolean"),))}
    return TypingContext({var: TypeExpr(ty.name, ty.args, Span(file, i + 1, 1, len(var)))
                          for i, (var, ty) in enumerate(types.items())}, frozenset({"T"}))


#: Two contexts per registry, each shared across examples, so later examples
#: read the memo entries of earlier ones.
TYPING_CONTEXTS = {name: (_context("first.axm"), _context("second.axm")) for name in TYPING_REGISTRIES}


def _app(head: str, *args: Term, type_args: tuple[TypeExpr, ...] = ()) -> Term:
    return Term(head, type_args, args)


_BOOLEANS = st.recursive(
    st.sampled_from([Term("False"), Term("True"), Term("a"), Term("b")]),
    lambda c: st.one_of(
        c.map(lambda x: _app("not", x)),
        st.tuples(c, c).map(lambda xs: _app("and", *xs)),
        st.tuples(c, c).map(lambda xs: _app("or", *xs)),
        st.tuples(c, c, c).map(lambda xs: _app("if", *xs)),
    ),
    max_leaves=8,
)
_BOOLEAN = (TypeExpr("Boolean"),)
_LISTS = st.one_of(
    st.just(Term("xs")),
    st.lists(_BOOLEANS, max_size=3).map(lambda xs: _prepend_all(xs, Term("Nil", _BOOLEAN))),
)
#: Terms that type over the boolean registry, but for an ``if`` whose branches do not join.
_TYPED = st.recursive(
    st.one_of(_BOOLEANS, _LISTS, st.integers(0, 4).map(lambda k: _successors(k, Term("Zero")))),
    lambda c: st.one_of(
        st.tuples(c, c).map(lambda xs: _app("Pair", *xs)),
        st.tuples(_BOOLEANS, c, c).map(lambda xs: _app("if", *xs)),
    ),
    max_leaves=4,
)
#: Right arities over every head, with leaves of every kind: many are ill-typed.
_ARBITRARY = terms({"not": 1, "and": 2, "or": 2, "if": 3, "Pair": 2, "Successor": 1, "Prepend": 2},
                   ("False", "True", "Zero", "Nil", "a", "b", "n", "xs"))
TYPING_TERMS = {
    "booleans": st.one_of(_TYPED, _ARBITRARY),
    "naturals": st.one_of(
        st.tuples(st.integers(0, 6), st.sampled_from(["Zero", "k"])).map(lambda kt: _successors(kt[0], Term(kt[1]))),
        terms({"Successor": 1}, ("Zero", "k", "n", "False")),
    ),
}


def _successors(k: int, term: Term) -> Term:
    for _ in range(k):
        term = _app("Successor", term)
    return term


def _prepend_all(items: list[Term], tail: Term) -> Term:
    for item in items:
        tail = _app("Prepend", item, tail, type_args=_BOOLEAN)
    return tail


def _paths(term: Term, path: tuple[int, ...] = ()):
    yield path
    for i, arg in enumerate(term.args):
        yield from _paths(arg, path + (i,))


def _replace(term: Term, path: tuple[int, ...], new: Term) -> Term:
    if not path:
        return new
    args = list(term.args)
    args[path[0]] = _replace(args[path[0]], path[1:], new)
    return Term(term.head, term.type_args, tuple(args))


def _at(term: Term, path: tuple[int, ...]) -> Term:
    for i in path:
        term = term.args[i]
    return term


#: One mutation per error branch of the typer.
_MUTATIONS = {
    "fewer arguments": lambda node: Term(node.head, node.type_args, node.args[:-1]),
    "more arguments": lambda node: Term(node.head, node.type_args, node.args + (Term("False"),)),
    "type-argument count": lambda node: Term(node.head, node.type_args + _BOOLEAN * 3, node.args),
    "unknown head": lambda node: Term("mystery", node.type_args, node.args),
    "metavariable with arguments": lambda node: Term("a", node.type_args, node.args or (Term("False"),)),
    "sum type as constructor": lambda node: Term("Boolean", node.type_args, node.args),
    "type parameter as a term": lambda node: Term("T", node.type_args, node.args),
    "non-conforming argument": lambda node: Term(
        node.head, node.type_args, (_app("Pair", Term("Zero"), Term("False")),) + node.args[1:]),
}


@st.composite
def _typing_cases(draw):
    """A registry, a context for it, a term for it that may be mutated at
    one node, and a distinct span for each of the term's nodes in pre-order."""
    name = draw(st.sampled_from(sorted(TYPING_REGISTRIES)))
    term = draw(TYPING_TERMS[name])
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(_paths(term))))
        mutate = _MUTATIONS[draw(st.sampled_from(sorted(_MUTATIONS)))]
        term = _replace(term, path, mutate(_at(term, path)))
    spans = tuple(Span("term.axm", 1, column, 1) for column in range(1, _size(term) + 1))
    return TYPING_REGISTRIES[name], draw(st.sampled_from(TYPING_CONTEXTS[name])), term, spans


def _type_spans(ty: TypeExpr):
    return ty.name, ty.span, tuple(_type_spans(a) for a in ty.args)


def _outcome(typer, term: Term, ctx: TypingContext, registry, spans):
    try:
        return "typed", _type_spans(typer(term, ctx, registry, spans))
    except DiagnosticError as exc:
        return "rejected", [(d.code, d.message, d.span, d.related) for d in exc.diagnostics]


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(_typing_cases())
def test_typer_agrees_with_recursive_reference(case):
    registry, ctx, term, spans = case
    # Compare the type with every span inside it, or the first error whole.
    expected = _outcome(_reference_infer_type, term, ctx, registry, spans)
    assert _outcome(infer_type, term, ctx, registry, spans) == expected


def test_threads_fill_one_typing_memo_consistently():
    registry = load_registry(*BOOL_FNS)
    leaves = [Term("False"), Term("True"), Term("a")]
    level1 = leaves + [_app("not", x) for x in leaves] + [_app(h, x, y) for h in ("and", "or")
                                                          for x in leaves for y in leaves]
    subjects = level1 + [_app(h, x, y) for h in ("and", "or") for x in level1 for y in level1[::3]]
    ctx = _context("first.axm")  # a memo of its own, empty at the start
    expected = [_type_spans(_reference_infer_type(t, ctx, registry, ())) for t in subjects]
    results = {}

    def work(i):
        results[i] = [_type_spans(infer_type(t, ctx, registry)) for t in subjects]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [results[i] for i in range(4)] == [expected] * 4
