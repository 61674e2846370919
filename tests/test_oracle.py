"""Domain enumeration, normalization and brute-force validation."""

from __future__ import annotations

import itertools
import random
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axiotome import oracle
from axiotome.oracle import (
    DEFAULT_BUDGET, NormalizationResult, brute_force_validate, enumerable_domain, normalize,
)
from axiotome.rewrite import apply_substitution, match, replace_at, subterm_at
from axiotome.syntax import FormulaicBody, Term, TypeExpr, parse_program, parse_term
from axiotome.typesys import build_registry
from axiotome.verifier import effective_quantifiers

from conftest import BASE_TYPES, BOOL_FNS, MIXED_RULES, load_program, load_registry, reference_validate, terms


def t(source: str) -> Term:
    return parse_term(source)


# -------------------------------------------------------------- enumeration

def test_boolean_domain(bool_registry):
    dom = enumerable_domain(TypeExpr("Boolean"), bool_registry)
    assert dom.finite
    assert dom.inhabitants == (t("False"), t("True"))


def test_nullary_product_is_a_singleton(bool_registry):
    dom = enumerable_domain(TypeExpr("False"), bool_registry)
    assert dom.finite and dom.inhabitants == (t("False"),)


def test_natural_numbers_are_not_finite():
    registry = load_registry("natural_numbers.axm")
    dom = enumerable_domain(TypeExpr("NaturalNumber"), registry)
    assert not dom.finite and dom.inhabitants == ()


def test_lists_are_not_finite():
    registry = load_registry("polymorphic_lists.axm", "missing_nullary_types.axm")
    dom = enumerable_domain(TypeExpr("List", (TypeExpr("True"),)), registry)
    assert not dom.finite


def test_deep_finite_type_is_enumerated():
    # Box^5000[Boolean] has two inhabitants; the walk keeps its own stack.
    registry = load_registry(*BASE_TYPES, extra="type Box[T] ≡ Product[item: T]\n")
    ty = TypeExpr("Boolean")
    for _ in range(5000):
        ty = TypeExpr("Box", (ty,))
    dom = enumerable_domain(ty, registry)
    assert dom.finite and len(dom.inhabitants) == 2


def _heads(term: Term) -> tuple[str, ...]:
    """The heads of a nest of one-field constructors, outermost first."""
    heads = [term.head]
    while term.args:
        term = term.args[0]
        heads.append(term.head)
    return tuple(heads)


def test_finite_type_whose_declaration_nests_a_field_deeply_is_enumerated():
    # Deep[Boolean]'s one field is Box^20[Boolean]: a path of 22 types,
    # longer than the type's own depth times the number of declarations.
    box20 = "T"
    for _ in range(20):
        box20 = f"Box[{box20}]"
    registry = load_registry(*BASE_TYPES, extra="type Box[T] ≡ Product[item: T]\n"
                                                 f"type Deep[T] ≡ Product[v: {box20}]\n")
    dom = enumerable_domain(TypeExpr("Deep", (TypeExpr("Boolean"),)), registry)
    assert dom.finite
    assert [_heads(term) for term in dom.inhabitants] == [
        ("Deep", *["Box"] * 20, leaf) for leaf in ("False", "True")]


def test_finite_type_whose_declarations_compound_their_nesting_is_enumerated():
    # D(k)[T] holds a D(k-1)[D(k-1)[T]], so D8[Boolean]'s inhabitants nest
    # 2^9 - 1 constructors, although the type has depth 1 and the registry
    # holds 16 declarations.
    decls = "type D0[T] ≡ Product[v: T]\n" + "".join(
        f"type D{k}[T] ≡ Product[v: D{k - 1}[D{k - 1}[T]]]\n" for k in range(1, 9))
    registry = load_registry(*BASE_TYPES, extra=decls)
    dom = enumerable_domain(TypeExpr("D8", (TypeExpr("Boolean"),)), registry)
    assert dom.finite
    assert [len(_heads(term)) for term in dom.inhabitants] == [2 ** 9, 2 ** 9]
    assert [_heads(term)[-1] for term in dom.inhabitants] == ["False", "True"]


def test_fields_that_recur_with_growing_type_arguments_are_not_finite():
    # L[Zero] holds C(l) for each l in L[W[Zero]], which holds C(l') for each
    # l' in L[W[W[Zero]]], and so on: no type recurs inside itself.
    registry = load_registry(extra="type Zero ≡ Product[]\ntype W[T] ≡ Product[]\ntype N[T] ≡ Product[]\n"
                                   "type L[T] ≡ Sum[N[T], C[T]]\ntype C[T] ≡ Product[head: L[W[T]]]\n")
    assert not enumerable_domain(TypeExpr("L", (TypeExpr("Zero"),)), registry).finite


def test_pair_domain_is_a_cross_product(bool_registry):
    dom = enumerable_domain(TypeExpr("Pair", (TypeExpr("Boolean"), TypeExpr("Boolean"))), bool_registry)
    assert dom.finite and len(dom.inhabitants) == 4


def test_large_product_domain_is_enumerated_in_one_pass(bool_registry):
    # ``Pair[P8, P4]``, P8 a nest of 8 Booleans: 4,096 inhabitants, whose
    # enumeration took 12 s when each was looked up in a list.  It takes
    # about 0.04 s once duplicates are dropped through a dict.
    _, p8 = _nest([t("False")] * 8)
    _, p4 = _nest([t("False")] * 4)
    start = time.perf_counter()
    dom = enumerable_domain(TypeExpr("Pair", (p8, p4)), bool_registry)
    elapsed = time.perf_counter() - start
    assert dom.finite and len(set(dom.inhabitants)) == len(dom.inhabitants) == 4096
    assert elapsed < 1.0


# ------------------------------------------------------------ normalization

def test_normalize_double_negation(bool_registry):
    result = normalize(t("not(not(False))"), bool_registry)
    assert result.normal_form == t("False")
    assert result.steps == 2
    assert not result.exhausted_budget


def test_normalize_nested_connectives(bool_registry):
    # Expected value computed by exhaustive truth-table evaluation:
    # or(False, True) = True, and(True, True) = True, not(True) = False.
    result = normalize(t("not(and(True, or(False, True)))"), bool_registry)
    assert result.normal_form == t("False")


def test_normal_form_is_fixed_point(bool_registry):
    result = normalize(t("False"), bool_registry)
    assert result.normal_form == t("False") and result.steps == 0


def test_formulaic_functions_unfold(full_registry):
    result = normalize(t("doubleNegation(True)"), full_registry)
    assert result.normal_form == t("True")


def test_budget_exhaustion_is_reported():
    program = parse_program(
        "type False ≡ Product[]\ntype True ≡ Product[]\ntype Boolean ≡ Sum[False, True]\n"
        "function spin(b: Boolean) : Boolean\n  allowing $spin: spin(b) ↔ spin(spin(b))\n"
    )
    registry, diags = build_registry(program)
    assert not diags
    result = normalize(t("spin(False)"), registry, budget=25)
    assert result.exhausted_budget and result.steps == 25


# ---------------------------------------------------------------- validation

def test_de_morgan_statement_is_valid(bool_registry):
    verdict = brute_force_validate(
        [("a", TypeExpr("Boolean")), ("b", TypeExpr("Boolean"))],
        t("not(and(a, b))"), t("or(not(a), not(b))"), bool_registry,
    )
    assert verdict.status == "valid"


def test_negation_is_not_identity(bool_registry):
    verdict = brute_force_validate(
        [("a", TypeExpr("Boolean"))], t("not(a)"), t("a"), bool_registry,
    )
    assert verdict.status == "invalid"
    assert verdict.counterexample == {"a": t("False")}


def test_triple_negation_statement_is_valid(bool_registry):
    verdict = brute_force_validate(
        [("a", TypeExpr("Boolean"))], t("not(not(not(a)))"), t("not(a)"), bool_registry,
    )
    assert verdict.status == "valid"


def test_each_distinct_domain_is_enumerated_once(bool_registry):
    # Five variables over one type: one walk of ``Boolean``, with the same
    # verdict and counterexample as the reference.
    quantifiers = [(v, TypeExpr("Boolean")) for v in "abcde"]
    lhs, rhs = t("and(a, and(b, and(c, and(d, e))))"), t("or(a, or(b, or(c, or(d, e))))")
    with mock.patch.object(oracle, "_enumerate", wraps=oracle._enumerate) as walk:
        verdict = brute_force_validate(quantifiers, lhs, rhs, bool_registry)
    assert walk.call_count == 1
    assert verdict == reference_validate(quantifiers, lhs, rhs, bool_registry)
    assert verdict.counterexample == {"a": t("False"), "b": t("False"), "c": t("False"), "d": t("False"),
                                      "e": t("True")}


def test_infinite_domain_is_inconclusive():
    registry = load_registry("natural_numbers.axm")
    verdict = brute_force_validate(
        [("n", TypeExpr("NaturalNumber"))], t("n"), t("n"), registry,
    )
    assert verdict.status == "inconclusive"


def test_budget_exhaustion_is_inconclusive():
    program = parse_program(
        "type False ≡ Product[]\ntype True ≡ Product[]\ntype Boolean ≡ Sum[False, True]\n"
        "function spin(b: Boolean) : Boolean\n  allowing $spin: spin(b) ↔ spin(spin(b))\n"
    )
    registry, _ = build_registry(program)
    verdict = brute_force_validate(
        [("a", TypeExpr("Boolean"))], t("spin(a)"), t("a"), registry, budget=20,
    )
    assert verdict.status == "inconclusive"


def test_validation_is_symmetric(bool_registry):
    cases = [
        (t("not(and(a, b))"), t("or(not(a), not(b))")),
        (t("not(a)"), t("a")),
        (t("or(a, b)"), t("or(b, a)")),
    ]
    for lhs, rhs in cases:
        quantifiers = [("a", TypeExpr("Boolean")), ("b", TypeExpr("Boolean"))]
        fwd = brute_force_validate(quantifiers, lhs, rhs, bool_registry)
        bwd = brute_force_validate(quantifiers, rhs, lhs, bool_registry)
        assert fwd.status == bwd.status


def test_flawed_proof_does_not_taint_the_statement(bool_registry):
    # The original two-variable case proof is rejected by the verifier, but
    # its statement brute-forces as valid.
    program = load_program(*BOOL_FNS, "de_morgan_original.axm")
    registry, _ = build_registry(program)
    thm = registry.theorems["deMorgan1"]
    quantifiers, _ = effective_quantifiers(thm, registry)
    verdict = brute_force_validate(
        [(q.var, q.domain) for q in quantifiers], thm.lhs, thm.rhs, registry,
    )
    assert verdict.status == "valid"


# ---------------------------------------------------------------- confluence

def _ground_terms(depth: int, with_if: bool) -> list[Term]:
    """All ground boolean terms up to the given nesting depth."""
    layer: list[Term] = [Term("False"), Term("True")]
    for _ in range(depth):
        previous = list(layer)
        seen = set(previous)
        for x in previous:
            for candidate in (Term("not", (), (x,)),):
                if candidate not in seen:
                    seen.add(candidate)
                    layer.append(candidate)
        for x, y in itertools.product(previous, repeat=2):
            for head in ("and", "or"):
                candidate = Term(head, (), (x, y))
                if candidate not in seen:
                    seen.add(candidate)
                    layer.append(candidate)
        if with_if:
            for c, x, y in itertools.product(previous, repeat=3):
                candidate = Term("if", (), (c, x, y))
                if candidate not in seen:
                    seen.add(candidate)
                    layer.append(candidate)
    return layer


def _random_term(rng: random.Random, depth: int) -> Term:
    if depth == 0 or rng.random() < 0.2:
        return Term(rng.choice(("False", "True")))
    head = rng.choice(("not", "and", "or", "if"))
    arity = {"not": 1, "and": 2, "or": 2, "if": 3}[head]
    return Term(head, (), tuple(_random_term(rng, depth - 1) for _ in range(arity)))


def test_boolean_fragment_confluence(full_registry):
    # Exhaustive over every ground term to depth 2 including the ternary
    # conditional, then a seeded sample of deeper terms to depth 4: the
    # leftmost-outermost ``normalize`` and the leftmost-innermost reference
    # strategy must agree.
    exhaustive = _ground_terms(2, with_if=True)
    assert len(exhaustive) == 8822
    rng = random.Random(20240901)
    sampled = [_random_term(rng, 4) for _ in range(1500)]
    for term in exhaustive + sampled:
        outer = normalize(term, full_registry)
        inner = _reference_normalize(term, full_registry, DEFAULT_BUDGET, innermost=True)
        assert not outer.exhausted_budget and not inner.exhausted_budget
        assert outer.normal_form == inner.normal_form


def test_boolean_normal_forms_are_constants(full_registry):
    constants = {Term("False"), Term("True")}
    for term in _ground_terms(2, with_if=False):
        result = normalize(term, full_registry)
        assert result.normal_form in constants


# --------------------------------------------------- indexed normalization

def _reference_normalize(term: Term, registry, budget: int, innermost: bool) -> NormalizationResult:
    """``normalize`` without the rule set: the directed rules are rebuilt on
    each call, and every rule with the subterm's head is tried.  With
    ``innermost``, the leftmost-innermost redex is reduced first, the
    strategy the confluence checks compare ``normalize`` with."""
    rules: dict[str, list] = {}
    for axiom, owner in registry.axioms.values():
        metavars = frozenset(registry.axiom_metavars(axiom, owner))
        rules.setdefault(axiom.lhs.head, []).append((axiom.lhs, axiom.rhs, metavars))
    for fn in registry.functions.values():
        if isinstance(fn.body, FormulaicBody):
            lhs = Term(fn.name, (), tuple(Term(p) for p, _ in fn.params))
            rules.setdefault(fn.name, []).append((lhs, fn.body.term, frozenset(p for p, _ in fn.params)))

    def find_redex(term: Term, path):
        if innermost:
            for i, child in enumerate(term.args):
                hit = find_redex(child, path + (i,))
                if hit is not None:
                    return hit
        for lhs, rhs, metavars in rules.get(term.head, ()):
            sigma = match(lhs, term, metavars)
            if sigma is not None:
                return path, apply_substitution(sigma, rhs)
        if not innermost:
            for i, child in enumerate(term.args):
                hit = find_redex(child, path + (i,))
                if hit is not None:
                    return hit
        return None

    steps = 0
    while steps < budget:
        hit = find_redex(term, ())
        if hit is None:
            return NormalizationResult(term, steps, False)
        term = replace_at(term, *hit)
        steps += 1
    return NormalizationResult(term, steps, True)


#: Boolean connectives, the conditional and a formulaic unfolding, then the
#: same with rules filed under a head alone and merged with rules filed
#: under a head and a constant first argument (see ``MIXED_RULES``).
INDEXED_REGISTRIES = (
    load_registry(*BOOL_FNS, "if_function.axm", "double_negation_function.axm"),
    load_registry(*BOOL_FNS, "if_function.axm", "double_negation_function.axm", extra=MIXED_RULES),
)
BOOLEAN_HEADS = {"not": 1, "and": 2, "or": 2, "if": 3, "doubleNegation": 1, "pick": 2, "same": 1}


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(terms(BOOLEAN_HEADS), st.one_of(st.integers(0, 20), st.just(DEFAULT_BUDGET)))
def test_indexed_normalize_agrees_with_reference(term, budget):
    for registry in INDEXED_REGISTRIES:
        assert normalize(term, registry, budget) == _reference_normalize(term, registry, budget, innermost=False)


def test_normalize_finds_a_redex_at_depth_1500(bool_registry):
    # ``_find_redex`` walks with an explicit stack.  The result is read back
    # with ``subterm_at``, because ``Term.__eq__`` still recurses.
    deep = Term("False")
    for _ in range(1500):
        deep = Term("not", (), (deep,))
    result = normalize(deep, bool_registry, 2)
    assert (result.steps, result.exhausted_budget) == (2, True)
    assert subterm_at(result.normal_form, (0,) * 1498).head == "False"


# ------------------------------------------------- memoized validation

SPIN = "function spin(b: Boolean) : Boolean\n  allowing $spin: spin(b) ↔ spin(spin(b))\n"

#: Registries whose reduction rules are, and are not, orthogonal, linear and
#: non-erasing where the head given is reached, each with the first rule
#: property it breaks.
RULE_SETS = {
    "booleans": (load_registry(*BOOL_FNS), "or", True),
    "doubleNegation": (load_registry(*BOOL_FNS, "double_negation_function.axm"), "doubleNegation", True),
    "spin": (load_registry(*BOOL_FNS, extra=SPIN), "spin", True),
    "if erases a branch": (load_registry(*BOOL_FNS, "double_negation_function.axm", "if_function.axm"), "if",
                           False),
    "commutativity overlaps the truth table": (load_registry(*BASE_TYPES, extra=(
        "function and(a: Boolean, b: Boolean) : Boolean\n"
        "  allowing $and°FF: and(False, False) ↔ False\n"
        "           $and°C: and(a, b) ↔ and(b, a)\n")), "and", False),
    "not left-linear": (load_registry(*BASE_TYPES, extra=(
        "function eq(a: Boolean, b: Boolean) : Boolean\n  allowing $eq: eq(a, a) ↔ True\n")), "eq", False),
    "duplicating": (load_registry(*BOOL_FNS, extra=(
        "function dup(a: Boolean) : Boolean\n  allowing $dup: dup(a) ↔ and(a, a)\n")), "dup", False),
    "overlaps itself below the root": (load_registry(*BASE_TYPES, extra=(
        "function twice(b: Boolean) : Boolean\n  allowing $twice: twice(twice(b)) ↔ b\n")), "twice", False),
}


@pytest.mark.parametrize("name", RULE_SETS)
def test_orthogonality_is_decided_once_per_rule_set(name):
    # Decided per theorem, over the reductions its heads can reach: a rule
    # that breaks orthogonality counts only where its head is reached.
    registry, head, orthogonal = RULE_SETS[name]
    assert registry.rules.orthogonal_over({head, "a", "False"}) is orthogonal
    assert registry.rules.orthogonal_over({"a", "False", "True"})


def test_orthogonality_follows_right_hand_sides():
    registry = load_registry(*BOOL_FNS, "if_function.axm", extra=(
        "function choose(c: Boolean) : Boolean ≡ if(c, True, False)\n"
        "function negate(c: Boolean) : Boolean ≡ not(c)\n"))
    assert registry.rules.orthogonal_over({"negate", "and"})
    assert not registry.rules.orthogonal_over({"choose"})
    anywhere = load_registry(*BOOL_FNS, extra=(
        "function wrap(b: Boolean) : Boolean\n  allowing $wrap: b ↔ wrap(b)\n"))
    assert not anywhere.rules.orthogonal_over({"False"})  # a bare left-hand side matches every head


EVALUATED_REGISTRIES = [RULE_SETS[name][0] for name in ("booleans", "doubleNegation", "spin", "if erases a branch")]
EVALUATED_HEADS = {"not": 1, "and": 2, "or": 2, "if": 3, "doubleNegation": 1, "spin": 1}
BUDGETS = st.one_of(st.integers(0, 20), st.just(DEFAULT_BUDGET))
BOOLEAN = TypeExpr("Boolean")


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(terms(EVALUATED_HEADS, ("False", "True", "a")), BUDGETS)
@example(t("and(not(a), spin(False))"), 5)  # ``spin(False)`` alone has a step more to go
@example(t("if(True, a, not(False))"), DEFAULT_BUDGET)  # leftmost-outermost erases the redex
def test_validation_evaluator_agrees_with_reference(term, budget):
    # One block walks the term and its arguments over both values of ``a``
    # with one memo, so later walks read the memo of earlier ones, including
    # those that ran out of budget.  A walk stops at the first assignment
    # that runs out of budget: the values of later ones are not checked.
    subjects = [term, *term.args]
    programs = [oracle._postfix(subject) for subject in subjects]
    heads = {head for program in programs for head, _, _ in program}
    for registry in EVALUATED_REGISTRIES:
        if not registry.rules.orthogonal_over(heads):
            continue  # validated by ``normalize`` of each substituted term
        [(fixed, results)] = oracle._blocks(["a"], [(t("False"), t("True"))], subjects, registry, budget)
        assert not fixed
        for partition, subject in zip(results, subjects):
            for bit, value in enumerate(("False", "True")):
                sigma = {"a": Term(value)}
                want = _reference_normalize(apply_substitution(sigma, subject), registry, budget, innermost=False)
                got = [value for value, mask in partition.items() if mask >> bit & 1]
                assert got == [oracle.EXHAUSTED if want.exhausted_budget else (want.normal_form, want.steps)]
                if want.exhausted_budget:
                    break


VARIABLES = "abcde"


@st.composite
def identities(draw):
    names = VARIABLES[:draw(st.integers(1, len(VARIABLES)))]
    side = terms(EVALUATED_HEADS, ("False", "True", *names))
    return [(v, BOOLEAN) for v in names], draw(side), draw(side)


@pytest.mark.parametrize("spread", [2, oracle.SPREAD])
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(identities(), BUDGETS)
@example(([("a", BOOLEAN), ("b", BOOLEAN)], t("and(a, spin(b))"), t("a")), 30)
@example(([("a", BOOLEAN)], t("if(a, a, not(a))"), t("True")), DEFAULT_BUDGET)
@example(([("a", BOOLEAN), ("a", BOOLEAN)], t("and(a, True)"), t("not(a)")), DEFAULT_BUDGET)  # the later ``a`` wins
def test_validation_agrees_with_per_assignment_reference(spread, identity, budget):
    # At ``SPREAD`` 2 most identities spread and are walked again in blocks
    # of at most two assignments.
    quantifiers, lhs, rhs = identity
    with mock.patch.object(oracle, "SPREAD", spread):
        for registry in EVALUATED_REGISTRIES:
            assert brute_force_validate(quantifiers, lhs, rhs, registry, budget) \
                == reference_validate(quantifiers, lhs, rhs, registry, budget)


def test_deep_term_validates_bottom_up(bool_registry):
    assert bool_registry.rules.orthogonal_over({"not", "a"})
    deep = Term("a")
    for _ in range(5000):
        deep = Term("not", (), (deep,))
    verdict = brute_force_validate([("a", TypeExpr("Boolean"))], deep, Term("a"), bool_registry)
    assert verdict.status == "valid"


def _reassociation(names: str) -> tuple[list[tuple[str, TypeExpr]], Term, Term]:
    """``a ∧ b ∧ …`` nested to the left, and the same nested to the right."""
    left, right = Term(names[0]), Term(names[-1])
    for x, y in zip(names[1:], reversed(names[:-1])):
        left, right = Term("and", (), (left, Term(x))), Term("and", (), (Term(y), right))
    return [(v, BOOLEAN) for v in names], left, right


def test_memoized_validation_reduces_few_nodes(bool_registry, full_registry, monkeypatch):
    # Whole-term normalization calls ``normalize`` twice per assignment, 8192
    # times here; bottom-up, it reduces only nodes the memo has not seen.
    # ``if`` erases a branch, but this theorem never reaches it.
    calls = []

    def counting(*args):
        calls.append(args)
        return normalize(*args)

    monkeypatch.setattr(oracle, "normalize", counting)
    for registry in (bool_registry, full_registry):
        calls.clear()
        assert brute_force_validate(*_reassociation("abcdefghijkl"), registry).status == "valid"
        assert 0 < len(calls) <= 48


# ------------------------------------------------------ assignment masks

PAIR = TypeExpr("Pair", (BOOLEAN, BOOLEAN))


def test_ground_theorem_is_refuted_by_the_empty_assignment(bool_registry):
    assert brute_force_validate([], t("not(False)"), t("False"), bool_registry) \
        == oracle.ValidationVerdict("invalid", counterexample={})


@pytest.mark.parametrize("spread", [2, oracle.SPREAD])
@pytest.mark.parametrize("block", [1, 2, 8, oracle.BLOCK])
def test_counterexample_is_decoded_in_mixed_radix(bool_registry, monkeypatch, block, spread):
    # ``Pair[Boolean, Boolean]`` has four inhabitants.  ``Pair(b, b)`` is
    # ``p`` for one of them, whatever ``c`` is, so the first failure is at
    # digits (0, 1, 0): on the block's bits, or on the blocks, or both.
    # With ``SPREAD`` at 2, ``p`` has too many inhabitants to vary in a block.
    monkeypatch.setattr(oracle, "BLOCK", block)
    monkeypatch.setattr(oracle, "SPREAD", spread)
    quantifiers = [("b", BOOLEAN), ("p", PAIR), ("c", BOOLEAN)]
    lhs = Term("Pair", PAIR.args, (t("b"), t("b")))
    verdict = brute_force_validate(quantifiers, lhs, t("p"), bool_registry)
    assert verdict == reference_validate(quantifiers, lhs, t("p"), bool_registry)
    assert verdict.counterexample == {"b": t("False"), "p": Term("Pair", PAIR.args, (t("False"), t("True"))),
                                      "c": t("False")}


@pytest.mark.parametrize("block", [1, oracle.BLOCK])
def test_empty_domain_has_no_assignment(monkeypatch, block):
    # Leading (one assignment per block) or trailing, an empty domain leaves
    # no assignment to refute the identity.
    monkeypatch.setattr(oracle, "BLOCK", block)
    registry = load_registry(*BOOL_FNS, extra="type Void ≡ Sum[]\n")
    for quantifiers in ([("b", BOOLEAN), ("x", TypeExpr("Void"))], [("x", TypeExpr("Void")), ("b", BOOLEAN)]):
        assert brute_force_validate(quantifiers, t("not(b)"), t("b"), registry).status == "valid"


def test_validation_builds_no_move_index():
    registry = load_registry(*BOOL_FNS)
    assert brute_force_validate([("a", BOOLEAN)], t("not(not(a))"), t("a"), registry).status == "valid"
    assert "moves" not in vars(registry.rules)


def test_first_counterexample_is_in_a_later_block(bool_registry):
    # 18 variables: the last 16 fill a block, and the blocks fix ``x0, x1``
    # in product order.  The block (True, True) fails at its first bit, but
    # (True, False) comes first and fails at its second.
    names = [f"x{i}" for i in range(18)]
    lhs = t(f"and(x0, or(x1, {names[-1]}))")
    verdict = brute_force_validate([(v, BOOLEAN) for v in names], lhs, t("False"), bool_registry)
    assert verdict.status == "invalid"
    assert verdict.counterexample == {v: t("True" if v in ("x0", names[-1]) else "False") for v in names}


def _nest(leaves: list[Term]) -> tuple[Term, TypeExpr]:
    """``leaves`` of type ``Boolean`` paired up into a balanced tree, and its type."""
    if len(leaves) == 1:
        return leaves[0], BOOLEAN
    (left, left_ty), (right, right_ty) = _nest(leaves[:len(leaves) // 2]), _nest(leaves[len(leaves) // 2:])
    return Term("Pair", (left_ty, right_ty), (left, right)), TypeExpr("Pair", (left_ty, right_ty))


@pytest.mark.parametrize("spread", [2, 4, oracle.SPREAD])
def test_spreading_values_are_walked_in_small_blocks(bool_registry, monkeypatch, spread):
    # A nest of 8 variables takes a value of its own on each of the 256
    # assignments of one block, more than ``SPREAD``: the walk gives up on
    # that block and walks it in blocks of at most ``SPREAD`` assignments,
    # so no node ever holds more masks.  ``rhs`` fails only where ``x0``,
    # ``x1`` and ``x7`` hold, at assignment 193 of a later small block.
    monkeypatch.setattr(oracle, "SPREAD", spread)
    parts = []
    walk = oracle._bottom_up

    def measuring(*args):
        parts.append(walk(*args))
        return parts[-1]

    monkeypatch.setattr(oracle, "_bottom_up", measuring)
    names = [f"x{i}" for i in range(8)]
    quantifiers = [(v, BOOLEAN) for v in names]
    lhs, _ = _nest([Term(v) for v in names])
    rhs, _ = _nest([*map(Term, names[:-1]), t("and(x7, not(and(x0, x1)))")])
    twice, _ = _nest([t(f"not(not({v}))") for v in names])
    for other, budget in ((rhs, DEFAULT_BUDGET), (twice, DEFAULT_BUDGET), (twice, 15), (twice, 0)):
        verdict = brute_force_validate(quantifiers, lhs, other, bool_registry, budget)
        assert verdict == reference_validate(quantifiers, lhs, other, bool_registry, budget)
    assert brute_force_validate(quantifiers, lhs, rhs, bool_registry).counterexample \
        == {v: t("True" if v in ("x0", "x1", "x7") else "False") for v in names}
    assert None in parts and max(map(len, filter(None, parts))) <= spread


def _chain(op: str, names: list[str]) -> Term:
    term = Term(names[0])
    for name in names[1:]:
        term = Term(op, (), (term, Term(name)))
    return term


def test_forty_variable_counterexample_is_found_in_the_first_block(bool_registry):
    names = [f"x{i}" for i in range(40)]
    start = time.perf_counter()
    verdict = brute_force_validate([(v, BOOLEAN) for v in names], _chain("and", names), _chain("or", names),
                                   bool_registry)
    assert time.perf_counter() - start < 1.0
    assert verdict.counterexample == {v: t("True" if v == names[-1] else "False") for v in names}


@pytest.mark.parametrize("registry", ["bool_registry", "full_registry"])
def test_sixteen_variable_reassociation_validates_fast(request, registry):
    registry = request.getfixturevalue(registry)
    identity = _reassociation("abcdefghijklmnop")
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        assert brute_force_validate(*identity, registry).status == "valid"
        best = min(best, time.perf_counter() - start)
    assert best <= 0.05
