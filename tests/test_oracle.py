"""Domain enumeration, normalization and brute-force validation."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axiotome import oracle
from axiotome.oracle import (
    DEFAULT_BUDGET, NormalizationResult, brute_force_validate, enumerable_domain, evaluator, normalize,
)
from axiotome.rewrite import apply_substitution, match, replace_at, subterm_at
from axiotome.syntax import FormulaicBody, Term, TypeExpr, parse_program, parse_term
from axiotome.typesys import build_registry
from axiotome.verifier import effective_quantifiers

from conftest import BASE_TYPES, BOOL_FNS, MIXED_RULES, load_program, load_registry, terms


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


def test_pair_domain_is_a_cross_product(bool_registry):
    dom = enumerable_domain(TypeExpr("Pair", (TypeExpr("Boolean"), TypeExpr("Boolean"))), bool_registry)
    assert dom.finite and len(dom.inhabitants) == 4


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
#: non-erasing, each with the first rule property it breaks.
RULE_SETS = {
    "booleans": (load_registry(*BOOL_FNS), True),
    "doubleNegation": (load_registry(*BOOL_FNS, "double_negation_function.axm"), True),
    "spin": (load_registry(*BOOL_FNS, extra=SPIN), True),
    "if erases a branch": (load_registry(*BOOL_FNS, "double_negation_function.axm", "if_function.axm"), False),
    "commutativity overlaps the truth table": (load_registry(*BASE_TYPES, extra=(
        "function and(a: Boolean, b: Boolean) : Boolean\n"
        "  allowing $and°FF: and(False, False) ↔ False\n"
        "           $and°C: and(a, b) ↔ and(b, a)\n")), False),
    "not left-linear": (load_registry(*BASE_TYPES, extra=(
        "function eq(a: Boolean, b: Boolean) : Boolean\n  allowing $eq: eq(a, a) ↔ True\n")), False),
    "duplicating": (load_registry(*BOOL_FNS, extra=(
        "function dup(a: Boolean) : Boolean\n  allowing $dup: dup(a) ↔ and(a, a)\n")), False),
    "overlaps itself below the root": (load_registry(*BASE_TYPES, extra=(
        "function twice(b: Boolean) : Boolean\n  allowing $twice: twice(twice(b)) ↔ b\n")), False),
}


@pytest.mark.parametrize("name", RULE_SETS)
def test_orthogonality_is_decided_once_per_rule_set(name):
    registry, orthogonal = RULE_SETS[name]
    assert registry.rules.orthogonal is orthogonal


EVALUATED_REGISTRIES = [RULE_SETS[name][0] for name in ("booleans", "doubleNegation", "spin", "if erases a branch")]
EVALUATED_HEADS = {"not": 1, "and": 2, "or": 2, "if": 3, "doubleNegation": 1, "spin": 1}


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(terms(EVALUATED_HEADS, ("False", "True", "a")), st.one_of(st.integers(0, 20), st.just(DEFAULT_BUDGET)))
@example(t("and(not(a), spin(False))"), 5)  # ``spin(False)`` alone has a step more to go
@example(t("if(True, a, not(False))"), DEFAULT_BUDGET)  # leftmost-outermost erases the redex
def test_validation_evaluator_agrees_with_reference(term, budget):
    # One evaluator per registry reduces the term and its arguments under two
    # assignments, so later results read the memo of earlier ones, including
    # those that ran out of budget.
    subjects = [term, *term.args]
    for registry in EVALUATED_REGISTRIES:
        evaluate = evaluator(subjects, registry, budget)
        for value in ("False", "True"):
            sigma = {"a": Term(value)}
            for got, subject in zip(evaluate(sigma), subjects):
                want = _reference_normalize(apply_substitution(sigma, subject), registry, budget, innermost=False)
                assert got.exhausted_budget == want.exhausted_budget
                if not want.exhausted_budget:
                    assert (got.normal_form, got.steps) == (want.normal_form, want.steps)


def test_deep_term_validates_bottom_up(bool_registry):
    assert bool_registry.rules.orthogonal
    deep = Term("a")
    for _ in range(5000):
        deep = Term("not", (), (deep,))
    verdict = brute_force_validate([("a", TypeExpr("Boolean"))], deep, Term("a"), bool_registry)
    assert verdict.status == "valid"


def test_memoized_validation_reduces_few_nodes(bool_registry, monkeypatch):
    # Whole-term normalization calls ``normalize`` twice per assignment, 8192
    # times here; bottom-up, it reduces only nodes the memo has not seen.
    calls = []

    def counting(*args):
        calls.append(args)
        return normalize(*args)

    monkeypatch.setattr(oracle, "normalize", counting)
    names = "abcdefghijkl"
    left, right = Term(names[0]), Term(names[-1])
    for x, y in zip(names[1:], reversed(names[:-1])):
        left, right = Term("and", (), (left, Term(x))), Term("and", (), (Term(y), right))
    quantifiers = [(v, TypeExpr("Boolean")) for v in names]
    assert brute_force_validate(quantifiers, left, right, bool_registry).status == "valid"
    assert 0 < len(calls) <= 48
