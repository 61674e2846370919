"""Semantic ground truth for finite domains.

Axioms are oriented left-to-right and formulaic bodies unfolded, giving a
directed reduction relation; ``normalize`` reduces at the leftmost-outermost
redex under a step budget, trying at each subterm only the rules that
``Registry.rules`` indexes under its head and first argument.
``brute_force_validate`` checks a quantified equivalence by enumerating
every assignment of inhabitants to the quantified metavariables and
comparing normal forms, independently of any proof.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .rewrite import RuleIndex, apply_substitution, match, replace_at, rules_at
from .syntax import SumBody, Term, TypeExpr, format_term
from .typesys import Registry, substitute_type

DEFAULT_BUDGET = 10_000


@dataclass(frozen=True)
class DomainEnumeration:
    type: TypeExpr
    inhabitants: tuple[Term, ...]
    finite: bool


@dataclass(frozen=True)
class NormalizationResult:
    normal_form: Term
    steps: int
    exhausted_budget: bool


@dataclass(frozen=True)
class ValidationVerdict:
    status: str  # "valid" | "invalid" | "inconclusive"
    counterexample: dict[str, Term] | None = None
    reason: str | None = None

    @property
    def valid(self) -> bool:
        return self.status == "valid"


# ------------------------------------------------------------- enumeration

def enumerable_domain(ty: TypeExpr, registry: Registry) -> DomainEnumeration:
    """Inhabitants of ``ty``, built bottom-up; a type is finite iff its
    constructor graph is acyclic and every field type is finite."""
    inhabitants = _enumerate(ty, registry, frozenset())
    if inhabitants is None:
        return DomainEnumeration(ty, (), False)
    return DomainEnumeration(ty, tuple(inhabitants), True)


def _enumerate(ty: TypeExpr, registry: Registry, visiting: frozenset) -> list[Term] | None:
    key = (ty.name, ty.args)
    if key in visiting:
        return None
    decl = registry.types.get(ty.name)
    if decl is None:
        return None  # unresolved or a bare type parameter: not enumerable
    bindings = dict(zip(decl.params, ty.args))
    if len(ty.args) != len(decl.params):
        return None
    visiting = visiting | {key}
    if isinstance(decl.body, SumBody):
        out: list[Term] = []
        for summand in decl.body.summands:
            sub = _enumerate(substitute_type(summand, bindings), registry, visiting)
            if sub is None:
                return None
            for term in sub:
                if term not in out:
                    out.append(term)
        return out
    field_domains: list[list[Term]] = []
    for _, field_ty in decl.body.fields:
        sub = _enumerate(substitute_type(field_ty, bindings), registry, visiting)
        if sub is None:
            return None
        field_domains.append(sub)
    out = []
    for combo in itertools.product(*field_domains):
        term = Term(ty.name, ty.args, tuple(combo))
        if term not in out:
            out.append(term)
    return out


# ------------------------------------------------------------ normalization

def _find_redex(term: Term, rules: RuleIndex, path, innermost: bool):
    """Leftmost redex in the requested strategy order."""
    if innermost:
        for i, child in enumerate(term.args):
            hit = _find_redex(child, rules, path + (i,), innermost)
            if hit is not None:
                return hit
    for _, rule in rules_at(rules, term):
        sigma = match(rule.lhs, term, rule.metavars)
        if sigma is not None:
            return path, apply_substitution(sigma, rule.rhs)
    if not innermost:
        for i, child in enumerate(term.args):
            hit = _find_redex(child, rules, path + (i,), innermost)
            if hit is not None:
                return hit
    return None


def normalize(term: Term, registry: Registry, budget: int = DEFAULT_BUDGET,
              innermost: bool = False) -> NormalizationResult:
    """Reduce ``term`` until no axiom applies or the budget is consumed.

    The default strategy is leftmost-outermost; ``innermost=True`` selects
    leftmost-innermost (used to cross-check confluence).
    """
    rules = registry.rules.reductions
    steps = 0
    while steps < budget:
        hit = _find_redex(term, rules, (), innermost)
        if hit is None:
            return NormalizationResult(term, steps, False)
        path, replacement = hit
        term = replace_at(term, path, replacement)
        steps += 1
    return NormalizationResult(term, steps, True)


# --------------------------------------------------------------- validation

def brute_force_validate(quantifiers: Sequence[tuple[str, TypeExpr]], lhs: Term, rhs: Term,
                         registry: Registry, budget: int = DEFAULT_BUDGET) -> ValidationVerdict:
    """Check ``lhs ↔ rhs`` over every assignment of inhabitants to the
    quantified metavariables.  Counterexamples are reported for the
    lexicographically first failing assignment."""
    domains = []
    for var, ty in quantifiers:
        dom = enumerable_domain(ty, registry)
        if not dom.finite:
            return ValidationVerdict("inconclusive", reason=f"domain {format_term(Term(ty.name))} is not finite")
        domains.append((var, dom.inhabitants))
    names = [var for var, _ in domains]
    for combo in itertools.product(*(inh for _, inh in domains)):
        sigma = dict(zip(names, combo))
        left = normalize(apply_substitution(sigma, lhs), registry, budget)
        right = normalize(apply_substitution(sigma, rhs), registry, budget)
        if left.exhausted_budget or right.exhausted_budget:
            return ValidationVerdict("inconclusive", reason="normalization budget exhausted")
        if left.normal_form != right.normal_form:
            return ValidationVerdict("invalid", counterexample=sigma)
    return ValidationVerdict("valid")
