"""Semantic ground truth for finite domains.

Axioms are oriented left-to-right and formulaic bodies unfolded, giving a
directed reduction relation; ``normalize`` reduces at the leftmost-outermost
redex under a step budget, found in one non-recursive pre-order walk that
tries at each subterm only the rules that ``Registry.rules`` indexes under
its head and first argument.  ``eval`` always reduces this way:
leftmost-outermost is its specification.

``brute_force_validate`` checks a quantified equivalence by enumerating
every assignment of inhabitants to the quantified metavariables and
comparing normal forms, independently of any proof.  Which way it reduces
depends on the rule set (``RuleSet.orthogonal``):

* orthogonal, linear and non-erasing rules are evaluated bottom-up: each
  node's normal form is memoized by its head, type arguments and the
  identities of its children's normal forms, and ``normalize`` reduces only
  a node whose children are already normal.  Every complete reduction then
  has the same normal form and length (O'Donnell, *Computing in Systems
  Described by Equations*, 1977), so the verdicts, step counts and budget
  exhaustion are those of leftmost-outermost reduction;
* any other rule set (``if`` erases a branch, a commutativity axiom
  overlaps the truth table) is reduced by ``normalize`` on the whole
  substituted term.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .rewrite import Position, RuleIndex, apply_substitution, match, replace_at, rules_at
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

def _find_redex(term: Term, rules: RuleIndex) -> tuple[Position, Term] | None:
    """The leftmost-outermost redex as (position, replacement): the first
    node in pre-order that a rule matches, walked with an explicit stack
    whose children are pushed right to left."""
    stack: list[tuple[Position, Term]] = [((), term)]
    pop, push = stack.pop, stack.append
    while stack:
        path, node = pop()
        for _, rule in rules_at(rules, node):
            sigma = match(rule.lhs, node, rule.metavars)
            if sigma is not None:
                return path, apply_substitution(sigma, rule.rhs)
        args = node.args
        i = len(args)
        while i:
            i -= 1
            push((path + (i,), args[i]))
    return None


def normalize(term: Term, registry: Registry, budget: int = DEFAULT_BUDGET) -> NormalizationResult:
    """Reduce ``term`` at its leftmost-outermost redex until no rule applies
    or the budget is consumed."""
    rules = registry.rules.reductions
    steps = 0
    while steps < budget:
        hit = _find_redex(term, rules)
        if hit is None:
            return NormalizationResult(term, steps, False)
        path, replacement = hit
        term = replace_at(term, path, replacement)
        steps += 1
    return NormalizationResult(term, steps, True)


# ------------------------------------------------------ bottom-up evaluation

#: A term in post-order: (head, type arguments, arity) per node, children
#: before their parent and left to right.
Postfix = list[tuple[str, tuple[TypeExpr, ...], int]]


def _postfix(term: Term) -> Postfix:
    """``term``'s nodes in post-order, walked with an explicit stack."""
    out: Postfix = []
    stack = [term]
    while stack:
        node = stack.pop()
        out.append((node.head, node.type_args, len(node.args)))
        stack.extend(node.args)
    out.reverse()
    return out


def _bottom_up(program: Postfix, env: Mapping[str, NormalizationResult], memo: dict,
               registry: Registry, budget: int) -> NormalizationResult:
    """Normalize the term ``program`` spells node by node, with each bare
    metavariable in ``env`` read as the reduced value given there.  A node's
    normal form is looked up in ``memo`` under its head, type arguments and
    the identities of its children's normal forms; on a miss ``normalize``
    reduces the node, whose children are normal, and a result that reached a
    normal form is stored.  The memo keeps the normal forms its keys name
    alive.

    Exact only for an orthogonal rule set: steps are summed over the tree,
    and the budget is exhausted once the total reaches it, as in
    ``normalize``.  An exhausted result holds the subterm being reduced."""
    values: list[Term] = []
    steps = 0
    for head, type_args, arity in program:
        result = None if arity or type_args else env.get(head)
        if result is None:
            children = values[len(values) - arity:]
            del values[len(values) - arity:]
            key = (head, type_args, *map(id, children))
            result = memo.get(key)
            if result is None:
                result = normalize(Term(head, type_args, tuple(children)), registry, budget - steps)
                if not result.exhausted_budget:
                    memo[key] = result
        steps += result.steps
        if steps >= budget:
            return NormalizationResult(result.normal_form, max(budget, 0), True)
        values.append(result.normal_form)
    return NormalizationResult(values[0], steps, False)


def evaluator(terms: Sequence[Term], registry: Registry, budget: int = DEFAULT_BUDGET) \
        -> Callable[[Mapping[str, Term]], list[NormalizationResult]]:
    """The function that reduces ``sigma(term)`` for each of ``terms``, given
    an assignment ``sigma``, as ``brute_force_validate`` does: bottom-up with
    one memo for every call of the function if the rule set is orthogonal,
    else by ``normalize`` of the substituted terms."""
    if not registry.rules.orthogonal:
        return lambda sigma: [normalize(apply_substitution(sigma, t), registry, budget) for t in terms]
    memo: dict = {}
    programs = [_postfix(t) for t in terms]
    reduced: dict[int, tuple[Term, NormalizationResult]] = {}  # holding the value keeps its id unique

    def evaluate(sigma: Mapping[str, Term]) -> list[NormalizationResult]:
        env = {}
        for var, t in sigma.items():
            hit = reduced.get(id(t))
            if hit is None:
                hit = reduced[id(t)] = t, _bottom_up(_postfix(t), {}, memo, registry, budget)
            env[var] = hit[1]
        return [_bottom_up(program, env, memo, registry, budget) for program in programs]

    return evaluate


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
    evaluate = evaluator((lhs, rhs), registry, budget)
    for combo in itertools.product(*(inh for _, inh in domains)):
        sigma = dict(zip(names, combo))
        left, right = evaluate(sigma)
        if left.exhausted_budget or right.exhausted_budget:
            return ValidationVerdict("inconclusive", reason="normalization budget exhausted")
        if left.normal_form != right.normal_form:
            return ValidationVerdict("invalid", counterexample=sigma)
    return ValidationVerdict("valid")
