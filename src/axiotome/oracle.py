"""Semantic ground truth for finite domains.

Axioms are oriented left-to-right and formulaic bodies unfolded, giving a
directed reduction relation; ``normalize`` reduces at the leftmost-outermost
redex under a step budget, found in one non-recursive pre-order walk that
tries at each subterm only the rules that ``Registry.rules`` indexes under
its head and first argument.  ``eval`` always reduces this way:
leftmost-outermost is its specification.

``brute_force_validate`` checks a quantified equivalence on every assignment
of inhabitants to the quantified metavariables, independently of any proof.
Where the reductions it reaches are orthogonal (``RuleSet.orthogonal_over``),
every complete reduction has the same normal form and length (O'Donnell,
*Computing in Systems Described by Equations*, 1977), so both sides
are evaluated bottom-up on blocks of assignments at once, with the
assignments that give each value held as a bit mask (Knuth, *TAOCP* 4A,
§7.1); elsewhere ``normalize`` reduces each substituted term.  A block
holds at most ``BLOCK`` assignments and a node at most ``SPREAD`` values;
where a node's values spread further (a constructor that keeps its
variables takes one per assignment), the walk goes on in blocks of at
most ``SPREAD`` assignments, down to one.
"""

from __future__ import annotations

import itertools
from math import inf, prod
from typing import Mapping, NamedTuple, Sequence

from .rewrite import Position, RuleIndex, apply_substitution, match, replace_at, rules_at
from .syntax import SumBody, Term, TypeExpr, format_type
from .typesys import CLOSURE_BOUND, Registry, substitute_type, summands

DEFAULT_BUDGET = 10_000


class DomainEnumeration(NamedTuple):
    type: TypeExpr
    inhabitants: tuple[Term, ...]
    finite: bool


class NormalizationResult(NamedTuple):
    normal_form: Term
    steps: int
    exhausted_budget: bool


class ValidationVerdict(NamedTuple):
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
    inhabitants = _enumerate(ty, registry)
    if inhabitants is None:
        return DomainEnumeration(ty, (), False)
    return DomainEnumeration(ty, tuple(inhabitants), True)


def _enumerate(ty: TypeExpr, registry: Registry) -> list[Term] | None:
    """The inhabitants of ``ty``, or ``None`` where it is not finite: where
    a type recurs inside itself or names no declared type.  A post-order
    walk with an explicit stack, so its depth is not limited by the
    interpreter's recursion limit.

    A type that recurs with growing type arguments never repeats, so its
    path has no end; like the summand closure walk, this one gives up
    once the path holds ``CLOSURE_BOUND`` types, and reads the type as
    not finite.  A finite type nested that deep reads so too."""
    done: list[list[Term]] = []  # inhabitants of the finished types, in order
    path: set[TypeExpr] = set()  # the types entered and not yet left
    # Types to enter, and (type, is it a sum, base of its parts in ``done``) to leave.
    stack: list = [ty]
    while stack:
        item = stack.pop()
        if item.__class__ is tuple:
            node, is_sum, base = item
            parts = done[base:]
            del done[base:]
            path.remove(node)
            if is_sum:
                done.append(list(dict.fromkeys(itertools.chain.from_iterable(parts))))
            else:
                done.append(list(dict.fromkeys(Term(node.name, node.args, combo)
                                               for combo in itertools.product(*parts))))
            continue
        decl = registry.types.get(item.name)
        if item in path or len(path) >= CLOSURE_BOUND or decl is None or len(item.args) != len(decl.params):
            return None  # recurring, nested too deep, unresolved or a bare type parameter
        is_sum = isinstance(decl.body, SumBody)
        if is_sum:
            parts = summands(item, registry)
        else:
            bindings = dict(zip(decl.params, item.args))
            parts = [substitute_type(field_ty, bindings) for _, field_ty in decl.body.fields]
        if not (parts or is_sum):  # a nullary product: its one inhabitant at once
            done.append([Term(item.name, item.args, ())])
            continue
        path.add(item)
        stack.append((item, is_sum, len(done)))
        stack.extend(reversed(parts))
    return done[0]


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

#: A term's values on a block of assignments, each (normal form, cumulative
#: steps) or ``EXHAUSTED`` with the mask of the assignments that give it.
Partition = dict[tuple[Term | None, float], int]

#: The value of a reduction that ran out of budget.
EXHAUSTED = (None, inf)

#: The most assignments in a block, bit ``i`` standing for its ``i``-th in
#: product order; no mask outgrows 8 KiB.
BLOCK = 1 << 16

#: The most values a node may take on a block.  A block where some node
#: takes more is walked again in blocks of at most ``SPREAD`` assignments,
#: where no node can, so a partition never holds more than ``SPREAD`` masks.
SPREAD = 64


def _postfix(term: Term) -> Postfix:
    return [(node.head, node.type_args, len(node.args)) for node in term.postorder()]


def _bottom_up(program: Postfix, leaves: Mapping[str, Partition], full: int, memo: dict,
               registry: Registry, budget: int) -> Partition | None:
    """The values of the term ``program`` spells on the block ``full``, with
    a bare metavariable in ``leaves`` taking the values given there, or
    ``None`` once a node's children meet in more than ``SPREAD`` ways.  Any
    other node is reduced once per combination of its children's values
    whose masks meet: by ``memo``, keyed by the node their normal forms
    make, or else by ``normalize`` with the budget they left.  Terms are
    interned, so a normal form is one object per value and a partition
    keys on it."""
    values: list[Partition] = []
    first = 0  # the lowest assignment out of budget; no later one can decide the verdict, so they are dropped
    for head, type_args, arity in program:
        if not (arity or type_args) and head in leaves:
            values.append(leaves[head])
            continue
        combos = [(full & (2 * first - 1), 0, ())]  # (mask, steps, normal forms) of the children so far
        children = values[len(values) - arity:]
        del values[len(values) - arity:]
        for child in children:
            combos = [(meet, steps + s, forms + (form,))
                      for mask, steps, forms in combos for (form, s), m in child.items() if (meet := mask & m)]
            if len(combos) > SPREAD:
                return None
        part: Partition = {}
        for mask, steps, forms in combos:
            value = EXHAUSTED
            if steps < budget:
                node = Term(head, type_args, forms)
                hit = memo.get(node)
                if hit is None:
                    result = normalize(node, registry, budget - steps)
                    hit = EXHAUSTED
                    if not result.exhausted_budget:
                        hit = memo[node] = result.normal_form, result.steps
                if steps + hit[1] < budget:
                    value = hit[0], steps + hit[1]
            if value is EXHAUSTED:
                first = mask & -mask
            part[value] = part.get(value, 0) | mask
        values.append(part)
    return values[0]


def _walker(names: list[str], domains: list[tuple[Term, ...]], programs: list[Postfix], assignments: int,
            memo: dict, registry: Registry, budget: int):
    """``(split, walk)``: the variables from ``split`` on, whose domains
    have at most ``SPREAD`` inhabitants each and at most ``assignments`` in
    product, vary within a block, and ``walk(fixed)`` gives the values of
    ``programs`` on the block that fixes the others to ``fixed`` (``None``
    if a node spreads).  Digit ``c`` of a varying variable is set on the
    ``c``-th run of ``stride`` bits in every period of its domain size times
    ``stride``; inhabitants are reduced by the same walk."""
    sizes = [len(dom) for dom in domains]
    split = next(j for j in range(len(sizes) + 1)
                 if max(sizes[j:], default=0) <= SPREAD and prod(sizes[j:]) <= assignments)
    size = prod(sizes[split:])
    full, leaves, held = (1 << size) - 1, {}, {}

    def leaf(inhabitants, masks) -> Partition:
        part: Partition = {}
        for c, m in zip(inhabitants, masks):
            for value, mask in _bottom_up(_postfix(c), {}, m, memo, registry, budget).items():
                part[value] = part.get(value, 0) | mask
        return part

    for j in range(split, len(sizes)):
        stride = prod(sizes[j + 1:])
        zero, width = (1 << stride) - 1, stride * sizes[j]
        while width < size:
            zero |= zero << width
            width *= 2
        leaves[names[j]] = leaf(domains[j], [zero << c * stride & full for c in range(sizes[j])])

    def walk(fixed: tuple[Term, ...]) -> list[Partition] | None:
        for var, c in zip(names, fixed):  # a fixed inhabitant is reduced once
            leaves[var] = held.get(c) or held.setdefault(c, leaf((c,), (full,)))
        values = [_bottom_up(program, leaves, full, memo, registry, budget) for program in programs]
        return None if None in values else values

    return split, walk


def _blocks(names: list[str], domains: list[tuple[Term, ...]], terms: Sequence[Term],
            registry: Registry, budget: int):
    """Each block of assignments in product order, as the inhabitants of its
    leading variables and the values of ``terms`` on it, reduced bottom-up:
    exact where the reductions they reach are orthogonal.  Blocks hold up
    to ``BLOCK`` assignments until a node spreads, and up to ``SPREAD``
    from that block on."""
    programs, memo = [_postfix(t) for t in terms], {}
    split, walk = _walker(names, domains, programs, BLOCK, memo, registry, budget)
    prefixes = itertools.product(*domains[:split])
    for fixed in prefixes:
        values = walk(fixed)
        if values is None:
            break
        yield fixed, values
    else:
        return
    finer, walk = _walker(names, domains, programs, SPREAD, memo, registry, budget)
    for fixed in itertools.chain([fixed], prefixes):
        for rest in itertools.product(*domains[split:finer]):
            yield (*fixed, *rest), walk((*fixed, *rest))


def _by_form(part: Partition) -> dict[Term | None, int]:
    """The union of ``part``'s masks for each normal form, ``None`` for
    ``EXHAUSTED``."""
    out: dict[Term | None, int] = {}
    for (form, _), mask in part.items():
        out[form] = out.get(form, 0) | mask
    return out


# --------------------------------------------------------------- validation

def brute_force_validate(quantifiers: Sequence[tuple[str, TypeExpr]], lhs: Term, rhs: Term,
                         registry: Registry, budget: int = DEFAULT_BUDGET) -> ValidationVerdict:
    """Check ``lhs ↔ rhs`` on every assignment of inhabitants to the
    quantified metavariables.  The first failing one in product order is the
    counterexample, unless a side runs out of budget there or earlier."""
    enumerated: dict[TypeExpr, tuple[Term, ...]] = {}  # each distinct domain once
    for _, ty in quantifiers:
        if ty not in enumerated:
            dom = enumerable_domain(ty, registry)
            if not dom.finite:
                return ValidationVerdict("inconclusive", reason=f"domain {format_type(ty)} is not finite")
            enumerated[ty] = dom.inhabitants
    domains = [enumerated[ty] for _, ty in quantifiers]
    names = [var for var, _ in quantifiers]
    reached = {head for term in (lhs, rhs, *itertools.chain(*enumerated.values())) for head, _, _ in _postfix(term)}
    if not registry.rules.orthogonal_over(reached):
        for combo in itertools.product(*domains):
            sigma = dict(zip(names, combo))
            left, right = (normalize(apply_substitution(sigma, side), registry, budget) for side in (lhs, rhs))
            if left.exhausted_budget or right.exhausted_budget:
                return ValidationVerdict("inconclusive", reason="normalization budget exhausted")
            if left.normal_form != right.normal_form:
                return ValidationVerdict("invalid", counterexample=sigma)
        return ValidationVerdict("valid")
    for fixed, sides in _blocks(names, domains, (lhs, rhs), registry, budget):
        left, right = map(_by_form, sides)
        exhausted = left.pop(None, 0) | right.pop(None, 0)
        same = 0
        for form, mask in left.items():
            same |= mask & right.get(form, 0)
        # Each side's masks are disjoint, so their sum is their union.
        failed = exhausted | sum(left.values()) & sum(right.values()) & ~same
        if failed:
            first = failed & -failed
            if first & exhausted:
                return ValidationVerdict("inconclusive", reason="normalization budget exhausted")
            index = first.bit_length() - 1  # in mixed radix over the trailing domains
            digits = [dom[index // prod(map(len, domains[j + 1:])) % len(dom)]
                      for j, dom in enumerate(domains) if j >= len(fixed)]
            return ValidationVerdict("invalid", counterexample=dict(zip(names, (*fixed, *digits))))
    return ValidationVerdict("valid")
