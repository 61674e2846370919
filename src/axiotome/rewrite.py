"""First-order matching, substitution and single-step justified rewriting.

Axioms, formulaic function bodies and theorem assertions are equivalences,
so every rule applies in both directions.  A step's clause licenses the
terms reachable from the previous term as follows, in a fixed deterministic
order:

* a single rule name licenses exactly one application at one position;
* a tuple of names licenses simultaneous applications at pairwise disjoint
  positions, one per listed name, in any mix of directions;
* a case range licenses constant introduction (substituting the bound
  constructors for their metavariables at every occurrence) or constant
  elimination (the reverse, apportioning occurrences over the bound
  metavariables in any way that makes the terms line up).

Enumeration order is leftmost-outermost positions, forward before backward,
which also fixes the witness recorded for steps with several derivations.

The rules a step may use are the oriented rules of one index,
``RuleSet.moves``, and ``RuleSet.reach`` keeps the reach of each, computed
once: where above the fork of two terms (the deepest position outside
which they agree, found in one walk down both) a rewrite by it can turn
one into the other.  ``RuleSet.hop`` is the one probe for "which rule turns
this subterm into that one": it checks a single-name step, runs depth-1
inference and answers gap search's ``_may_reach``.  For distinct terms an
anchored rule is probed at its one site, and the fork's ancestors are
walked for the open rules only while one could still come first; equal
terms go through ``RuleSet.matches``.  Each match's substituted other side
is compared with ``next``'s subterm there, so no rewritten term is built;
the verdicts, witnesses and inferred clauses are those of enumerating every
rewrite.  ``RuleSet.matches`` returns every match at every position of a
term in (rank, position) order, for gap search's moves and for tuples: one
stack walk, ``_combinations``, takes a tuple's combinations for tuple
checks, ``clause_edits`` and ``clause_images`` alike.  Every other move, of
``clause_edits`` and of gap search, is ``Edits``: (position, replacement)
pairs at disjoint positions of ``prev``, one per rule application, a
whole-term one for case-range introduction, and one per constructor
occurrence for elimination.  Only callers that need the term build it
(``_applied``); ``_reached`` tests a move against a target first.

Declarations become rewrite rules in one place, ``RuleSet``, built once per
registry (``Registry.rules``) and indexed by head symbol and first argument.
Steps, inference and gap search see only rules a ``via`` can cite, so
``fill`` inserts only steps that ``check`` accepts; normalization uses the
forward axioms and unfoldings.  ``judge_hop`` is the one judgement of a
written hop, which ``check`` reports and ``fill`` keeps steps by.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from itertools import chain, product
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

from .diagnostics import Diagnostic, error
from .syntax import (
    CaseRangeJustification, EquationalBody, FormulaicBody, Frozen, Justification,
    Quantifier, RuleJustification, Term, TypeExpr, format_justification,
    format_term, format_type,
)
from .syntax.nodes import _node
from .typesys import Registry
from .typesys import term_metavars as term_vars  # re-exported under its older name

#: A substitution is a finite map from metavariable names to terms.
Substitution = dict[str, Term]

#: A position is the path of child indices from the root of a term.
Position = tuple[int, ...]


class Direction(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


class RuleSource(Enum):
    AXIOM = "axiom"
    FORMULAIC = "formulaic-function"
    THEOREM = "theorem"
    CASE_RANGE = "case-range"


@_node
class RewriteRule(NamedTuple):
    """An oriented rewrite rule; equivalences yield one rule per direction.
    ``lhs_vars`` and ``rhs_vars`` are each side's metavariables, ``free`` the other undeclared leaves of both.
    Rules are equal when their fields are."""

    name: str
    source: RuleSource
    lhs: Term
    rhs: Term
    direction: Direction = Direction.FORWARD
    metavars: frozenset[str] = frozenset()
    lhs_vars: frozenset[str] = frozenset()
    rhs_vars: frozenset[str] = frozenset()
    free: frozenset[str] = frozenset()

    def reversed(self) -> RewriteRule:
        return self._replace(direction=Direction.BACKWARD if self.direction is Direction.FORWARD else Direction.FORWARD)

    def oriented(self) -> tuple[Term, Term]:
        if self.direction is Direction.FORWARD:
            return self.lhs, self.rhs
        return self.rhs, self.lhs

    def determined(self) -> bool:
        """Does a source match bind the target's metavariables?  A rule may
        not invent terms out of thin air."""
        if self.direction is Direction.FORWARD:
            return self.rhs_vars <= self.lhs_vars
        return self.lhs_vars <= self.rhs_vars


class StepVerdict(NamedTuple):
    """A step's verdict.  ``judge_hop`` adds the clause it ``inferred`` and,
    for a healed case-range hop, the ``intermediate`` term it inserted."""

    justified: bool
    witness: tuple[tuple[Position, RewriteRule, Mapping[str, Term]], ...] | None = None
    failure: Diagnostic | None = None
    inferred: Justification | None = None
    intermediate: Term | None = None


class StepEnv(NamedTuple):
    """Context a justification is resolved in: the registry plus the case
    bindings active at this point of the proof."""

    registry: Registry
    case_bindings: tuple[Quantifier, ...] = ()
    current_theorem: str | None = None


# ---------------------------------------------------------------- matching

def match(pattern: Term, subject: Term, pattern_vars: frozenset[str] | set[str]) -> Substitution | None:
    """First-order, non-unifying match of ``pattern`` against ``subject``.

    Subject metavariables are treated as constants; nonlinear patterns
    require identical (that is, equal) subterms.  Returns the substitution,
    or None when there is no match.  One walk down both with a stack.
    """
    sigma: Substitution = {}
    pairs = [(pattern, subject)]
    while pairs:
        p, s = pairs.pop()
        if p.head in pattern_vars and not p.args and not p.type_args:
            if sigma.setdefault(p.head, s) is not s:
                return None
        elif p.head != s.head or p.type_args != s.type_args or len(p.args) != len(s.args):
            return None
        else:
            pairs.extend(zip(p.args, s.args))
    return sigma


def apply_substitution(sigma: Mapping[str, Term], term: Term) -> Term:
    """Replace every bound metavariable simultaneously, node by node in
    post-order, so term depth is unbounded."""
    if not sigma:
        return term
    done: dict[Term, Term] = {}
    for node in term.postorder():
        if not node.args:
            done[node] = node if node.type_args else sigma.get(node.head, node)
        elif node not in done:
            args = tuple(map(done.__getitem__, node.args))
            done[node] = node if args == node.args else Term(node.head, node.type_args, args)
    return done[term]


def positions(term: Term) -> list[tuple[Position, Term]]:
    """All positions in leftmost-outermost (pre-order) order, found with an
    explicit stack: children are pushed right to left."""
    out: list[tuple[Position, Term]] = []
    stack: list[tuple[Position, Term]] = [((), term)]
    pop, push = stack.pop, stack.append
    while stack:
        item = pop()
        out.append(item)
        path, t = item
        args = t.args
        i = len(args)
        while i:
            i -= 1
            push((path + (i,), args[i]))
    return out


def subterm_at(term: Term, path: Position) -> Term | None:
    """The subterm of ``term`` at ``path``, or None when the path leaves it."""
    for i in path:
        if i >= len(term.args):
            return None
        term = term.args[i]
    return term


def replace_at(term: Term, path: Position, new: Term) -> Term:
    """``term`` with ``new`` at ``path``: one walk down to the position, then
    the ancestors are rebuilt bottom-up."""
    spine: list[Term] = []
    for i in path:
        spine.append(term)
        term = term.args[i]
    for node, i in zip(reversed(spine), reversed(path)):
        args = list(node.args)
        args[i] = new
        new = Term(node.head, node.type_args, tuple(args))
    return new


def _fork(prev: Term, next_term: Term) -> Position | None:
    """The deepest position outside which ``prev`` and ``next_term`` agree,
    or None when they are equal.  One walk down: a node with one argument
    is descended without comparing (distinct terms that agree at the root
    differ below it), siblings are compared by identity at n-ary nodes."""
    if prev is next_term:
        return None
    path: list[int] = []
    while prev.head == next_term.head and prev.type_args == next_term.type_args \
            and len(prev.args) == len(next_term.args):
        if len(prev.args) == 1:
            i = 0
        else:
            differ = [i for i, (a, b) in enumerate(zip(prev.args, next_term.args)) if a is not b]
            if len(differ) > 1:
                break
            i = differ[0]
        path.append(i)
        prev, next_term = prev.args[i], next_term.args[i]
    return tuple(path)


#: What a move does to a term: (position, replacement) pairs at pairwise
#: disjoint positions, applied in order.
Edits = tuple[tuple[Position, Term], ...]


def _applied(term: Term, edits: Edits) -> Term:
    for pos, new in edits:
        term = replace_at(term, pos, new)
    return term


def _reached(term: Term, edits: Edits, target: Term, fork: Position) -> Term | None:
    """The result of ``edits`` on ``term`` when it is ``target``, else None.

    For one edit, ``term`` differs from ``target`` and ``fork`` is their
    ``_fork``.  An edit at ``p`` then reaches ``target`` exactly when ``p``
    is ``fork`` or one of its ancestors and ``target`` holds the
    replacement at ``p``, and the result, an equal term, is ``target``
    itself: nothing is built.  A tuple is built only once ``target`` holds
    every replacement at its position; ``fork`` is not read."""
    if len(edits) == 1:
        pos, new = edits[0]
        return target if fork[:len(pos)] == pos and subterm_at(target, pos) is new else None
    if any(subterm_at(target, pos) is not new for pos, new in edits):
        return None
    return target if _applied(term, edits) is target else None


def _may_reach(term: Term, target: Term, env: StepEnv) -> bool:
    """Can one move of gap search turn ``term`` into ``target``?  A cheap
    necessary condition: False means no move does.

    A move edits disjoint positions, so an edit at ``p`` leaves exactly its
    replacement at ``p``.  Where the two terms differ outermost, at a
    position whose symbols differ, some edit must sit there or at an
    ancestor, with ``target``'s subterm there as its replacement: a rewrite
    that ``RuleSet.hop`` finds, or a case move, which swaps a bound
    constructor leaf and its metavariable (elimination edits the leaf, and
    introduction's whole-term edit holds the constructor wherever ``term``
    holds the metavariable).  Each pair of differing subterms goes to
    ``hop`` once, which probes every ancestor of the pair's fork.  When it
    finds none, either the fork's symbols differ, and only a swap covers
    it, or two or more of its arguments differ, and each is a pair of its
    own."""
    rules = env.registry.rules
    swaps = set()
    for q in env.case_bindings:
        var, ctor = Term(q.var), constructor_term(q.domain)
        swaps.update(((var, ctor), (ctor, var)))
    stack = [(term, target)] if term is not target else []
    while stack:
        sub, goal = stack.pop()
        if rules.hop(sub, goal, env.current_theorem) is not None:
            continue
        fork = _fork(sub, goal)
        sub, goal = subterm_at(sub, fork), subterm_at(goal, fork)
        if sub.head == goal.head and sub.type_args == goal.type_args and len(sub.args) == len(goal.args):
            stack.extend((a, b) for a, b in zip(sub.args, goal.args) if a is not b)
        elif (sub, goal) not in swaps:
            return False
    return True


# ------------------------------------------------------------------- rules

def _is_var(term: Term, metavars: frozenset[str]) -> bool:
    return term.head in metavars and not term.args and not term.type_args


def _reach(rule: RewriteRule) -> int:
    """How far above the fork of a hop a rewrite by ``rule`` can make
    it.  A rewrite at ``p`` makes a hop whose fork is ``p`` followed by
    the ``_fork`` of the substituted sides, so the two sides are walked
    down together the way ``_fork`` walks two terms.

    A head, type-argument or arity mismatch, or two differing ground
    argument pairs of an n-ary node, stops ``_fork`` there whatever the
    substitution.  Met before any metavariable, and before any
    differing argument pair that holds one, it *anchors* the rule at
    its depth ``e``: the rule makes a hop only at the fork's ancestor
    ``e`` above it, and the reach is ``e``.  Otherwise the rule is
    *open* from the depth ``j`` where the walk stopped: it can make a
    hop at any ancestor at least ``j`` above the fork, and the reach is
    ``~j``, negative.  Equal sides make no hop; they read as anchored
    at 0 (Baader & Nipkow, *Term Rewriting and All That*, 1998, ch. 3)."""
    src, dst = rule.oriented()
    metavars = rule.metavars
    depth = 0
    while src is not dst:
        if _is_var(src, metavars) or _is_var(dst, metavars):
            return ~depth
        if src.head != dst.head or src.type_args != dst.type_args or len(src.args) != len(dst.args):
            return depth
        i = 0
        if len(src.args) > 1:
            differ = [i for i, (a, b) in enumerate(zip(src.args, dst.args)) if a is not b]
            ground = [i for i in differ if not any(_is_var(n, metavars) for side in (src, dst)
                                                   for n in side.args[i].postorder())]
            if len(ground) > 1:
                return depth
            if len(ground) < len(differ):
                return ~depth
            i = differ[0]
        src, dst = src.args[i], dst.args[i]
        depth += 1
    return depth


def _rule(name: str, source: RuleSource, lhs: Term, rhs: Term, metavars, registry: Registry) -> RewriteRule:
    metavars = frozenset(metavars)
    lhs_names, rhs_names = ({sub.head for sub in side.postorder() if not (sub.args or sub.type_args)}
                            for side in (lhs, rhs))
    free = frozenset((lhs_names | rhs_names) - metavars).difference(registry.types, registry.functions)
    return RewriteRule(name, source, lhs, rhs, Direction.FORWARD, metavars, metavars & lhs_names,
                       metavars & rhs_names, free)


#: A one-level discrimination index: the key ``(head, first argument's
#: head)``, ``head`` or ``None`` maps to the ranked oriented rules that can
#: match a subterm with that key, in rank order.
RuleIndex = Mapping[object, tuple[tuple[int, RewriteRule], ...]]


def _key(rule: RewriteRule) -> object:
    """The index key of ``rule``'s source side: its head and first argument's
    head, its head alone if that argument is a metavariable, or ``None`` if
    the side is one."""
    src, _ = rule.oriented()
    if _is_var(src, rule.metavars):
        return None
    if src.args and not _is_var(src.args[0], rule.metavars):
        return src.head, src.args[0].head
    return src.head


def _index(ranked: list[tuple[int, RewriteRule]]) -> RuleIndex:
    """File each rule under its ``_key``.  A key also holds the looser keys'
    rules, so lookups probe once."""
    exact: dict[tuple[str, str], list] = {}
    by_head: dict[str, list] = {}
    anywhere: list = []
    for rank, rule in ranked:
        key = _key(rule)
        if key is None:
            anywhere.append((rank, rule))
        elif isinstance(key, tuple):
            exact.setdefault(key, []).append((rank, rule))
        else:
            by_head.setdefault(key, []).append((rank, rule))
    index: dict = {None: tuple(anywhere)}
    for head, rules in by_head.items():
        index[head] = tuple(sorted(rules + anywhere))
    for (head, first), rules in exact.items():
        index[head, first] = tuple(sorted(rules + by_head.get(head, []) + anywhere))
    return index


def rules_at(index: RuleIndex, term: Term) -> tuple[tuple[int, RewriteRule], ...]:
    """The ranked rules of ``index`` that can match ``term`` at its root."""
    found = index.get((term.head, term.args[0].head)) if term.args else None
    if found is None:
        found = index.get(term.head)
    return index[None] if found is None else found


def _unifiable(p: Term, p_vars: frozenset[str], q: Term, q_vars: frozenset[str]) -> bool:
    """Do the linear patterns ``p`` and ``q``, whose variables are disjoint,
    unify?  No variable can then be bound twice, so a walk down both decides
    it.  Type arguments are not compared, which can only find more overlaps."""
    pairs = [(p, q)]
    while pairs:
        p, q = pairs.pop()
        if _is_var(p, p_vars) or _is_var(q, q_vars):
            continue
        if p.head != q.head or len(p.args) != len(q.args):
            return False
        pairs.extend(zip(p.args, q.args))
    return True


def _orthogonal(rules: list[RewriteRule]) -> bool:
    """Are ``rules`` orthogonal, linear and non-erasing?  Every left-hand side
    is a left-linear pattern, not a bare metavariable, whose variables each
    occur exactly once on the right-hand side, and no left-hand side unifies
    with a non-variable subterm of another's or with a proper subterm of its
    own.  Every complete reduction of a term then ends in the same normal
    form after the same number of steps, and a term with no normal form has
    no complete reduction at all (Huet & Lévy, "Computations in Orthogonal
    Rewriting Systems", 1991).

    A ground left-hand side, with no variables, is linear and erases
    nothing, and two ground patterns unify exactly when they are one
    interned term, since matching compares type arguments too."""
    by_head: dict[str, list[RewriteRule]] = {}
    for rule in rules:
        if rule.lhs_vars:
            if _is_var(rule.lhs, rule.metavars):
                return False
            lhs_vars, rhs_vars = ([sub.head for sub in side.postorder() if _is_var(sub, rule.metavars)]
                                  for side in (rule.lhs, rule.rhs))
            if len(set(lhs_vars)) != len(lhs_vars) or any(rhs_vars.count(v) != 1 for v in lhs_vars):
                return False
        by_head.setdefault(rule.lhs.head, []).append(rule)
    for outer in rules:
        ground = not outer.lhs_vars
        for sub in outer.lhs.postorder():
            if not ground and _is_var(sub, outer.metavars):
                continue
            for inner in by_head.get(sub.head, ()):
                if inner is outer and sub is outer.lhs:
                    continue
                if (inner.lhs is sub) if ground and not inner.lhs_vars \
                        else _unifiable(inner.lhs, inner.metavars, sub, outer.metavars):
                    return False
    return True


def _admits(rule: RewriteRule, exclude: str | None, only: str | None) -> bool:
    """Is ``rule`` the rule named ``only``, when that is given, and not
    theorem ``exclude``?"""
    name = rule.name
    return (only is None or name == only) and (name != exclude or rule.source is not RuleSource.THEOREM)


class RuleSet(Frozen):
    """A registry's rules in preference order: axioms in registry order, then
    formulaic unfoldings, then theorems.  ``named`` maps the names a ``via``
    can cite to rules; a theorem named like a function is not citable, as
    the name denotes the function (see ``resolve_rule``).  ``reductions``
    indexes the forward axioms and unfoldings."""

    rules: tuple[RewriteRule, ...]
    named: Mapping[str, RewriteRule]
    reductions: RuleIndex

    def __init__(self, rules: tuple[RewriteRule, ...], named: Mapping[str, RewriteRule],
                 reductions: RuleIndex) -> None:
        vars(self).update(rules=rules, named=named, reductions=reductions)

    @classmethod
    def of(cls, registry: Registry) -> RuleSet:
        rules = [_rule(name, RuleSource.AXIOM, axiom.lhs, axiom.rhs, registry.axiom_metavars(axiom, owner), registry)
                 for name, (axiom, owner) in registry.axioms.items()]
        for fn in registry.functions.values():
            if isinstance(fn.body, FormulaicBody):
                params = [p for p, _ in fn.params]
                lhs = Term(fn.name, (), tuple(Term(p) for p in params))
                rules.append(_rule(fn.name, RuleSource.FORMULAIC, lhs, fn.body.term, params, registry))
        rules += [_rule(thm.name, RuleSource.THEOREM, thm.lhs, thm.rhs, (q.var for q in thm.quantifiers), registry)
                  for thm in registry.theorems.values()]
        named = {rule.name: rule for rule in rules
                 if rule.source is not RuleSource.THEOREM or rule.name not in registry.functions}
        reductions = [(i, rule) for i, rule in enumerate(rules) if rule.source is not RuleSource.THEOREM]
        return cls(tuple(rules), MappingProxyType(named), MappingProxyType(_index(reductions)))

    @cached_property
    def moves(self) -> RuleIndex:
        """Each direction of a citable rule whose match determines its
        result, ``rules[i]`` ranked ``2 * i`` forward and ``2 * i + 1``
        backward.  Built on first use: validation never moves."""
        return MappingProxyType(_index([(2 * i + d, o) for i, rule in enumerate(self.rules)
                                        if self.named.get(rule.name) is rule
                                        for d, o in enumerate((rule, rule.reversed())) if o.determined()]))

    @cached_property
    def reach(self) -> tuple[tuple[int, ...], tuple[tuple[int, RewriteRule], ...], tuple[int | None, ...]]:
        """The reach of the rules of ``moves``, which ``hop`` walks: the
        depths the anchored rules are anchored at, ascending, the open
        rules, ranked, in rank order, and each rule's ``_reach`` by rank
        (None at a rank that is not a move)."""
        ranked = sorted(dict(chain.from_iterable(self.moves.values())).items())
        reaches = {rank: _reach(o) for rank, o in ranked}
        return (tuple(sorted({e for e in reaches.values() if e >= 0})),
                tuple((rank, o) for rank, o in ranked if reaches[rank] < 0),
                tuple(map(reaches.get, range(2 * len(self.rules)))))

    def orthogonal_over(self, heads: Iterable[str]) -> bool:
        """Are the reductions that can fire on a term built from ``heads``,
        or on a term it reduces to, orthogonal, linear and non-erasing
        (``_orthogonal``)?  Then the order of reduction cannot change such a
        term's normal form, its step count or whether a budget runs out.  A
        reduction can fire once the head of its left-hand side is reached:
        one of ``heads``, or a head of a right-hand side that can fire.  A
        bare-metavariable left-hand side fires anywhere."""
        by_head: dict[str | None, list[RewriteRule]] = {}
        for rule in self.rules:
            if rule.source is not RuleSource.THEOREM:
                by_head.setdefault(None if _is_var(rule.lhs, rule.metavars) else rule.lhs.head, []).append(rule)
        reached: list[RewriteRule] = []
        todo, seen = [None, *heads], set()
        while todo:
            head = todo.pop()
            if head not in seen:
                seen.add(head)
                for rule in by_head.get(head, ()):
                    reached.append(rule)
                    todo.extend(sub.head for sub in rule.rhs.postorder())
        return _orthogonal(reached)

    def matches(self, term: Term, exclude: str | None = None, only: str | None = None) \
            -> list[tuple[int, Position, RewriteRule, Substitution]]:
        """Every match of an oriented rule of ``moves`` at a position of
        ``term``, as (rank, position, rule, substitution), in (rank,
        position) order, positions leftmost-outermost: of the rule named
        ``only`` alone when it is given, and never of theorem ``exclude``."""
        found, moves = [], self.moves
        for pos, sub in positions(term):
            for rank, rule in rules_at(moves, sub):
                # ``_admits`` and ``oriented`` on fields read once: a named
                # tuple's field read is not specialised.
                name, source, lhs, rhs, direction, metavars, _, _, _ = rule
                if (only is None or name == only) and (name != exclude or source is not RuleSource.THEOREM):
                    sigma = match(lhs if direction is Direction.FORWARD else rhs, sub, metavars)
                    if sigma is not None:
                        found.append((rank, pos, rule, sigma))
        found.sort(key=itemgetter(0))  # stable: positions stay in order within a rank
        return found

    def hop(self, prev: Term, next_term: Term, exclude: str | None = None, only: str | None = None) \
            -> tuple[Position, RewriteRule, Substitution] | None:
        """The first rewrite of ``prev`` into ``next_term`` by a rule of
        ``moves`` in (rank, site) order, sites outermost first, as a witness
        entry; ``only`` and ``exclude`` as for ``matches``.  Each rule is
        tried only where its reach lets it make the hop: the sites are the
        subterms on the path down to ``_fork``'s fork, each anchored depth's
        site is probed for the rules anchored there, and then the sites are
        probed outermost first for the open rules while one ranked before
        the best hit so far remains.  Equal terms are answered by the first
        of ``matches`` that leaves its subterm as it is."""
        fork = _fork(prev, next_term)
        if fork is None:
            for _, pos, rule, sigma in self.matches(prev, exclude, only):
                if apply_substitution(sigma, rule.oriented()[1]) is subterm_at(prev, pos):
                    return pos, rule, sigma
            return None
        depths, opened, reach = self.reach
        spine = [(prev, next_term)]
        for i in fork:
            prev, next_term = prev.args[i], next_term.args[i]
            spine.append((prev, next_term))
        # A probe is (site, least reach, greatest reach); ``first_open`` is
        # the rank of the first admitted open rule, else past every rank.
        n, moves, best = len(fork), self.moves, (len(reach), 0, None, None)  # (rank, site, rule, substitution)
        first_open = next((rank for rank, rule in opened if _admits(rule, exclude, only)), best[0])
        for at, low, high in chain(((n - e, e, e) for e in depths if e <= n),
                                   ((at, ~(n - at), -1) for at in range(n + 1))):
            if high < 0 and first_open >= best[0]:
                break
            sub, goal = spine[at]
            for rank, rule in rules_at(moves, sub):
                if rank >= best[0]:
                    break
                if not low <= reach[rank] <= high:
                    continue
                name, source, lhs, rhs, direction, metavars, _, _, _ = rule
                if (only is None or name == only) and (name != exclude or source is not RuleSource.THEOREM):
                    src, dst = (lhs, rhs) if direction is Direction.FORWARD else (rhs, lhs)
                    sigma = match(src, sub, metavars)
                    if sigma is not None and apply_substitution(sigma, dst) is goal:
                        best = rank, at, rule, sigma
                        break
        return None if best[2] is None else (fork[:best[1]], best[2], best[3])


def resolve_rule(name: str, env: StepEnv) -> RewriteRule | Diagnostic:
    """Look up a rule by the name written in a ``via`` clause."""
    registry = env.registry
    fn = registry.functions.get(name)
    if fn is not None and isinstance(fn.body, EquationalBody):
        return error(
            "E-UNKNOWN-RULE",
            f"equational function {name!r} is not a rule; justify with one of its axioms",
        )
    if fn is None and name == env.current_theorem and name in registry.theorems:
        return error("E-UNKNOWN-RULE", f"theorem ¶{name} cannot justify its own proof")
    rule = registry.rules.named.get(name)
    if rule is None:
        what = f"axiom {name}" if name.startswith("$") else f"rule name {name!r}"
        return error("E-UNKNOWN-RULE", f"unknown {what}")
    return rule


# ------------------------------------------------------- rule applications

def _disjoint(p: Position, q: Position) -> bool:
    shorter = min(len(p), len(q))
    return p[:shorter] != q[:shorter]


def _combinations(names: tuple[str, ...], moves: Mapping[str, list[tuple]]) -> Iterator[tuple]:
    """Each combination of one of ``moves[name]``, (position, replacement,
    witness entry), per name of ``names`` at pairwise disjoint positions,
    in product order, the first name varying slowest.  The combinations
    are walked with a stack, each extended only by a move disjoint from the
    ones chosen.  A name that occurs again takes only moves after the ones
    it took: a permutation of one name's moves makes the same edits, so
    each set of edits comes once, where product order first reaches it."""
    stack: list[tuple[int, ...]] = [()]
    while stack:
        chosen = stack.pop()
        j = len(chosen)
        if j == len(names):
            yield tuple(moves[name][i] for name, i in zip(names, chosen))
            continue
        options = moves[names[j]]
        taken = [moves[name][i][0] for name, i in zip(names, chosen)]
        start = next((i + 1 for name, i in zip(reversed(names[:j]), reversed(chosen)) if name == names[j]), 0)
        stack.extend(chosen + (i,) for i in reversed(range(start, len(options)))
                     if all(_disjoint(options[i][0], p) for p in taken))


def _unresolved(just: RuleJustification, env: StepEnv) -> Diagnostic | None:
    """The diagnostic of the first of ``just``'s names that names no rule."""
    for name in just.names:
        rule = resolve_rule(name, env)
        if isinstance(rule, Diagnostic):
            return rule
    return None


# ---------------------------------------------------------- case ranges

def constructor_term(ty: TypeExpr) -> Term:
    """Ground constructor term for a case-range summand (e.g. ``False``)."""
    return Term(ty.name, ty.args, ())


def _case_sigma(bindings: tuple[Quantifier, ...]) -> Substitution:
    return {q.var: constructor_term(q.domain) for q in bindings}


def _validate_case_bindings(just: CaseRangeJustification, env: StepEnv) -> Diagnostic | None:
    active = {q.var: q.domain for q in env.case_bindings}
    for q in just.bindings:
        bound = active.get(q.var)
        if bound is None:
            return error(
                "E-UNJUSTIFIED-STEP",
                f"case range {format_justification(just)} refers to {q.var!r}, "
                f"which is not bound by an enclosing case",
                just.span,
            )
        if bound != q.domain:
            return error(
                "E-UNJUSTIFIED-STEP",
                f"case range binds {q.var} ∈ {format_type(q.domain)}, but the enclosing case "
                f"binds {q.var} ∈ {format_type(bound)}",
                just.span,
            )
    return None


def _case_edits(prev: Term, just: CaseRangeJustification) -> list[Edits]:
    """Constant introduction, one whole-term edit, when ``prev`` mentions a
    bound metavariable, else every elimination assignment.  Only these pass
    ``check_justified_step``: an introduced term mentions no bound
    metavariable, so a term that does can only be introduced from.  One
    walk over ``prev`` decides which: a leaf that the substitution changes
    is a bound metavariable."""
    sigma = _case_sigma(just.bindings)
    subterms = positions(prev)
    if any(not sub.args and not sub.type_args and sigma.get(sub.head, sub) != sub for _, sub in subterms):
        return [(((), apply_substitution(sigma, prev)),)]

    # Elimination: group the bound metavariables by their constructor term,
    # then edit each occurrence of a constructor, a leaf, to each variable
    # of its group, the first occurrence varying slowest.  Each group's
    # names are distinct, so every assignment is a distinct term.
    groups: dict[Term, dict[Term, None]] = {}
    for q in just.bindings:
        groups.setdefault(constructor_term(q.domain), {})[Term(q.var)] = None
    leaves = [(pos, ctor, vars_) for ctor, vars_ in groups.items() for pos, sub in subterms if sub == ctor]
    return [tuple((pos, new) for (pos, _, _), new in zip(leaves, choice))
            for choice in product(*(vars_ for _, _, vars_ in leaves))
            if any(new != ctor for (_, ctor, _), new in zip(leaves, choice))]


# ------------------------------------------------------------ clause engine

def clause_edits(prev: Term, just: Justification, env: StepEnv) -> list[tuple[Edits, tuple]] | Diagnostic:
    """Deterministically ordered list of the moves from ``prev`` in one
    justified step under ``just``, as (edits, witness).

    A rule clause, one name or a tuple, is applied by ``_combinations`` at
    every position of ``prev``: a single name's moves are its forward
    rewrites, then its backward ones, each outermost first.  A repeated
    name takes its moves in order, so each set of edits comes once.

    For case ranges, elimination moves replace every constructor
    occurrence; ``check_justified_step`` is more permissive there (any
    term whose substitution instance is ``prev`` is accepted).
    """
    if isinstance(just, CaseRangeJustification):
        bad = _validate_case_bindings(just, env)
        if bad is not None:
            return bad
        rule = RewriteRule(format_justification(just), RuleSource.CASE_RANGE, prev, prev)
        witness = (((), rule, _case_sigma(just.bindings)),)
        return [(edits, witness) for edits in _case_edits(prev, just)]

    bad = _unresolved(just, env)
    if bad is not None:
        return bad
    rules = env.registry.rules
    moves = {name: [(pos, apply_substitution(sigma, rule.oriented()[1]), (pos, rule, dict(sigma)))
                    for _, pos, rule, sigma in rules.matches(prev, only=name)] for name in dict.fromkeys(just.names)}
    return [(tuple((pos, new) for pos, new, _ in combo), tuple(step for _, _, step in combo))
            for combo in _combinations(just.names, moves)]


def clause_images(term: Term, just: Justification, env: StepEnv) -> Iterator[Term]:
    """The distinct results of ``just``'s moves from ``term``, in
    ``clause_edits`` order, each built as it is asked for; none when the
    clause does not resolve.  Each set of edits comes once, so the images
    come as the distinct results of every combination would."""
    outcomes = clause_edits(term, just, env)
    if isinstance(outcomes, Diagnostic):
        return
    seen: set[Term] = set()
    for edits, _ in outcomes:
        image = _applied(term, edits)
        if image not in seen:
            seen.add(image)
            yield image


def check_justified_step(prev: Term, next_term: Term, just: Justification, env: StepEnv) -> StepVerdict:
    """Is the transition from ``prev`` to ``next_term`` licensed by ``just``?

    The check is direction-symmetric: a justified step read backwards is
    justified by the same clause.

    A single rule name is matched, by ``RuleSet.hop`` with ``only`` its
    name, only where one rewrite by it can make the step: at the site its
    reach allows above the fork of the two terms (the deepest position
    outside which they agree), or at every position when they are equal.
    There the rule's substituted other side is compared with the subterm of
    ``next_term``, so no rewritten term is built.  The witness is the first
    in forward-then-backward, outermost-first order, as when every rewrite
    of ``prev`` is enumerated.

    A tuple keeps, of each distinct name's ``RuleSet.matches``, only the
    moves whose replacement ``next_term`` holds at its position, as no
    other can make the step.  ``_combinations`` walks those as it walks all
    of them for ``clause_edits``; the witness is the first combination
    whose result, the only term built, is ``next_term``.
    """
    if isinstance(just, CaseRangeJustification):
        bad = _validate_case_bindings(just, env)
        if bad is not None:
            return StepVerdict(False, failure=bad)
        sigma = _case_sigma(just.bindings)
        # Introduction substitutes the bound constructors into prev;
        # elimination is its mirror image, which accepts any apportionment
        # of constructor occurrences over the bound metavariables.
        if apply_substitution(sigma, prev) == next_term or apply_substitution(sigma, next_term) == prev:
            rule = RewriteRule(format_justification(just), RuleSource.CASE_RANGE, prev, next_term)
            return StepVerdict(True, witness=(((), rule, dict(sigma)),))
        return StepVerdict(False, failure=_unjustified(prev, next_term, just))

    bad = _unresolved(just, env)
    if bad is not None:
        return StepVerdict(False, failure=bad)
    rules = env.registry.rules
    if len(just.names) == 1:
        hit = rules.hop(prev, next_term, only=just.names[0])
        witness = None if hit is None else (hit,)
    else:
        held: dict[str, list[tuple]] = {}
        for name in dict.fromkeys(just.names):
            held[name] = []
            for _, pos, rule, sigma in rules.matches(prev, only=name):
                new = apply_substitution(sigma, rule.oriented()[1])
                if subterm_at(next_term, pos) is new:
                    held[name].append((pos, new, (pos, rule, dict(sigma))))
        witness = next((tuple(step for _, _, step in combo) for combo in _combinations(just.names, held)
                        if _applied(prev, tuple((pos, new) for pos, new, _ in combo)) is next_term), None)
    if witness is not None:
        return StepVerdict(True, witness=witness)
    return StepVerdict(False, failure=_unjustified(prev, next_term, just))


def infer_step_justification(prev: Term, next_term: Term, env: StepEnv) -> Justification | None:
    """Depth-1 inference: the first clause certifying ``prev`` to ``next_term``
    among axioms in registry order, case ranges (each binding alone, then
    all of them), function unfoldings and theorems.

    Rules are matched by ``RuleSet.hop``, as in ``check_justified_step``,
    and compared with ``next_term`` in (rank, site) order, so the first
    success is the first rule that certifies the step."""
    hit = env.registry.rules.hop(prev, next_term, env.current_theorem)
    found = None if hit is None else hit[1]
    if found is not None and found.source is RuleSource.AXIOM:
        return RuleJustification((found.name,))
    clauses = [CaseRangeJustification((binding,)) for binding in env.case_bindings]
    if len(env.case_bindings) > 1:
        clauses.append(CaseRangeJustification(env.case_bindings))
    for clause in clauses:
        if check_justified_step(prev, next_term, clause, env).justified:
            return clause
    return None if found is None else RuleJustification((found.name,))


def judge_hop(prev: Term, next_term: Term, just: Justification | None, env: StepEnv) -> StepVerdict:
    """The one judgement of a written hop, for ``check`` and ``fill`` alike.

    Without a clause the hop is inferred (``inferred``); a failure's message
    then continues "step N".  With one, ``check_justified_step``'s verdict
    stands, except that a case-range hop it rejects heals when one inferred
    rewrite takes ``prev`` to a term, ``intermediate``, that the stated range
    turns into ``next_term`` (proofs in the wild fuse a final rewrite into
    the closing constant elimination)."""
    if just is None:
        inferred = infer_step_justification(prev, next_term, env)
        if inferred is not None:
            return StepVerdict(True, inferred=inferred)
        return StepVerdict(False, failure=error(
            "E-UNJUSTIFIED-STEP", f"has no justification and none could be inferred for "
                                  f"{format_term(prev)} into {format_term(next_term)}"))
    verdict = check_justified_step(prev, next_term, just, env)
    if verdict.justified or not isinstance(just, CaseRangeJustification) \
            or verdict.failure.code != "E-UNJUSTIFIED-STEP":
        return verdict
    for intermediate in clause_images(next_term, just, env):
        inferred = infer_step_justification(prev, intermediate, env)
        if inferred is not None:
            return StepVerdict(True, inferred=inferred, intermediate=intermediate)
    return verdict


def _unjustified(prev: Term, next_term: Term, just: Justification) -> Diagnostic:
    if isinstance(just, RuleJustification) and len(just.names) == 1:
        kind = "axiom" if just.names[0].startswith("$") else "rule"
        what = f"{kind} {just.names[0]} does"
    elif isinstance(just, RuleJustification):
        what = f"rules {format_justification(just)} do"
    else:
        what = f"case range {format_justification(just)} does"
    return error(
        "E-UNJUSTIFIED-STEP",
        f"{what} not transform {format_term(prev)} into {format_term(next_term)}",
        just.span,
    )
