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

Which rules a step may use, and where they match, is decided in one place,
``RuleSet.matches``: it walks (position, subterm, target) sites and returns
every match of an indexed oriented rule there in (rank, site) order.  A
single-name step is checked, and depth-1 inference run, at the sites where
one rewrite can turn ``prev`` into ``next``: their fork (the deepest
position outside which the two terms agree, found in one walk down both)
and its ancestors.  Each match's substituted other side is compared with
``next``'s subterm there, so no rewritten term is built; the verdicts,
witnesses and inferred clauses are those of enumerating every rewrite.
Every other move, of ``clause_edits`` and of gap search, is ``Edits``:
(position, replacement) pairs at disjoint positions of ``prev``, one per
rule application, a whole-term one for case-range introduction, and one per
constructor occurrence for elimination.  Only callers that need the term
build it (``_applied``); ``_reached`` tests a move against a target first.

Declarations become rewrite rules in one place, ``RuleSet``, built once per
registry (``Registry.rules``) and indexed by head symbol and first argument.
Steps, inference and gap search see only rules a ``via`` can cite, so
``fill`` inserts only steps that ``check`` accepts; normalization uses the
forward axioms and unfoldings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import combinations, product
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping

from .diagnostics import Diagnostic, error
from .syntax import (
    CaseRangeJustification, EquationalBody, FormulaicBody, Justification,
    Quantifier, RuleJustification, Term, TypeExpr, format_justification,
    format_term, format_type,
)
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


@dataclass(frozen=True)
class RewriteRule:
    """An oriented rewrite rule; equivalences yield one rule per direction.
    ``lhs_vars`` and ``rhs_vars`` are the metavariables each side mentions."""

    name: str
    source: RuleSource
    lhs: Term
    rhs: Term
    direction: Direction = Direction.FORWARD
    metavars: frozenset[str] = frozenset()
    lhs_vars: frozenset[str] = frozenset()
    rhs_vars: frozenset[str] = frozenset()

    def reversed(self) -> "RewriteRule":
        flipped = Direction.BACKWARD if self.direction is Direction.FORWARD else Direction.FORWARD
        return replace(self, direction=flipped)

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


@dataclass(frozen=True)
class StepVerdict:
    justified: bool
    witness: tuple[tuple[Position, RewriteRule, Mapping[str, Term]], ...] | None = None
    failure: Diagnostic | None = None


@dataclass(frozen=True)
class StepEnv:
    """Context a justification is resolved in: the registry plus the case
    bindings active at this point of the proof."""

    registry: Registry
    case_bindings: tuple[Quantifier, ...] = ()
    current_theorem: str | None = None


# ---------------------------------------------------------------- matching

def match(pattern: Term, subject: Term, pattern_vars: frozenset[str] | set[str]) -> Substitution | None:
    """First-order, non-unifying match of ``pattern`` against ``subject``.

    Subject metavariables are treated as constants; nonlinear patterns
    require syntactically equal subterms.  Returns the substitution, or
    None when there is no match.
    """
    sigma: Substitution = {}
    if _match_into(pattern, subject, pattern_vars, sigma):
        return sigma
    return None


def _match_into(pattern: Term, subject: Term, pattern_vars, sigma: Substitution) -> bool:
    if pattern.head in pattern_vars and not pattern.args and not pattern.type_args:
        bound = sigma.get(pattern.head)
        if bound is None:
            sigma[pattern.head] = subject
            return True
        return bound == subject
    if pattern.head != subject.head or pattern.type_args != subject.type_args:
        return False
    if len(pattern.args) != len(subject.args):
        return False
    for p, s in zip(pattern.args, subject.args):
        if not _match_into(p, s, pattern_vars, sigma):
            return False
    return True


def apply_substitution(sigma: Mapping[str, Term], term: Term) -> Term:
    """Replace every bound metavariable simultaneously."""
    if term.head in sigma and not term.args and not term.type_args:
        return sigma[term.head]
    if not term.args:
        return term
    return Term(term.head, term.type_args, tuple(apply_substitution(sigma, a) for a in term.args), term.span)


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
    the ancestors are rebuilt bottom-up, each with its own span."""
    spine: list[Term] = []
    for i in path:
        spine.append(term)
        term = term.args[i]
    for node, i in zip(reversed(spine), reversed(path)):
        args = list(node.args)
        args[i] = new
        new = Term(node.head, node.type_args, tuple(args), node.span)
    return new


def _fork(prev: Term, next_term: Term) -> Position | None:
    """The deepest position outside which ``prev`` and ``next_term`` agree,
    or None when they are equal.  One walk down: a node with one argument
    is descended without comparing, siblings are compared only at n-ary
    nodes."""
    path: list[int] = []
    while prev.head == next_term.head and prev.type_args == next_term.type_args \
            and len(prev.args) == len(next_term.args):
        if len(prev.args) == 1:
            i = 0
        else:
            differ = [i for i, (a, b) in enumerate(zip(prev.args, next_term.args)) if a != b]
            if not differ:
                # Reached through one-argument nodes only: the terms are equal.
                return None
            if len(differ) > 1:
                break
            i = differ[0]
        path.append(i)
        prev, next_term = prev.args[i], next_term.args[i]
    return tuple(path)


def _sites(prev: Term, next_term: Term) -> list[tuple[Position, Term, Term]]:
    """Where one rewrite can turn ``prev`` into ``next_term``, outermost
    first, as (position, subterm of ``prev``, subterm of ``next_term``): the
    fork and its ancestors, or every position when the terms are equal."""
    fork = _fork(prev, next_term)
    if fork is None:
        return [(pos, sub, sub) for pos, sub in positions(prev)]
    sites = [((), prev, next_term)]
    for depth, i in enumerate(fork, 1):
        sites.append((fork[:depth], prev.args[i], next_term.args[i]))
        prev, next_term = prev.args[i], next_term.args[i]
    return sites


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
    replacement at ``p``, so nothing is built unless it does.  A tuple is
    built only once ``target`` holds every replacement at its position,
    and is then compared whole; ``fork`` is not read."""
    if len(edits) == 1:
        pos, new = edits[0]
        if fork[:len(pos)] != pos or subterm_at(target, pos) != new:
            return None
        return replace_at(term, pos, new)
    if any(subterm_at(target, pos) != new for pos, new in edits):
        return None
    result = _applied(term, edits)
    return result if result == target else None


# ------------------------------------------------------------------- rules

def _is_var(term: Term, metavars: frozenset[str]) -> bool:
    return term.head in metavars and not term.args and not term.type_args


def _rule(name: str, source: RuleSource, lhs: Term, rhs: Term, metavars) -> RewriteRule:
    metavars = frozenset(metavars)
    lhs_vars, rhs_vars = (frozenset(sub.head for _, sub in positions(side) if _is_var(sub, metavars))
                          for side in (lhs, rhs))
    return RewriteRule(name, source, lhs, rhs, Direction.FORWARD, metavars, lhs_vars, rhs_vars)


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
    Rewriting Systems", 1991)."""
    by_head: dict[str, list[RewriteRule]] = {}
    for rule in rules:
        if _is_var(rule.lhs, rule.metavars):
            return False
        lhs_vars, rhs_vars = ([sub.head for _, sub in positions(side) if _is_var(sub, rule.metavars)]
                              for side in (rule.lhs, rule.rhs))
        if len(set(lhs_vars)) != len(lhs_vars) or any(rhs_vars.count(v) != 1 for v in lhs_vars):
            return False
        by_head.setdefault(rule.lhs.head, []).append(rule)
    for outer in rules:
        for pos, sub in positions(outer.lhs):
            if _is_var(sub, outer.metavars):
                continue
            for inner in by_head.get(sub.head, ()):
                if (inner is not outer or pos) and _unifiable(inner.lhs, inner.metavars, sub, outer.metavars):
                    return False
    return True


def _moves(i: int, rule: RewriteRule) -> list[tuple[int, RewriteRule]]:
    """The directions of ``rules[i]`` whose match determines the result,
    ranked ``2 * i`` forward and ``2 * i + 1`` backward."""
    return [(2 * i + d, o) for d, o in enumerate((rule, rule.reversed())) if o.determined()]


#: Where a rule is tried: the position, the subterm there, and the term a
#: rewrite must produce there (``None`` when any result will do).
Site = tuple[Position, Term, Term | None]


@dataclass(frozen=True)
class RuleSet:
    """A registry's rules in preference order: axioms in registry order, then
    formulaic unfoldings, then theorems.  ``named`` maps the names a ``via``
    can cite to rules; a theorem named like a function is not citable, as
    the name denotes the function (see ``resolve_rule``).  ``reductions``
    indexes the forward axioms and unfoldings; ``moves`` indexes each
    direction of a citable rule whose match determines its result.
    ``orthogonal`` tells whether the reductions are orthogonal, linear and
    non-erasing, so that the order of reduction cannot change a term's
    normal form, its step count or whether a budget runs out."""

    rules: tuple[RewriteRule, ...]
    named: Mapping[str, RewriteRule]
    reductions: RuleIndex
    moves: RuleIndex
    orthogonal: bool

    @classmethod
    def of(cls, registry: Registry) -> RuleSet:
        rules = [_rule(name, RuleSource.AXIOM, axiom.lhs, axiom.rhs, registry.axiom_metavars(axiom, owner))
                 for name, (axiom, owner) in registry.axioms.items()]
        for fn in registry.functions.values():
            if isinstance(fn.body, FormulaicBody):
                params = [p for p, _ in fn.params]
                lhs = Term(fn.name, (), tuple(Term(p) for p in params))
                rules.append(_rule(fn.name, RuleSource.FORMULAIC, lhs, fn.body.term, params))
        rules += [_rule(thm.name, RuleSource.THEOREM, thm.lhs, thm.rhs, (q.var for q in thm.quantifiers))
                  for thm in registry.theorems.values()]
        named = {rule.name: rule for rule in rules
                 if rule.source is not RuleSource.THEOREM or rule.name not in registry.functions}
        reductions = [(i, rule) for i, rule in enumerate(rules) if rule.source is not RuleSource.THEOREM]
        moves = [move for i, rule in enumerate(rules) if named.get(rule.name) is rule for move in _moves(i, rule)]
        return cls(tuple(rules), MappingProxyType(named), MappingProxyType(_index(reductions)),
                   MappingProxyType(_index(moves)), _orthogonal([rule for _, rule in reductions]))

    @cached_property
    def cited(self) -> Mapping[str, RuleIndex]:
        """The ``moves`` of each citable rule alone, under its name, so that
        a single-name step looks at its own rule only.  Built on first use:
        validation never cites."""
        return MappingProxyType({rule.name: _index(_moves(i, rule)) for i, rule in enumerate(self.rules)
                                 if self.named.get(rule.name) is rule})

    def matches(self, sites: list[Site], index: RuleIndex, exclude: str | None = None) \
            -> list[tuple[int, Position, RewriteRule, Substitution, Term | None]]:
        """Every match of an oriented rule of ``index`` (but theorem
        ``exclude``) at ``sites``, as (rank, position, rule, substitution,
        target), in (rank, site) order."""
        found = []
        for pos, sub, target in sites:
            for rank, rule in rules_at(index, sub):
                if rule.source is RuleSource.THEOREM and rule.name == exclude:
                    continue
                sigma = match(rule.oriented()[0], sub, rule.metavars)
                if sigma is not None:
                    found.append((rank, pos, rule, sigma, target))
        found.sort(key=itemgetter(0))  # stable: sites stay in order within a rank
        return found


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


def _tuple_edits(prev: Term, names: tuple[str, ...], rules: RuleSet) -> list[tuple[Edits, tuple]]:
    """Simultaneous application of one rewrite per named rule at pairwise
    disjoint positions of ``prev``, as (edits, witness); for one name, each
    single application.  Each rule's matches come from ``RuleSet.matches``
    on its own ``RuleSet.cited`` index, so every direction mix is tried,
    forward before backward, leftmost-outermost first, the first name
    varying slowest."""
    sites = [(pos, sub, None) for pos, sub in positions(prev)]
    moves = [[((pos, apply_substitution(sigma, rule.oriented()[1])), (pos, rule, dict(sigma)))
              for _, pos, rule, sigma, _ in rules.matches(sites, rules.cited[name])] for name in names]
    return [(tuple(edit for edit, _ in combo), tuple(step for _, step in combo)) for combo in product(*moves)
            if all(_disjoint(p[0], q[0]) for (p, _), (q, _) in combinations(combo, 2))]


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


def _case_edits(prev: Term, just: CaseRangeJustification) -> list[tuple[Edits, tuple]]:
    """Constant introduction, one whole-term edit, when ``prev`` mentions a
    bound metavariable, else every elimination assignment.  Only these pass
    ``check_justified_step``: an introduced term mentions no bound
    metavariable, so a term that does can only be introduced from."""
    sigma = _case_sigma(just.bindings)
    witness = (((), RewriteRule(format_justification(just), RuleSource.CASE_RANGE, prev, prev), sigma),)
    introduced = apply_substitution(sigma, prev)
    if introduced != prev:
        return [((((), introduced),), witness)]

    # Elimination: group the bound metavariables by their constructor term,
    # then edit each occurrence of a constructor, a leaf, to each variable
    # of its group, the first occurrence varying slowest.  Each group's
    # names are distinct, so every assignment is a distinct term.
    groups: dict[Term, dict[Term, None]] = {}
    for q in just.bindings:
        groups.setdefault(constructor_term(q.domain), {})[Term(q.var)] = None
    subterms = positions(prev)
    leaves = [(pos, ctor, vars_) for ctor, vars_ in groups.items() for pos, sub in subterms if sub == ctor]
    return [(tuple((pos, new) for (pos, _, _), new in zip(leaves, choice)), witness)
            for choice in product(*(vars_ for _, _, vars_ in leaves))
            if any(new != ctor for (_, ctor, _), new in zip(leaves, choice))]


# ------------------------------------------------------------ clause engine

def clause_edits(prev: Term, just: Justification, env: StepEnv) -> list[tuple[Edits, tuple]] | Diagnostic:
    """Deterministically ordered list of the moves from ``prev`` in one
    justified step under ``just``, as (edits, witness).

    A rule clause, one name or a tuple, is applied by ``_tuple_edits`` at
    every position of ``prev``: a single name's moves are its forward
    rewrites, then its backward ones, each outermost first.

    For case ranges, elimination moves replace every constructor
    occurrence; ``check_justified_step`` is more permissive there (any
    term whose substitution instance is ``prev`` is accepted).
    """
    if isinstance(just, CaseRangeJustification):
        bad = _validate_case_bindings(just, env)
        if bad is not None:
            return bad
        return _case_edits(prev, just)

    for name in just.names:
        rule = resolve_rule(name, env)
        if isinstance(rule, Diagnostic):
            return rule
    return _tuple_edits(prev, just.names, env.registry.rules)


def check_justified_step(prev: Term, next_term: Term, just: Justification, env: StepEnv) -> StepVerdict:
    """Is the transition from ``prev`` to ``next_term`` licensed by ``just``?

    The check is direction-symmetric: a justified step read backwards is
    justified by the same clause.

    A single rule name is matched, through its own index in
    ``RuleSet.cited``, only where one rewrite can make the step: at the
    fork of the two terms (the deepest position outside which they agree)
    and its ancestors, or at every position when they are equal.  There
    the rule's substituted other side is compared with the subterm of
    ``next_term``, so no rewritten term is built.  The witness is the first
    in forward-then-backward, outermost-first order, as when every rewrite
    of ``prev`` is enumerated.
    """
    if isinstance(just, RuleJustification) and len(just.names) == 1:
        rule = resolve_rule(just.names[0], env)
        if isinstance(rule, Diagnostic):
            return StepVerdict(False, failure=rule)
        rules = env.registry.rules
        hit = _first_hit(rules.matches(_sites(prev, next_term), rules.cited[rule.name]))
        if hit is not None:
            return StepVerdict(True, witness=(hit,))
        return StepVerdict(False, failure=_unjustified(prev, next_term, just))

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

    # A tuple: a move's result is built only once ``next_term`` holds
    # every replacement (see ``_reached``).
    outcomes = clause_edits(prev, just, env)
    if isinstance(outcomes, Diagnostic):
        return StepVerdict(False, failure=outcomes)
    fork = _fork(prev, next_term)
    for edits, witness in outcomes:
        if _reached(prev, edits, next_term, fork) is not None:
            return StepVerdict(True, witness=witness)
    return StepVerdict(False, failure=_unjustified(prev, next_term, just))


def infer_step_justification(prev: Term, next_term: Term, env: StepEnv) -> Justification | None:
    """Depth-1 inference: the first clause certifying ``prev`` to ``next_term``
    among axioms in registry order, case ranges (each binding alone, then
    all of them), function unfoldings and theorems.

    Rules are matched through the ``moves`` index at the sites of
    ``check_justified_step`` only, and compared with ``next_term`` in
    (rank, site) order, so the first success is the first rule that
    certifies the step."""
    rules = env.registry.rules
    hit = _first_hit(rules.matches(_sites(prev, next_term), rules.moves, env.current_theorem))
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


def _first_hit(matches) -> tuple[Position, RewriteRule, Substitution] | None:
    """The first of ``RuleSet.matches`` whose substituted other side is its
    site's target, as a witness entry."""
    return next(((pos, rule, sigma) for _, pos, rule, sigma, target in matches
                 if apply_substitution(sigma, rule.oriented()[1]) == target), None)


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
