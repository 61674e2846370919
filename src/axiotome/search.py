"""Bounded search over justified rewrites: gap filling and proof repair.

Depth-1 inference, ``infer_step_justification``, is a rule-set operation
and lives in ``rewrite``; it is re-exported here.

``fill_gap`` searches breadth-first, one layer of hops per depth, over
single justified rewrites — plus same-rule simultaneous tuples and
case-range moves — and returns the lexicographically first shortest chain
under that move order.

``repair_theorem`` fixes proofs whose steps are unjustified because terms were
omitted.  For a broken hop it splices the shortest chain between the two
written terms; the displaced ``via`` clause is then re-anchored by applying
it to the step's own term, which inserts the term its author skipped.  Vias
that cannot be re-anchored this way (genuinely wrong rule names) make the
proof irreparable-by-insertion, reported with a suggested replacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import groupby
from operator import itemgetter

from .rewrite import (
    Edits, Position, RuleSource, StepEnv, _applied, _case_edits, _disjoint, _fork, _reached,
    apply_substitution, check_justified_step, clause_edits, infer_step_justification, positions,
)
from .syntax import (
    ByCasesProof, CaseBlock, CaseRangeJustification, Justification, LinearProof,
    ProofBody, ProofStep, RuleJustification, Term, TheoremDecl, format_type,
)
from .typesys import Registry, term_metavars
from .verifier import verify_theorem


@dataclass(frozen=True)
class SearchBudget:
    """Bounds of one ``fill_gap`` search: ``max_depth`` is the most hops in
    a chain, and ``max_nodes`` the most distinct terms expanded per gap."""

    max_depth: int = 4
    max_nodes: int = 50_000


@dataclass(frozen=True)
class JustifiedChain:
    """A validated sequence of justified hops from ``source`` to ``target``;
    the last step's term is ``target`` itself."""

    steps: tuple[tuple[Term, Justification], ...]
    source: Term
    target: Term


@dataclass(frozen=True)
class IrreparableStep:
    case_path: tuple[str, ...]
    step_index: int
    prev: Term
    term: Term
    justification: Justification | None
    suggestion: Justification | None


@dataclass(frozen=True)
class RepairOutcome:
    theorem: TheoremDecl | None
    inserted: tuple[tuple[tuple[str, ...], int, Term, Justification], ...] = ()
    irreparable: tuple[IrreparableStep, ...] = ()


# ------------------------------------------------------------------- moves

def successor_edits(term: Term, env: StepEnv, scope: frozenset[str]) -> list[tuple[Justification, Edits]]:
    """Single justified rewrites of ``term``, deterministically ordered, as
    (clause, edits) without building their results.

    Per rule: forward single positions, a forward all-positions tuple when it
    applies at two or more disjoint positions, then the same backwards.
    Case-range introduction and elimination moves follow the axioms, then
    formulaic unfoldings and theorem applications.  A single rewrite makes
    one edit, a tuple one per chosen position, a case-range introduction
    one whole-term edit and an elimination one leaf edit per constructor
    occurrence.  Rules are matched through ``RuleSet.matches`` on the
    citable ``moves`` index, so every move passes ``check_justified_step``.
    Moves whose result mentions metavariables outside ``scope`` are dropped.

    ``term`` itself must lie in ``scope`` (as every term ``fill_gap``
    expands does), so a move is in scope when its replacements are.  Every
    value a match binds is a subterm of ``term``, so a rule's replacements
    are in scope exactly when the metavariables its target side adds are;
    that is tested once per rule, and a case move's replacements one by one.
    """
    registry = env.registry
    moves: list[tuple[Justification, Edits]] = []

    case_moves: list[tuple[Justification, Edits]] = []
    if env.case_bindings:
        clause = CaseRangeJustification(env.case_bindings)
        case_moves = [(clause, edits) for edits, _ in _case_edits(term, clause)
                      if all(term_metavars(new, registry) <= scope for _, new in edits)]
    rules = registry.rules
    sites = [(pos, sub, None) for pos, sub in positions(term)]
    for _, group in groupby(rules.matches(sites, rules.moves, env.current_theorem), itemgetter(0)):
        group = list(group)
        rule = group[0][2]
        if rule.source is not RuleSource.AXIOM:
            moves += case_moves
            case_moves = []
        _, dst = rule.oriented()
        if not term_metavars(dst, registry) - rule.metavars <= scope:
            continue
        replaced = [(pos, apply_substitution(sigma, dst)) for _, pos, _, sigma, _ in group]
        clause = RuleJustification((rule.name,))
        moves.extend((clause, (edit,)) for edit in replaced)
        chosen: list[tuple[Position, Term]] = []
        for edit in replaced:
            if all(_disjoint(edit[0], c[0]) for c in chosen):
                chosen.append(edit)
        if len(chosen) >= 2:
            moves.append((RuleJustification((rule.name,) * len(chosen)), tuple(chosen)))
    return moves + case_moves


def successor_moves(term: Term, env: StepEnv, scope: frozenset[str]) -> list[tuple[Justification, Term]]:
    """The moves of ``successor_edits``, in its order, with each result
    built: (clause, result)."""
    return [(clause, _applied(term, edits)) for clause, edits in successor_edits(term, env, scope)]


# --------------------------------------------------------------- gap search

def fill_gap(source: Term, target: Term, env: StepEnv,
             budget: SearchBudget | None = None) -> JustifiedChain | None:
    """Shortest chain of justified hops from ``source`` to ``target``.

    Breadth-first, one layer of hops per depth.  A layer lists its hops in
    the deterministic move order of ``successor_edits``, duplicates
    included, so the first hop that reaches ``target`` ends the
    lexicographically first shortest chain by (rule order, direction,
    position).  A term is expanded at its first hop only.  A hop is held
    as its parent and its move's edits, and its term is built only when
    the hop is taken off its layer; a move is recognised as reaching
    ``target`` through the fork of the expanded term and ``target``,
    without building its result (see ``_reached``).  ``None`` when no
    chain of at most ``budget.max_depth`` hops exists, or when finding one
    would expand more than ``budget.max_nodes`` distinct terms.
    """
    budget = budget or SearchBudget()
    if source == target:
        return JustifiedChain((), source, target)
    registry = env.registry
    scope = frozenset(term_metavars(source, registry) | term_metavars(target, registry)
                      | {q.var for q in env.case_bindings})
    # A hop is (term, clause, previous hop); the source's hop has no clause.
    # A layer entry is (previous hop, clause, edits), the source's (None, None, ()).
    layer: list[tuple] = [(None, None, ())]
    expanded: set[Term] = set()
    for depth in range(1, budget.max_depth + 1):
        next_layer = []
        for parent, clause, edits in layer:
            term = source if parent is None else _applied(parent[0], edits)
            if term in expanded:
                continue
            if len(expanded) >= budget.max_nodes:
                return None
            expanded.add(term)
            hop = (term, clause, parent)
            fork = _fork(term, target)
            for clause, edits in successor_edits(term, env, scope):
                result = _reached(term, edits, target, fork)
                if result is not None:
                    steps = [(result, clause)]
                    while hop[2] is not None:
                        steps.append(hop[:2])
                        hop = hop[2]
                    return JustifiedChain(tuple(reversed(steps)), source, target)
                if depth < budget.max_depth:
                    next_layer.append((hop, clause, edits))
        layer = next_layer
    return None


# ------------------------------------------------------------------- repair

def _clause_images(term: Term, just: Justification, env: StepEnv) -> list[Term]:
    outcomes = clause_edits(term, just, env)
    if not isinstance(outcomes, list):
        return []
    return list(dict.fromkeys(_applied(term, edits) for edits, _ in outcomes))


def _repair_segment(premiss: Term, steps: tuple[ProofStep, ...], env: StepEnv,
                    budget: SearchBudget) -> tuple[list[tuple[Term, Justification | None, bool]], int | None]:
    """Minimal-insertion repair of one linear segment.

    Returns (repaired step list, index of the first irreparable step or
    None).  Each entry of the step list is (term, justification, inserted?);
    kept steps preserve their written clause (or its absence) verbatim.
    Uniform-cost search over (consumed original steps, current term); costs
    count inserted steps.

    Strategies per original step (just, term) from the current term:
      keep      the hop already checks (or infers when the via is absent);
      fill      splice the shortest chain onto the step's term, accepted for
                via-less steps, or when the chain's last clause equals the
                written via (the written justification is then kept intact);
      displace  splice the chain, then re-anchor the written via by applying
                it to the step's own term, inserting the result as a new
                step (never applicable to a segment's final step).
    """
    n = len(steps)
    counter = 0
    start = (0, premiss)
    heap: list[tuple[int, int, tuple[int, Term], list]] = [(0, counter, start, [])]
    best: dict[tuple[int, Term], int] = {start: 0}
    final_term = steps[-1].term if steps else premiss

    while heap:
        cost, _, (k, cur), emitted = heappop(heap)
        if best.get((k, cur), cost) < cost:
            continue
        if k == n:
            if cur == final_term or n == 0:
                return emitted, None
            continue
        step = steps[k]
        just = step.justification

        def push(extra: list, new_cur: Term, added_cost: int) -> None:
            nonlocal counter
            state = (k + 1, new_cur)
            new_cost = cost + added_cost
            if best.get(state, new_cost + 1) <= new_cost:
                return
            best[state] = new_cost
            counter += 1
            heappush(heap, (new_cost, counter, state, emitted + extra))

        if just is not None:
            if check_justified_step(cur, step.term, just, env).justified:
                push([(step.term, just, False)], step.term, 0)
            else:
                chain = fill_gap(cur, step.term, env, budget)
                if chain is not None and chain.steps:
                    inserted = [(t, c, True) for t, c in chain.steps]
                    # fill: the chain independently rediscovers the written via
                    # for the final hop, so the original clause is preserved.
                    if chain.steps[-1][1] == just:
                        kept = inserted[:-1] + [(step.term, just, False)]
                        push(kept, step.term, len(chain.steps) - 1)
                if chain is not None and k + 1 < n:
                    # displace: the written via belongs one hop later.
                    prefix = [(t, c, True) for t, c in chain.steps]
                    for image in _clause_images(step.term, just, env):
                        push(prefix + [(image, just, True)], image, len(chain.steps))
        else:
            inferred = infer_step_justification(cur, step.term, env)
            if inferred is not None:
                push([(step.term, None, False)], step.term, 0)
            else:
                chain = fill_gap(cur, step.term, env, budget)
                if chain is not None and chain.steps:
                    push([(t, c, True) for t, c in chain.steps], step.term, len(chain.steps) - 1)

    # Search exhausted: blame the first hop that does not check on a plain
    # sequential walk (the same step the verifier flags), else the last.
    walk = premiss
    for i, step in enumerate(steps):
        if step.justification is not None:
            ok = check_justified_step(walk, step.term, step.justification, env).justified
        else:
            ok = infer_step_justification(walk, step.term, env) is not None
        if not ok:
            return [], i
        walk = step.term
    return [], max(n - 1, 0)


def _repair_body(body: ProofBody, lhs: Term, env: StepEnv, budget: SearchBudget,
                 path: tuple[str, ...], inserted: list, failures: list) -> ProofBody:
    if isinstance(body, ByCasesProof):
        new_cases = []
        for case in body.cases:
            case_env = StepEnv(env.registry, env.case_bindings + case.ranges, env.current_theorem)
            label = case.label or ", ".join(f"{q.var} ∈ {format_type(q.domain)}" for q in case.ranges)
            new_body = _repair_body(case.body, lhs, case_env, budget, path + (label,), inserted, failures)
            new_cases.append(CaseBlock(case.label, case.ranges, case.restated, new_body, case.span))
        return ByCasesProof(body.subjects, body.scrutinee, body.stated_summands, tuple(new_cases))

    steps = body.steps
    if not steps:
        return body
    premiss = steps[0].term
    repaired, stuck_at = _repair_segment(premiss, steps[1:], env, budget)
    if stuck_at is not None:
        stuck = steps[1 + stuck_at]
        prev_term = steps[stuck_at].term
        failures.append(IrreparableStep(
            path, stuck.index, prev_term, stuck.term, stuck.justification,
            infer_step_justification(prev_term, stuck.term, env),
        ))
        return body
    new_steps = [ProofStep(0, premiss, None, steps[0].span)]
    for i, (term, clause, was_inserted) in enumerate(repaired, start=1):
        new_steps.append(ProofStep(i, term, clause))
        if was_inserted:
            inserted.append((path, i, term, clause))
    return LinearProof(tuple(new_steps))


def repair_theorem(thm: TheoremDecl, report, registry: Registry,
                   budget: SearchBudget | None = None) -> RepairOutcome:
    """Detailed repair: the patched theorem (or None), the inserted steps,
    and any steps that are irreparable by insertion."""
    budget = budget or SearchBudget()
    if report.accepted:
        return RepairOutcome(thm)
    error_codes = {d.code for d in report.diagnostics if d.severity.value == "error"}
    if not error_codes <= {"E-UNJUSTIFIED-STEP"}:
        return RepairOutcome(None)

    env = StepEnv(registry, (), thm.name)
    inserted: list = []
    failures: list = []
    new_proof = _repair_body(thm.proof, thm.lhs, env, budget, (), inserted, failures)
    if failures:
        return RepairOutcome(None, tuple(inserted), tuple(failures))
    patched = TheoremDecl(thm.name, thm.quantifiers, thm.lhs, thm.rhs, new_proof, thm.span)

    if not verify_theorem(patched, registry).accepted:
        return RepairOutcome(None, tuple(inserted), ())
    return RepairOutcome(patched, tuple(inserted), ())

