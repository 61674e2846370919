"""Bounded search over justified rewrites: gap filling and proof repair.

Depth-1 inference, ``infer_step_justification``, is a rule-set operation
and lives in ``rewrite``; it is re-exported here.

``fill_gap`` searches breadth-first, one layer of hops per depth, over
single justified rewrites — plus same-rule simultaneous tuples and
case-range moves — and returns the lexicographically first shortest chain
under that move order.  It applies the goal test as a hop is generated: a
term's moves are listed at once only when ``rewrite._may_reach`` finds that
one move may reach the target (Russell & Norvig, *Artificial Intelligence:
A Modern Approach*, 3rd ed., §3.4.1).  The next layer is read on demand:
the other terms' moves are listed only as the search reaches them, so a
search that reaches the target partway through a layer lists no moves of
the layer's later terms, and one that fails lists no moves of its last
layer's terms but those that may reach the target (partial expansion:
Yoshizumi, Miura & Ishida, "A* with Partial Expansion for Large Branching
Factor Problems", AAAI 2000).

``repair_theorem`` fixes proofs whose steps are unjustified because terms were
omitted.  A written step is kept when ``rewrite.judge_hop``, the judgement
``check`` reports, accepts its hop, healing included; the verdicts that
``check`` recorded on the written hops are read from its report, so only a
hop off the written path is judged afresh.  For a broken hop it
splices the shortest chain between the two written terms; the displaced
``via`` clause is then re-anchored by applying it to the step's own term,
which inserts the term its author skipped.  Vias that cannot be re-anchored
this way (genuinely wrong rule names) make the proof
irreparable-by-insertion, reported with a suggested replacement.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import groupby
from operator import itemgetter
from typing import Iterable, NamedTuple

from .rewrite import (
    Edits, Position, RuleSource, StepEnv, StepVerdict, _applied, _case_edits, _disjoint, _fork,
    _may_reach, _reached, apply_substitution, clause_images, infer_step_justification, judge_hop,
)
from .syntax import (
    ByCasesProof, CaseBlock, CaseRangeJustification, Justification, LinearProof,
    ProofBody, ProofStep, RuleJustification, Term, TheoremDecl, format_type,
)
from .typesys import Registry, term_metavars
from .verifier import JudgedHop, VerificationReport, verify_theorem


class SearchBudget(NamedTuple):
    """Bounds of one ``fill_gap`` search: ``max_depth`` is the most hops in
    a chain, and ``max_nodes`` the most distinct terms visited per gap."""

    max_depth: int = 4
    max_nodes: int = 50_000


class JustifiedChain(NamedTuple):
    """A validated sequence of justified hops from ``source`` to ``target``;
    the last step's term is ``target`` itself."""

    steps: tuple[tuple[Term, Justification], ...]
    source: Term
    target: Term


class IrreparableStep(NamedTuple):
    case_path: tuple[str, ...]
    step_index: int
    prev: Term
    term: Term
    justification: Justification | None
    suggestion: Justification | None


class RepairOutcome(NamedTuple):
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
    visits does), so a move is in scope when its replacements are.  A
    match binds subterms of ``term`` and finds its source side's names
    there, so a rule's moves are in scope when ``RewriteRule.free`` is; a
    case move's replacements are tested one by one.
    """
    rules = env.registry.rules
    moves: list[tuple[Justification, Edits]] = []

    case_moves: list[tuple[Justification, Edits]] = []
    if env.case_bindings:
        clause = CaseRangeJustification(env.case_bindings)
        case_moves = [(clause, edits) for edits in _case_edits(term, clause)
                      if all(term_metavars(new, env.registry) <= scope for _, new in edits)]
    for _, group in groupby(rules.matches(term, env.current_theorem), itemgetter(0)):
        group = list(group)
        rule = group[0][2]
        if rule.source is not RuleSource.AXIOM:
            moves += case_moves
            case_moves = []
        if not rule.free <= scope:
            continue
        _, dst = rule.oriented()
        replaced = [(pos, apply_substitution(sigma, dst)) for _, pos, _, sigma in group]
        clause = RuleJustification((rule.name,))
        moves.extend((clause, (edit,)) for edit in replaced)
        # Matches come in pre-order, so a position that overlaps an earlier
        # chosen one lies below it and overlaps the last chosen one too.
        chosen: list[tuple[Position, Term]] = replaced[:1]
        for edit in replaced[1:]:
            if _disjoint(edit[0], chosen[-1][0]):
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
    position).  A hop is held as its parent and its move's edits, and its
    term is built when the hop is taken off its layer; at its first hop
    only, the term is visited and counted against ``budget.max_nodes``.

    A visited term's moves are listed at once only when it ``_may_reach``
    the target, and are then tested for the target through the fork of the
    term and ``target`` (see ``_reached``), so the goal test is applied as
    a hop is generated.  The next layer is read on demand: it runs over the
    visited terms in order, and lists a term's moves, unless they were
    listed at once, only when it reaches them.  So the search lists no
    term's moves without reading at least the first.  ``None`` when no chain
    of at most ``budget.max_depth`` hops exists, or when finding one would
    visit more than ``budget.max_nodes`` distinct terms.
    """
    budget = budget or SearchBudget()
    if source == target:
        return JustifiedChain((), source, target)
    registry = env.registry
    scope = frozenset(term_metavars(source, registry) | term_metavars(target, registry)
                      | {q.var for q in env.case_bindings})
    # A hop is (term, clause, previous hop); the source's hop has no clause.
    # A layer entry is (previous hop, clause, edits), the source's (None, None, ()).
    layer: Iterable[tuple] = [(None, None, ())]
    visited: set[Term] = set()
    for depth in range(1, budget.max_depth + 1):
        # Each visited term's hop, with its moves if they were listed at once.
        hops: list[tuple[tuple, list | None]] = []
        for parent, clause, edits in layer:
            term = source if parent is None else _applied(parent[0], edits)
            if term in visited:
                continue
            if len(visited) >= budget.max_nodes:
                return None
            visited.add(term)
            hop = (term, clause, parent)
            moves = None
            if _may_reach(term, target, env):
                moves = successor_edits(term, env, scope)
                fork = _fork(term, target)
                for clause, edits in moves:
                    result = _reached(term, edits, target, fork)
                    if result is not None:
                        steps = [(result, clause)]
                        while hop[2] is not None:
                            steps.append(hop[:2])
                            hop = hop[2]
                        return JustifiedChain(tuple(reversed(steps)), source, target)
            hops.append((hop, moves))
        if depth == budget.max_depth:
            break
        # The next layer, read by the loop above as it goes.
        layer = ((hop, clause, edits) for hop, moves in hops
                 for clause, edits in (successor_edits(hop[0], env, scope) if moves is None else moves))
    return None


# ------------------------------------------------------------------- repair

def _repair_segment(premiss: Term, steps: tuple[ProofStep, ...], env: StepEnv, budget: SearchBudget,
                    written: tuple[JudgedHop | None, ...] = ()) \
        -> tuple[list[tuple[Term, Justification | None, bool]], int | None]:
    """Minimal-insertion repair of one linear segment.

    Returns (repaired step list, index of the first irreparable step or
    None).  Each entry of the step list is (term, justification, inserted?);
    kept steps preserve their written clause (or its absence) verbatim.
    Uniform-cost search over (consumed original steps, current term); costs
    count inserted steps.  ``written[k]``, when there is one, is ``check``'s
    record of the hop into ``steps[k]``.

    Strategies per original step (just, term) from the current term:
      keep      ``judge_hop`` accepts the hop, as ``check`` does: it
                checks, infers when the via is absent, or heals a
                case-range hop with one inferred rewrite.  From the written
                previous term, ``check``'s recorded verdict is taken;
      fill      splice the shortest chain onto the step's term, accepted for
                via-less steps, or when the chain's last clause equals the
                written via (the written justification is then kept intact);
      displace  splice the chain, then re-anchor the written via by applying
                it to the step's own term, inserting the result as a new
                step (never applicable to a segment's final step).
    """
    n = len(steps)

    def judged(k: int, cur: Term) -> StepVerdict:
        hop = written[k] if k < len(written) else None
        if hop is not None and hop.prev is cur:
            return hop.verdict
        return judge_hop(cur, steps[k].term, steps[k].justification, env)

    counter = 0
    start = (0, premiss)
    heap: list[tuple[int, int, tuple[int, Term], list]] = [(0, counter, start, [])]
    best: dict[tuple[int, Term], int] = {start: 0}

    while heap:
        cost, _, (k, cur), emitted = heappop(heap)
        if best.get((k, cur), cost) < cost:
            continue
        if k == n:  # every move into the last step ends on its term
            return emitted, None
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

        if not judged(k, cur).failure:
            push([(step.term, just, False)], step.term, 0)
            continue
        chain = fill_gap(cur, step.term, env, budget)
        if chain is None:
            continue
        inserted = [(t, c, True) for t, c in chain.steps]
        if chain.steps and just is None:
            push(inserted, step.term, len(inserted) - 1)
        elif chain.steps and chain.steps[-1][1] == just:
            # fill: the chain independently rediscovers the written via
            # for the final hop, so the original clause is preserved.
            push(inserted[:-1] + [(step.term, just, False)], step.term, len(inserted) - 1)
        if just is not None and k + 1 < n:
            # displace: the written via belongs one hop later.
            for image in clause_images(step.term, just, env):
                push(inserted + [(image, just, True)], image, len(inserted))

    # Search exhausted: blame the first hop that ``judge_hop`` rejects on a
    # plain sequential walk (the step the verifier flags), else the last.
    walk = premiss
    for i, step in enumerate(steps):
        if judged(i, walk).failure:
            return [], i
        walk = step.term
    return [], max(n - 1, 0)


def _repair_body(body: ProofBody, env: StepEnv, budget: SearchBudget, judged: dict[int, JudgedHop],
                 inserted: list, failures: list) -> ProofBody:
    """``body`` with every gap of its linear segments filled, in order, from
    a stack of the bodies still to repair; a ``proof by cases`` is rebuilt
    once its cases' bodies are repaired.  ``judged`` holds ``check``'s
    record of each hop it judged by the ``id`` of the written step it goes
    into, so each segment finds its own hops by its own steps."""
    done: list[ProofBody] = []  # repaired bodies, in the order they were finished
    stack: list = [(body, env, (), False)]
    while stack:
        item, env, path, ready = stack.pop()
        if isinstance(item, LinearProof):
            written = tuple(judged.get(id(step)) for step in item.steps[1:])
            done.append(_repair_linear(item, env, budget, written, path, inserted, failures))
        elif ready:
            bodies = done[len(done) - len(item.cases):]
            del done[len(done) - len(item.cases):]
            cases = tuple(CaseBlock(case.label, case.ranges, case.restated, new_body, case.span)
                          for case, new_body in zip(item.cases, bodies))
            done.append(ByCasesProof(item.subjects, item.scrutinee, item.stated_summands, cases))
        else:
            stack.append((item, env, path, True))
            for case in reversed(item.cases):
                case_env = StepEnv(env.registry, env.case_bindings + case.ranges, env.current_theorem)
                label = case.label or ", ".join(f"{q.var} ∈ {format_type(q.domain)}" for q in case.ranges)
                stack.append((case.body, case_env, path + (label,), False))
    return done[0]


def _repair_linear(body: LinearProof, env: StepEnv, budget: SearchBudget, written: tuple,
                   path: tuple[str, ...], inserted: list, failures: list) -> LinearProof:
    steps = body.steps
    if not steps:
        return body
    premiss = steps[0].term
    repaired, stuck_at = _repair_segment(premiss, steps[1:], env, budget, written)
    if stuck_at is not None:
        stuck = steps[1 + stuck_at]
        prev_term = steps[stuck_at].term
        failures.append(IrreparableStep(
            path, stuck.index, prev_term, stuck.term, stuck.justification,
            infer_step_justification(prev_term, stuck.term, env),
        ))
        return body
    new_steps = [steps[0]]  # the premiss; with unjustified steps the only errors, it is step 0 without a clause
    for i, (term, clause, was_inserted) in enumerate(repaired, start=1):
        new_steps.append(ProofStep(i, term, clause))
        if was_inserted:
            inserted.append((path, i, term, clause))
    return LinearProof(tuple(new_steps))


def repair_theorem(thm: TheoremDecl, report: VerificationReport, registry: Registry,
                   budget: SearchBudget | None = None) -> RepairOutcome:
    """Detailed repair: the patched theorem (or None), the inserted steps,
    and any steps that are irreparable by insertion.  ``report`` is
    ``verify_theorem``'s on ``thm``; its recorded verdicts decide which
    written hops are kept."""
    budget = budget or SearchBudget()
    if report.accepted:
        return RepairOutcome(thm)
    error_codes = {d.code for d in report.diagnostics if d.severity.value == "error"}
    if not error_codes <= {"E-UNJUSTIFIED-STEP"}:
        return RepairOutcome(None)

    env = StepEnv(registry, (), thm.name)
    inserted: list = []
    failures: list = []
    judged = {id(hop.step): hop for hop in report.hops}  # ``thm`` keeps each step alive
    new_proof = _repair_body(thm.proof, env, budget, judged, inserted, failures)
    if failures:
        return RepairOutcome(None, tuple(inserted), tuple(failures))
    patched = thm._replace(proof=new_proof)

    if not verify_theorem(patched, registry).accepted:
        return RepairOutcome(None, tuple(inserted), ())
    return RepairOutcome(patched, tuple(inserted), ())

