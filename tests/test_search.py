"""Justification inference, bounded gap search and proof repair."""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from axiotome import search
from axiotome.diagnostics import Severity
from axiotome.rewrite import (
    RuleSource, StepEnv, _applied, _disjoint, _fork, _may_reach, _reached, apply_substitution,
    check_justified_step, clause_images, constructor_term, positions, replace_at,
)
from axiotome.search import (
    JustifiedChain, SearchBudget, fill_gap, infer_step_justification,
    repair_theorem, successor_edits, successor_moves,
)
from axiotome.syntax import (
    CaseRangeJustification, Justification, LinearProof, ProofStep, Quantifier, RuleJustification, Term,
    TheoremDecl, TypeExpr, format_justification, parse_program, parse_term,
)
from axiotome.typesys import term_metavars
from axiotome.verifier import _Verification, verify_theorem

from conftest import (
    BOOL_FNS, ENVS, REACH_ENVS, REACH_REDEXES, REACH_TERMS, RULE_TERMS, RULES_REGISTRY, _applications,
    _case_results, load_program, load_registry,
)


def t(source: str) -> Term:
    return parse_term(source)


FF = (Quantifier("a", TypeExpr("False")), Quantifier("b", TypeExpr("False")))


# ---------------------------------------------------------------- inference

def test_infer_forward_axiom(bool_registry):
    clause = infer_step_justification(t("not(True)"), t("False"), StepEnv(bool_registry))
    assert clause == RuleJustification(("$not°T",))


def test_infer_backward_axiom(bool_registry):
    clause = infer_step_justification(t("True"), t("or(True, True)"), StepEnv(bool_registry))
    assert clause == RuleJustification(("$or°TT",))


def test_infer_fails_without_connecting_rule():
    registry = load_registry("missing_nullary_types.axm", "product_types.axm", "sum_types.axm",
                             "and_function.axm")
    clause = infer_step_justification(t("False"), t("True"), StepEnv(registry))
    assert clause is None


def test_infer_prefers_case_range_over_later_rules(bool_registry):
    env = StepEnv(bool_registry, FF)
    clause = infer_step_justification(t("or(not(a), not(b))"), t("or(not(False), not(False))"), env)
    assert isinstance(clause, CaseRangeJustification)


def test_infer_is_deterministic_registry_order(bool_registry):
    # not(True) -> False is certified by $not°T; the earlier axiom $not°F
    # does not apply, so the first hit in registry order is returned.
    clause = infer_step_justification(t("not(True)"), t("False"), StepEnv(bool_registry))
    assert clause.names == ("$not°T",)


# ---------------------------------------------------------------- fill_gap

def test_fill_gap_reproduces_the_corrected_case_tail(bool_registry):
    env = StepEnv(bool_registry, FF)
    chain = fill_gap(t("True"), t("or(not(a), not(b))"), env, SearchBudget(max_depth=3))
    assert chain is not None
    rendered = [(str(format_justification(c)), term) for term, c in chain.steps]
    assert [term for _, term in rendered] == [
        t("or(True, True)"), t("or(not(False), not(False))"), t("or(not(a), not(b))"),
    ]
    assert [clause for clause, _ in rendered] == [
        "$or°TT", "($not°F, $not°F)", "(∀a ∈ False, ∀b ∈ False)",
    ]


def test_fill_gap_trivial_chain(bool_registry):
    chain = fill_gap(t("not(False)"), t("not(False)"), StepEnv(bool_registry))
    assert chain == JustifiedChain((), t("not(False)"), t("not(False)"))


def test_fill_gap_unconnected_worlds():
    registry = load_registry(*BOOL_FNS, "polymorphic_lists.axm")
    chain = fill_gap(t("False"), t("Nil"), StepEnv(registry), SearchBudget(max_depth=3, max_nodes=2000))
    assert chain is None


def test_fill_gap_respects_depth_budget(bool_registry):
    env = StepEnv(bool_registry, FF)
    assert fill_gap(t("True"), t("or(not(a), not(b))"), env, SearchBudget(max_depth=2)) is None


def test_fill_gap_respects_node_budget(bool_registry):
    env = StepEnv(bool_registry, FF)
    assert fill_gap(t("True"), t("or(not(a), not(b))"), env,
                    SearchBudget(max_depth=3, max_nodes=2)) is None


def test_chains_are_sound(bool_registry):
    # Every link of a returned chain passes the justified-step checker.
    env = StepEnv(bool_registry, FF)
    goals = [t("or(not(a), not(b))"), t("or(True, True)"), t("not(False)"), t("and(True, True)")]
    for goal in goals:
        chain = fill_gap(t("True"), goal, env, SearchBudget(max_depth=3))
        if chain is None:
            continue
        cur = chain.source
        for term, clause in chain.steps:
            assert check_justified_step(cur, term, clause, env).justified
            cur = term
        assert cur == chain.target


def test_chains_are_minimal_breadth_first_cross_check(bool_registry):
    # Compare chain lengths against a plain breadth-first search over the
    # same move relation that records only depths, for the first 60 boolean
    # goals within depth 3.
    env = StepEnv(bool_registry, FF)
    source = t("True")
    scope = frozenset({"a", "b"})

    depths = {source: 0}
    frontier = [source]
    for depth in range(1, 4):
        nxt = []
        for term in frontier:
            for _, result in successor_moves(term, env, scope):
                if result not in depths:
                    depths[result] = depth
                    nxt.append(result)
        frontier = nxt

    checked = 0
    for goal, depth in sorted(depths.items(), key=lambda kv: kv[1])[:60]:
        chain = fill_gap(source, goal, env, SearchBudget(max_depth=3))
        assert chain is not None
        assert len(chain.steps) == depth
        checked += 1
    assert checked == 60


def test_fill_gap_is_deterministic(bool_registry):
    env = StepEnv(bool_registry, FF)
    runs = [fill_gap(t("True"), t("or(not(a), not(b))"), env, SearchBudget(max_depth=3))
            for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


# ------------------------------------------------------------------- repair

def _registry_and_theorem(fixture):
    registry = load_registry(*BOOL_FNS, fixture)
    (thm,) = registry.theorems.values()
    return registry, thm


def test_repair_of_original_de_morgan_matches_corrected_fixture():
    registry, thm = _registry_and_theorem("de_morgan_original.axm")
    report = verify_theorem(thm, registry)
    patched = repair_theorem(thm, report, registry).theorem
    assert patched is not None
    assert verify_theorem(patched, registry).accepted
    corrected = load_program(*BOOL_FNS, "de_morgan_corrected.axm").statements[-1]
    assert patched == corrected
    for case in patched.proof.cases:
        assert len(case.body.steps) == 7


def test_repair_preserves_original_terms_in_order():
    registry, thm = _registry_and_theorem("de_morgan_original.axm")
    patched = repair_theorem(thm, verify_theorem(thm, registry), registry).theorem
    for original_case, patched_case in zip(thm.proof.cases, patched.proof.cases):
        patched_terms = [s.term for s in patched_case.body.steps]
        originals = [s.term for s in original_case.body.steps]
        it = iter(patched_terms)
        assert all(term in it for term in originals)  # subsequence check


def test_repair_inserts_or_axioms_backward():
    registry, thm = _registry_and_theorem("de_morgan_original.axm")
    outcome = repair_theorem(thm, verify_theorem(thm, registry), registry)
    by_case: dict = {}
    for path, index, term, clause in outcome.inserted:
        by_case.setdefault(path, []).append((index, term, clause))
    assert len(by_case) == 4
    expected_axioms = {"$or°TT", "$or°TF", "$or°FT", "$or°FF"}
    seen = set()
    for inserts in by_case.values():
        index, term, clause = inserts[0]
        assert index == 4
        assert term.head == "or"
        assert isinstance(clause, RuleJustification) and len(clause.names) == 1
        seen.add(clause.names[0])
    assert seen == expected_axioms


def test_repair_returns_accepted_proof_unchanged():
    registry, thm = _registry_and_theorem("de_morgan_corrected.axm")
    report = verify_theorem(thm, registry)
    assert report.accepted
    assert repair_theorem(thm, report, registry).theorem is thm


def test_repair_takes_the_recorded_verdicts_of_written_hops():
    # The report holds 16 judged hops, each taken once on the written path
    # instead of being judged again.  Without them, or with the report of
    # another parse of the same text, whose steps are equal but not the
    # same, repair judges them itself.
    registry, thm = _registry_and_theorem("de_morgan_original.axm")
    report = verify_theorem(thm, registry)
    _, twin = _registry_and_theorem("de_morgan_original.axm")
    outcomes, calls = [], []
    for given in (report, report._replace(hops=()), verify_theorem(twin, registry)):
        with patch.object(search, "judge_hop", wraps=search.judge_hop) as judged:
            outcomes.append(repair_theorem(thm, given, registry))
        calls.append(judged.call_count)
    assert twin == thm and twin.proof.cases[0].body.steps[1] is not thm.proof.cases[0].body.steps[1]
    assert outcomes[0] == outcomes[1] == outcomes[2] and outcomes[0].theorem is not None
    assert len(report.hops) == 16 and calls[1] - calls[0] == calls[2] - calls[0] == 16


def test_repair_blames_the_rejected_hop_of_the_report():
    # The search exhausts, and the walk that blames a step reads the hop
    # that ``check`` rejected.  The one hop repair judges is off the
    # written path: from False, where displacing the via of step 1 leads.
    registry, thm = _registry_and_theorem("not_not_false_faulty.axm")
    with patch.object(search, "judge_hop", wraps=search.judge_hop) as judged:
        outcome = repair_theorem(thm, verify_theorem(thm, registry), registry)
    assert [failure.step_index for failure in outcome.irreparable] == [1]
    assert [call.args[:2] for call in judged.call_args_list] == [(t("False"), t("False"))]


def test_wrong_via_is_irreparable_with_suggestion():
    registry, thm = _registry_and_theorem("not_not_false_faulty.axm")
    outcome = repair_theorem(thm, verify_theorem(thm, registry), registry)
    assert outcome.theorem is None
    assert len(outcome.irreparable) == 1
    failure = outcome.irreparable[0]
    assert failure.step_index == 1
    assert failure.justification == RuleJustification(("$not°T",))
    assert failure.suggestion == RuleJustification(("$not°F",))


def test_endpoint_mismatch_is_not_a_gap_problem(bool_registry):
    src = (
        "theorem ¶t: not(False) ↔ False\n"
        "proof\n  0. not(False)\n  1. True via $not°F\n"
    )
    thm = parse_program(src).statements[0]
    report = verify_theorem(thm, bool_registry)
    assert not report.accepted
    assert repair_theorem(thm, report, bool_registry).theorem is None


def test_genuine_gap_with_correct_trailing_via_is_filled(bool_registry):
    # The written via is right for the hop into its own term once the
    # missing intermediate step is inserted before it.
    src = (
        "theorem ¶t: not(not(False)) ↔ False\n"
        "proof\n  0. not(not(False))\n  1. False via $not°T\n"
    )
    thm = parse_program(src).statements[0]
    report = verify_theorem(thm, bool_registry)
    assert not report.accepted
    patched = repair_theorem(thm, report, bool_registry).theorem
    assert patched is not None
    steps = patched.proof.steps
    assert [s.term for s in steps] == [t("not(not(False))"), t("not(True)"), t("False")]
    assert steps[1].justification == RuleJustification(("$not°F",))
    assert steps[2].justification == RuleJustification(("$not°T",))
    assert verify_theorem(patched, registry=bool_registry).accepted


def test_repair_is_deterministic():
    registry, thm = _registry_and_theorem("de_morgan_original.axm")
    report = verify_theorem(thm, registry)
    first = repair_theorem(thm, report, registry).theorem
    second = repair_theorem(thm, report, registry).theorem
    assert first == second


# ------------------------------------------------ indexed rule application

def _reference_successor_moves(term, env, scope):
    """``successor_moves`` without the index: each rule in preference order
    is tried at every position, one direction at a time."""
    registry = env.registry
    moves = []

    def scoped(result):
        return term_metavars(result, registry) <= scope

    def rule_moves(rule):
        for oriented in (rule, rule.reversed()):
            apps = _applications(term, oriented)
            moves.extend((RuleJustification((rule.name,)), result) for _, result, _ in apps if scoped(result))
            chosen = []
            for pos, _, sigma in apps:
                if all(_disjoint(pos, c) for c, _ in chosen):
                    chosen.append((pos, sigma))
            if len(chosen) >= 2:
                _, dst = oriented.oriented()
                result = term
                for pos, sigma in chosen:
                    result = replace_at(result, pos, apply_substitution(sigma, dst))
                if scoped(result):
                    moves.append((RuleJustification((rule.name,) * len(chosen)), result))

    rules = registry.rules.rules
    for rule in rules:
        if rule.source is RuleSource.AXIOM:
            rule_moves(rule)
    if env.case_bindings:
        clause = CaseRangeJustification(env.case_bindings)
        moves.extend((clause, result) for result, _ in _case_results(term, clause, env) if scoped(result))
    for rule in rules:
        if rule.source is RuleSource.FORMULAIC or rule.source is RuleSource.THEOREM \
                and rule.name != env.current_theorem and registry.rules.named.get(rule.name) is rule:
            rule_moves(rule)
    return moves


def _reference_infer(prev, next_term, env):
    """``infer_step_justification`` as a check of every clause, in
    preference order, through ``check_justified_step``."""
    rules = env.registry.rules.rules
    clauses = [RuleJustification((r.name,)) for r in rules if r.source is RuleSource.AXIOM]
    clauses += [CaseRangeJustification((binding,)) for binding in env.case_bindings]
    if len(env.case_bindings) > 1:
        clauses.append(CaseRangeJustification(env.case_bindings))
    clauses += [RuleJustification((r.name,)) for r in rules
                if r.source is RuleSource.FORMULAIC or r.source is RuleSource.THEOREM]
    return next((c for c in clauses if check_justified_step(prev, next_term, c, env).justified), None)


SCOPE = frozenset({"a", "b"})


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(RULE_TERMS, st.sampled_from(ENVS), st.data())
def test_indexed_moves_and_inference_agree_with_reference(term, env, data):
    moves = successor_moves(term, env, SCOPE)
    assert moves == _reference_successor_moves(term, env, SCOPE)
    targets = [result for _, result in moves] + [data.draw(RULE_TERMS)]
    for target in data.draw(st.lists(st.sampled_from(targets), max_size=4)):
        assert infer_step_justification(term, target, env) == _reference_infer(term, target, env)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(RULE_TERMS, st.sampled_from(ENVS))
def test_every_successor_move_passes_the_step_check(term, env):
    # Gap search offers only hops that ``check`` accepts, so that ``fill``
    # inserts only steps that verify.
    for clause, result in successor_moves(term, env, SCOPE):
        assert check_justified_step(term, result, clause, env).justified, (clause, result)


def test_case_moves_introduce_from_a_term_with_bound_variables():
    env = ENVS[1]  # a, b ∈ False
    def case_moves(term):
        return [result for clause, result in successor_moves(term, env, SCOPE)
                if isinstance(clause, CaseRangeJustification)]
    assert case_moves(t("and(False, a)")) == [t("and(False, False)")]
    assert case_moves(t("and(False, False)")) == [
        t("and(a, a)"), t("and(a, b)"), t("and(b, a)"), t("and(b, b)"),
    ]


def test_case_elimination_edits_each_occurrence():
    a, b = t("a"), t("b")
    edits = [edits for clause, edits in successor_edits(t("and(False, False)"), ENVS[1], SCOPE)
             if isinstance(clause, CaseRangeJustification)]
    assert edits == [(((0,), x), ((1,), y)) for x in (a, b) for y in (a, b)]


def _eager_successor_moves(term, env, scope):
    """``successor_moves`` with every result built as its match is found,
    and each replacement scope-tested whole."""
    registry = env.registry
    moves = []

    def scoped(result):
        return term_metavars(result, registry) <= scope

    case_moves = []
    if env.case_bindings:
        clause = CaseRangeJustification(env.case_bindings)
        case_moves = [(clause, result) for result, _ in _case_results(term, clause, env) if scoped(result)]
    rules = registry.rules
    for _, group in groupby(rules.matches(term, env.current_theorem), itemgetter(0)):
        group = list(group)
        rule = group[0][2]
        if rule.source is not RuleSource.AXIOM:
            moves += case_moves
            case_moves = []
        _, dst = rule.oriented()
        replaced = []
        for _, pos, _, sigma in group:
            new = apply_substitution(sigma, dst)
            replaced.append((pos, new, scoped(new)))
        moves.extend((RuleJustification((rule.name,)), replace_at(term, pos, new))
                     for pos, new, ok in replaced if ok)
        chosen = []
        for app in replaced:
            if all(_disjoint(app[0], c[0]) for c in chosen):
                chosen.append(app)
        if len(chosen) >= 2 and all(ok for _, _, ok in chosen):
            result = term
            for pos, new, _ in chosen:
                result = replace_at(result, pos, new)
            moves.append((RuleJustification((rule.name,) * len(chosen)), result))
    return moves + case_moves


#: A theorem whose right side mentions ``c``, which no match binds.
_FREE_C = StepEnv(load_registry(*BOOL_FNS, extra="""\
theorem ¶freeC: not(False) ↔ or(c, True)
proof
  0. not(False)
  1. or(c, True)
"""))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(RULE_TERMS, st.sampled_from(ENVS + (_FREE_C,)), st.sets(st.sampled_from("abc")))
def test_moves_built_from_edits_agree_with_eager_moves(term, env, extra):
    # Every scope holds ``term``, as ``successor_moves`` requires, and some
    # leave out the variables that case eliminations and ``¶freeC`` add.
    scope = frozenset(term_metavars(term, env.registry) | extra)
    assert successor_moves(term, env, scope) == _eager_successor_moves(term, env, scope)


def _reaching_moves(term, goals, env):
    """Check, for every move of ``term`` and every goal other than ``term``,
    that ``fill_gap``'s target test agrees with building the result and
    comparing it; return the (goal, clause, edits) that reach their goal."""
    moves = [(clause, edits, _applied(term, edits))
             for clause, edits in successor_edits(term, env, SCOPE)]
    hits = []
    for goal in goals:
        if goal == term:
            continue
        fork = _fork(term, goal)
        for clause, edits, built in moves:
            reached = _reached(term, edits, goal, fork)
            if built == goal:
                assert reached is built, (goal, clause, edits)  # one object: terms are interned
                hits.append((goal, clause, edits))
            else:
                assert reached is None, (goal, clause, edits)
    return hits


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(RULE_TERMS, st.sampled_from(ENVS), st.data())
def test_target_is_recognised_as_building_would(term, env, data):
    # Goals as in ``test_layered_fill_gap_agrees_with_reference``, plus every
    # result of one move, so that each kind of move is tried as a hit.
    goals = [data.draw(RULE_TERMS)] + [result for _, result in successor_moves(term, env, SCOPE)]
    for _ in range(data.draw(st.integers(0, 3))):
        goal = term
        for _ in range(data.draw(st.integers(1, 2))):
            goal = data.draw(st.sampled_from(successor_moves(goal, env, SCOPE)))[1]
        goals.append(goal)
    _reaching_moves(term, goals, env)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(RULE_TERMS, st.sampled_from(ENVS), st.data())
def test_one_move_reach_test_passes_every_move(term, env, data):
    # ``fill_gap`` expands a term early only when it passes ``_may_reach``,
    # so every result of one move must pass it; a drawn target that fails
    # it, one term or a walk of two moves, is the result of no move.
    results = [result for _, result in successor_moves(term, env, SCOPE)]
    for result in results:
        assert _may_reach(term, result, env), result
    targets = [data.draw(RULE_TERMS)]
    if results:
        walk = data.draw(st.sampled_from(results))
        targets += [result for _, result in successor_moves(walk, env, SCOPE)]
    for target in targets:
        if not _may_reach(term, target, env):
            assert target not in results, target


def test_one_move_reach_test_rejects_farther_terms():
    env = ENVS[1]  # a, b ∈ False, theorem ¶deMorgan1 excluded
    assert _may_reach(t("not(and(a, b))"), t("not(and(False, False))"), env)  # introduction
    assert _may_reach(t("not(and(False, False))"), t("not(and(a, False))"), env)  # elimination
    assert _may_reach(t("or(not(True), not(True))"), t("or(False, False)"), env)  # a tuple
    assert not _may_reach(t("not(and(a, b))"), t("not(False)"), env)
    assert not _may_reach(t("not(not(True))"), t("True"), env)
    assert not _may_reach(t("or(not(True), True)"), t("or(False, False)"), env)


def _reference_may_reach(term, target, env):
    """``_may_reach`` by probing every rule at every node of each path down
    to where the two terms differ: a node is covered by a match at its root
    whose substituted other side is ``target``'s subterm there."""
    rules = env.registry.rules
    swaps = set()
    for q in env.case_bindings:
        var, ctor = Term(q.var), constructor_term(q.domain)
        swaps.update(((var, ctor), (ctor, var)))
    stack = [(term, target)] if term is not target else []
    while stack:
        sub, goal = stack.pop()
        if any(pos == () and apply_substitution(sigma, rule.oriented()[1]) is goal
               for _, pos, rule, sigma in rules.matches(sub, env.current_theorem)):
            continue
        if sub.head == goal.head and sub.type_args == goal.type_args and len(sub.args) == len(goal.args):
            stack.extend((a, b) for a, b in zip(sub.args, goal.args) if a is not b)
        elif (sub, goal) not in swaps:
            return False
    return True


def _may_reach_agrees(term, env, data, terms):
    """``_may_reach`` and the reference agree from ``term`` to each result
    of one move, to each end of a two-move walk and to two drawn terms."""
    results = [result for _, result in successor_moves(term, env, SCOPE)]
    targets = results + [data.draw(terms), data.draw(terms)]
    if results:
        walk = data.draw(st.sampled_from(results))
        targets += [result for _, result in successor_moves(walk, env, SCOPE)]
    for target in targets:
        assert _may_reach(term, target, env) == _reference_may_reach(term, target, env), target


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(RULE_TERMS, st.sampled_from(ENVS), st.data())
def test_one_move_reach_test_agrees_with_reference(term, env, data):
    _may_reach_agrees(term, env, data, RULE_TERMS)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(REACH_TERMS, st.sampled_from(REACH_ENVS), st.data())
def test_one_move_reach_test_agrees_with_reference_by_reach(term, env, data):
    # The rules of every kind of reach, with one of their redexes in ``term``.
    pos, _ = data.draw(st.sampled_from(positions(term)))
    _may_reach_agrees(replace_at(term, pos, data.draw(st.sampled_from(REACH_REDEXES))), env, data, REACH_TERMS)


_AND_COMMUTES = """\
theorem ¶andCommutes: ∀a ∈ Boolean, ∀b ∈ Boolean: and(a, b) ↔ and(b, a)
proof
  0. and(a, b)
  1. and(b, a)
"""


def test_target_recognition_of_tuples_cases_and_identity_rewrites():
    # A same-rule tuple, a case-range introduction, and a commutativity
    # rewrite of ``and(a, a)``, which leaves the term as it is.
    tuple_hits = _reaching_moves(t("or(not(True), not(True))"), [t("or(False, False)")], ENVS[0])
    assert [clause for _, clause, _ in tuple_hits] == [RuleJustification(("$not°T",) * 2)]
    case_hits = _reaching_moves(t("and(False, a)"), [t("and(False, False)")], ENVS[1])
    assert [edits for _, _, edits in case_hits] == [(((), t("and(False, False)")),)]
    env = StepEnv(load_registry(*BOOL_FNS, extra=_AND_COMMUTES))
    term = t("and(and(a, a), not(True))")
    identities = [edits for clause, edits in successor_edits(term, env, SCOPE)
                  if _applied(term, edits) == term]
    assert [edits[0][0] for edits in identities] == [(0,), (0,)]  # forward, backward
    # The identity's position is an ancestor of the fork of ``term`` and the
    # last goal, (0, 1), and it must not be taken for a hop to that goal.
    goals = [t("and(and(a, a), False)"), t("and(not(True), and(a, a))"), t("and(and(a, b), not(True))")]
    hits = _reaching_moves(term, goals, env)
    assert [goal for goal, _, _ in hits] == [goals[0], goals[1], goals[1]]


def test_tuple_step_between_equal_terms():
    # Equal terms have no fork, and the tuple is recognised whole.
    env = StepEnv(load_registry(*BOOL_FNS, extra=_AND_COMMUTES))
    term = t("or(and(a, a), and(b, b))")
    verdict = check_justified_step(term, term, RuleJustification(("andCommutes", "andCommutes")), env)
    assert verdict.justified
    assert [(pos, rule.name, rule.direction.value, sigma) for pos, rule, sigma in verdict.witness] == [
        ((0,), "andCommutes", "forward", {"a": t("a"), "b": t("a")}),
        ((1,), "andCommutes", "forward", {"a": t("b"), "b": t("b")}),
    ]


# ------------------------------------------------------ layered gap search

class _NodesExhausted(Exception):
    pass


def _reference_fill_gap(source: Term, target: Term, env: StepEnv,
                        budget: SearchBudget | None = None) -> JustifiedChain | None:
    """``fill_gap`` as iterative-deepening DFS: a depth-limited search per
    depth with a per-iteration ``visited`` map, over a move cache whose
    misses are the expanded nodes.  It calls ``successor_moves`` through its
    module, which calls ``successor_edits`` once per expanded node, so that
    a test can record the calls."""
    budget = budget or SearchBudget()
    if source == target:
        return JustifiedChain((), source, target)
    registry = env.registry
    scope = frozenset(term_metavars(source, registry) | term_metavars(target, registry)
                      | {q.var for q in env.case_bindings})
    move_cache: dict[Term, list[tuple[Justification, Term]]] = {}
    nodes = 0

    def moves_of(term: Term) -> list[tuple[Justification, Term]]:
        nonlocal nodes
        cached = move_cache.get(term)
        if cached is None:
            nodes += 1
            if nodes > budget.max_nodes:
                raise _NodesExhausted
            cached = search.successor_moves(term, env, scope)
            move_cache[term] = cached
        return cached

    def dls(term: Term, remaining: int, visited: dict[Term, int]) \
            -> list[tuple[Term, Justification]] | None:
        if remaining == 0:
            return [] if term == target else None
        seen = visited.get(term)
        if seen is not None and seen >= remaining:
            return None
        visited[term] = remaining
        for clause, result in moves_of(term):
            if result == target:
                return [(result, clause)]
            if remaining > 1:
                tail = dls(result, remaining - 1, visited)
                if tail is not None:
                    return [(result, clause)] + tail
        return None

    try:
        for depth in range(1, budget.max_depth + 1):
            chain = dls(source, depth, {})
            if chain is not None:
                return JustifiedChain(tuple(chain), source, target)
    except _NodesExhausted:
        return None
    return None


def _expanding(gap_search, source, goal, env, budget):
    """The result of ``gap_search`` and the terms it counted against
    ``budget.max_nodes``, in order: each term as it is first tested for a
    one-move reach (``fill_gap``) or expanded (the reference)."""
    counted = {}

    def recorded(call):
        def recording(term, *args):
            counted.setdefault(term)
            return call(term, *args)
        return recording

    with patch.object(search, "successor_edits", recorded(successor_edits)), \
            patch.object(search, "_may_reach", recorded(_may_reach)):
        return gap_search(source, goal, env, budget), list(counted)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(RULE_TERMS, st.sampled_from(ENVS), st.data())
def test_layered_fill_gap_agrees_with_reference(source, env, data):
    # Same chain or None, and the same terms expanded in the same order, so
    # the node budget trips at the same point.  Goals are random walks of
    # up to two moves from the source, plus one random term.  The default
    # node budget is drawn only below depth 3: a depth-3 search for an
    # unreachable goal expands every term within two moves (thousands).
    goals = [data.draw(RULE_TERMS)]
    for _ in range(data.draw(st.integers(0, 3))):
        goal = source
        for _ in range(data.draw(st.integers(1, 2))):
            goal = data.draw(st.sampled_from(successor_moves(goal, env, SCOPE)))[1]
        goals.append(goal)
    max_depth = data.draw(st.integers(0, 3))
    nodes = st.integers(0, 40)
    if max_depth < 3:
        nodes |= st.just(SearchBudget().max_nodes)
    budget = SearchBudget(max_depth, data.draw(nodes))
    for goal in goals:
        assert _expanding(fill_gap, source, goal, env, budget) \
            == _expanding(_reference_fill_gap, source, goal, env, budget)


def _unread_listings(source, goal, env, budget):
    """The terms whose moves ``fill_gap`` listed without reading one of
    them.  A move is read when its term is built off a layer (``_applied``
    on its parent) or tested for the goal (``_reached``); a term with no
    moves is never unread."""
    listed, read = [], set()

    def listing(term, *args):
        moves = successor_edits(term, *args)
        if moves:
            listed.append(term)
        return moves

    def reading(call):
        def recording(term, *args):
            read.add(term)
            return call(term, *args)
        return recording

    with patch.object(search, "successor_edits", listing), \
            patch.object(search, "_applied", reading(_applied)), \
            patch.object(search, "_reached", reading(_reached)):
        fill_gap(source, goal, env, budget)
    return [term for term in listed if term not in read]


def test_fill_gap_lists_no_moves_on_a_three_hop_chain_that_it_does_not_read(bool_registry):
    # False, not(True), not(not(False)), not(not(and(False, True))): the
    # chain ends partway through its last layer, before the moves of the
    # layer's later terms are read.
    source, goal = t("False"), t("not(not(and(False, True)))")
    assert len(fill_gap(source, goal, StepEnv(bool_registry), SearchBudget(max_depth=3)).steps) == 3
    assert _unread_listings(source, goal, StepEnv(bool_registry), SearchBudget(max_depth=3)) == []


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(RULE_TERMS, st.sampled_from(ENVS), st.data())
def test_fill_gap_lists_no_moves_that_it_does_not_read(source, env, data):
    # The draws of ``test_layered_fill_gap_agrees_with_reference``: every
    # term whose moves are listed had them listed at once, as it may reach
    # the goal, or is the parent of a hop taken off a layer.
    goals = [data.draw(RULE_TERMS)]
    for _ in range(data.draw(st.integers(0, 3))):
        goal = source
        for _ in range(data.draw(st.integers(1, 2))):
            goal = data.draw(st.sampled_from(successor_moves(goal, env, SCOPE)))[1]
        goals.append(goal)
    max_depth = data.draw(st.integers(0, 3))
    nodes = st.integers(0, 40)
    if max_depth < 3:
        nodes |= st.just(SearchBudget().max_nodes)
    budget = SearchBudget(max_depth, data.draw(nodes))
    for goal in goals:
        assert _unread_listings(source, goal, env, budget) == []


# ------------------------------------------------- one judgement of a hop

#: Every name a ``via`` can cite in ``RULES_REGISTRY``, and one it cannot.
_CITABLE = sorted(RULES_REGISTRY.rules.named) + ["$nope"]


@st.composite
def _written_hops(draw):
    """(env, prev, next, clause): a hop from a term of ``RULE_TERMS`` to a
    successor move of it, now and then to a term of ``RULE_TERMS``, with
    no clause, the move's clause, a name a ``via`` may cite, or a case
    range of ``env``.  With a case range, ``next`` is an image under it of
    the move's result, a hop that ``check`` heals when it infers the move."""
    env, prev = draw(st.sampled_from(ENVS)), draw(RULE_TERMS)
    clause, next_term = draw(st.sampled_from(successor_moves(prev, env, SCOPE) or [(None, prev)]))
    if draw(st.integers(0, 4)) == 0:
        next_term = draw(RULE_TERMS)
    ranges = [CaseRangeJustification((q,)) for q in env.case_bindings]
    if len(env.case_bindings) > 1:
        ranges.append(CaseRangeJustification(env.case_bindings))
    kind = draw(st.sampled_from(["none", "move", "name"] + ["range"] * 2 * bool(ranges)))
    if kind == "none":
        clause = None
    elif kind == "name":
        clause = RuleJustification((draw(st.sampled_from(_CITABLE)),))
    elif kind == "range":
        clause = draw(st.sampled_from(ranges))
        next_term = draw(st.sampled_from(list(clause_images(next_term, clause, env)) or [next_term]))
    return env, prev, next_term, clause


_BOOLEAN = {"a": TypeExpr("Boolean"), "b": TypeExpr("Boolean")}


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_written_hops())
def test_repair_keeps_a_written_hop_exactly_when_check_accepts_it(hop):
    # Healed case-range hops included: ``fill`` used to rewrite them.
    env, prev, next_term, clause = hop
    step = ProofStep(1, next_term, clause)
    kept = search._repair_segment(prev, (step,), env, SearchBudget(2, 100)) == ([(next_term, clause, False)], None)
    thm = TheoremDecl("t", (), prev, next_term, LinearProof((ProofStep(0, prev), step)))
    check = _Verification(RULES_REGISTRY, thm, _BOOLEAN)
    check.verify_linear(prev, next_term, thm.proof.steps, env, ())
    errors = [d.code for d in check.diagnostics if d.severity is Severity.ERROR]
    assert set(errors) <= {"E-UNJUSTIFIED-STEP", "E-UNKNOWN-RULE"}
    assert kept == (not errors)
