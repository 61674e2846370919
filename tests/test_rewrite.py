"""Matching, substitution, single-rule clause results and step checking."""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from axiotome.diagnostics import Diagnostic
from axiotome.oracle import enumerable_domain, normalize
from axiotome.rewrite import (
    Direction, RewriteRule, RuleSource, StepEnv, StepVerdict, _applied, _case_sigma, _fork,
    _unjustified, _validate_case_bindings, apply_substitution, check_justified_step, clause_edits,
    infer_step_justification, match, positions, replace_at, resolve_rule, subterm_at,
)
from axiotome.search import successor_moves
from axiotome.syntax import (
    CaseRangeJustification, LinearProof, Quantifier, RuleJustification, Term,
    TypeExpr, format_justification, parse_term,
)
from axiotome.typesys import term_metavars

from conftest import (
    BOOL_FNS, ENVS, RULE_TERMS, RULES_REGISTRY, _applications, _case_results, _tuple_results,
    load_program, load_registry,
)


def t(source: str) -> Term:
    return parse_term(source)


# ---------------------------------------------------------------- matching

def test_match_binds_metavariables(full_registry):
    sigma = match(t("if(True, a, b)"), t("if(True, False, not(False))"), {"a", "b"})
    assert sigma == {"a": t("False"), "b": t("not(False)")}


def test_match_ground_pattern_gives_empty_substitution():
    assert match(t("not(False)"), t("not(False)"), set()) == {}


def test_match_nonlinear_pattern_requires_equal_subterms():
    assert match(t("and(a, a)"), t("and(False, True)"), {"a"}) is None
    assert match(t("and(a, a)"), t("and(False, False)"), {"a"}) == {"a": t("False")}


def test_match_treats_subject_metavariables_as_constants():
    # Non-unifying: a subject metavariable only matches itself.
    assert match(t("not(x)"), t("not(y)"), {"x"}) == {"x": t("y")}
    assert match(t("not(False)"), t("not(y)"), set()) is None


# ------------------------------------------------------------- substitution

def test_apply_substitution_examples():
    sigma = {"a": t("False")}
    assert apply_substitution(sigma, t("and(False, a)")) == t("and(False, False)")
    assert apply_substitution({}, t("and(False, a)")) == t("and(False, a)")
    sigma2 = {"a": t("True"), "b": t("False")}
    assert apply_substitution(sigma2, t("or(not(a), not(b))")) == t("or(not(True), not(False))")


def test_match_apply_inverse_over_corpus(bool_registry):
    # Whenever a corpus axiom side matches a corpus proof term, applying the
    # returned substitution to the pattern reproduces the subject exactly.
    program = load_program(*BOOL_FNS, "de_morgan_corrected.axm", "triple_negation.axm")
    subjects = []
    for stmt in program.statements:
        if hasattr(stmt, "proof"):
            def walk(body):
                if isinstance(body, LinearProof):
                    subjects.extend(s.term for s in body.steps)
                else:
                    for case in body.cases:
                        walk(case.body)
            walk(stmt.proof)
    patterns = []
    for axiom, owner in bool_registry.axioms.values():
        metavars = frozenset(bool_registry.axiom_metavars(axiom, owner))
        patterns.append((axiom.lhs, metavars))
        patterns.append((axiom.rhs, metavars))
    checked = 0
    for (pattern, metavars), subject in itertools.product(patterns, subjects):
        for _, sub in positions(subject):
            sigma = match(pattern, sub, metavars)
            if sigma is not None:
                assert apply_substitution(sigma, pattern) == sub
                checked += 1
    assert checked > 50


# --------------------------------------------------- single-rule results

def _built(prev, outcomes):
    """``clause_edits`` outcomes with each move's result built:
    (result, witness)."""
    if isinstance(outcomes, Diagnostic):
        return outcomes
    return [(_applied(prev, edits), witness) for edits, witness in outcomes]


def _single(term, registry, name):
    """The moves of the one-name clause ``name`` on ``term``, as
    (position, direction, result) per rewrite."""
    outcomes = _built(term, clause_edits(term, RuleJustification((name,)), StepEnv(registry)))
    return [(witness[0][0], witness[0][1].direction, result) for result, witness in outcomes]


def test_enumerate_forward_rewrite(bool_registry):
    assert _single(t("not(not(False))"), bool_registry, "$not°F") == [((0,), Direction.FORWARD, t("not(True)"))]


def test_enumerate_backward_rewrite_at_root(bool_registry):
    assert _single(t("True"), bool_registry, "$or°TT") == [((), Direction.BACKWARD, t("or(True, True)"))]


def test_enumerate_no_redex(bool_registry):
    assert _single(t("False"), bool_registry, "$not°F") == []


def test_positions_are_leftmost_outermost(bool_registry):
    hits = _single(t("and(not(False), not(False))"), bool_registry, "$not°F")
    assert [pos for pos, _, _ in hits] == [(0,), (1,)]


def test_position_soundness(bool_registry):
    # Results differ from the input only at or below the reported position.
    term = t("and(not(False), or(not(False), True))")
    for rule in bool_registry.rules.rules:  # the axioms: BOOL_FNS has no other rules
        for pos, _, result in _single(term, bool_registry, rule.name):
            for q, sub in positions(term):
                shorter = min(len(q), len(pos))
                if q[:shorter] != pos[:shorter] or len(q) < len(pos):
                    if q[:shorter] != pos[:shorter]:
                        assert subterm_at(result, q) == sub


# ------------------------------------------------------------ step checking

def test_single_rule_forward_step(bool_registry):
    env = StepEnv(bool_registry)
    verdict = check_justified_step(t("not(not(False))"), t("not(True)"),
                                   RuleJustification(("$not°F",)), env)
    assert verdict.justified
    pos, rule, sigma = verdict.witness[0]
    assert pos == (0,)
    assert rule.direction is Direction.FORWARD


def test_wrong_axiom_is_rejected(bool_registry):
    env = StepEnv(bool_registry)
    verdict = check_justified_step(t("not(not(False))"), t("not(True)"),
                                   RuleJustification(("$not°T",)), env)
    assert not verdict.justified
    assert verdict.failure.code == "E-UNJUSTIFIED-STEP"
    assert "$not°T" in verdict.failure.message


def test_tuple_needs_enough_positions(bool_registry):
    env = StepEnv(bool_registry)
    verdict = check_justified_step(t("True"), t("or(True, True)"),
                                   RuleJustification(("$not°F", "$not°F")), env)
    assert not verdict.justified


def test_tuple_applies_at_disjoint_positions(bool_registry):
    env = StepEnv(bool_registry)
    verdict = check_justified_step(t("or(True, True)"), t("or(not(False), not(False))"),
                                   RuleJustification(("$not°F", "$not°F")), env)
    assert verdict.justified
    assert sorted(pos for pos, _, _ in verdict.witness) == [(0,), (1,)]


def test_mixed_direction_tuple(bool_registry):
    env = StepEnv(bool_registry)
    # One forward and one backward application of different axioms.
    verdict = check_justified_step(t("or(not(False), False)"), t("or(True, not(True))"),
                                   RuleJustification(("$not°F", "$not°T")), env)
    assert verdict.justified


def test_case_range_introduction_and_elimination(bool_registry):
    env = StepEnv(bool_registry, (Quantifier("a", TypeExpr("False")),))
    clause = CaseRangeJustification((Quantifier("a", TypeExpr("False")),))
    assert check_justified_step(t("and(False, a)"), t("and(False, False)"), clause, env).justified
    assert check_justified_step(t("and(False, False)"), t("and(False, a)"), clause, env).justified


def test_case_range_apportions_equal_constants(bool_registry):
    bindings = (Quantifier("a", TypeExpr("False")), Quantifier("b", TypeExpr("False")))
    env = StepEnv(bool_registry, bindings)
    clause = CaseRangeJustification(bindings)
    # Occurrences of the shared constant may map to distinct variables in
    # any order that lines the terms up.
    assert check_justified_step(t("or(False, False)"), t("or(b, a)"), clause, env).justified
    assert check_justified_step(t("or(not(False), not(False))"), t("or(not(a), not(b))"),
                                clause, env).justified


def test_case_range_must_match_active_bindings(bool_registry):
    env = StepEnv(bool_registry, (Quantifier("a", TypeExpr("False")),))
    wrong = CaseRangeJustification((Quantifier("a", TypeExpr("True")),))
    verdict = check_justified_step(t("and(False, a)"), t("and(False, True)"), wrong, env)
    assert not verdict.justified
    missing = CaseRangeJustification((Quantifier("z", TypeExpr("False")),))
    assert not check_justified_step(t("and(False, a)"), t("and(False, a)"), missing, env).justified


def test_unknown_rule_name(bool_registry):
    env = StepEnv(bool_registry)
    verdict = check_justified_step(t("True"), t("False"), RuleJustification(("$nope",)), env)
    assert verdict.failure.code == "E-UNKNOWN-RULE"


def test_equational_function_name_is_not_a_rule(bool_registry):
    env = StepEnv(bool_registry)
    verdict = check_justified_step(t("not(False)"), t("True"), RuleJustification(("not",)), env)
    assert verdict.failure.code == "E-UNKNOWN-RULE"
    assert "axioms" in verdict.failure.message


def test_formulaic_unfolding(full_registry):
    env = StepEnv(full_registry)
    clause = RuleJustification(("doubleNegation",))
    assert check_justified_step(t("doubleNegation(False)"), t("not(not(False))"), clause, env).justified
    assert check_justified_step(t("not(not(False))"), t("doubleNegation(False)"), clause, env).justified


def test_theorem_as_rewrite_rule():
    registry = load_registry(*BOOL_FNS, "not_not_false_corrected.axm")
    env = StepEnv(registry)
    clause = RuleJustification(("notNotFalse",))
    assert check_justified_step(t("not(not(False))"), t("False"), clause, env).justified
    assert check_justified_step(t("and(not(not(False)), True)"), t("and(False, True)"),
                                clause, env).justified


def test_theorem_cannot_justify_itself():
    registry = load_registry(*BOOL_FNS, "not_not_false_corrected.axm")
    env = StepEnv(registry, current_theorem="notNotFalse")
    verdict = check_justified_step(t("not(not(False))"), t("False"),
                                   RuleJustification(("notNotFalse",)), env)
    assert verdict.failure.code == "E-UNKNOWN-RULE"


# ---------------------------------------------------------------- properties

def _corpus_steps(names):
    program = load_program(*names)
    collected = []

    def walk(body, bindings):
        if isinstance(body, LinearProof):
            prev = None
            for step in body.steps:
                if prev is not None and step.justification is not None:
                    collected.append((prev, step.term, step.justification, bindings))
                prev = step.term
        else:
            for case in body.cases:
                walk(case.body, bindings + case.ranges)

    for stmt in program.statements:
        if hasattr(stmt, "proof"):
            walk(stmt.proof, ())
    return collected


def test_direction_symmetry_on_corpus_steps(bool_registry):
    steps = _corpus_steps([*BOOL_FNS, "de_morgan_corrected.axm", "or_commutativity.axm",
                           "and_commutativity.axm"])
    assert len(steps) > 20
    for prev, nxt, clause, bindings in steps:
        env = StepEnv(bool_registry, bindings)
        forward = check_justified_step(prev, nxt, clause, env).justified
        backward = check_justified_step(nxt, prev, clause, env).justified
        assert forward == backward
        assert forward  # every corrected-corpus step is justified


def test_justified_steps_preserve_boolean_semantics(bool_registry):
    # Every justified corpus step denotes the same boolean function on both
    # sides, checked exhaustively over all assignments of its metavariables.
    # A case-bound metavariable ranges over its summand, a free one over
    # the full Boolean domain.
    steps = _corpus_steps([*BOOL_FNS, "de_morgan_corrected.axm", "triple_negation.axm"])
    booleans = enumerable_domain(TypeExpr("Boolean"), bool_registry).inhabitants
    checked = 0
    for prev, nxt, clause, bindings in steps:
        env = StepEnv(bool_registry, bindings)
        if not check_justified_step(prev, nxt, clause, env).justified:
            continue
        bound = {q.var: q.domain for q in bindings}
        metavars = sorted(term_metavars(prev, bool_registry) | term_metavars(nxt, bool_registry))
        domains = [
            enumerable_domain(bound.get(v, TypeExpr("Boolean")), bool_registry).inhabitants
            for v in metavars
        ]
        for combo in itertools.product(*domains):
            sigma = dict(zip(metavars, combo))
            left = normalize(apply_substitution(sigma, prev), bool_registry).normal_form
            right = normalize(apply_substitution(sigma, nxt), bool_registry).normal_form
            assert left == right
            checked += 1
    assert checked > 30


# ------------------------------------------- fork-site checks vs enumeration

def _reference_clause_results(prev, just, env):
    """The built ``clause_edits`` of ``just`` on ``prev`` by the reference
    enumerations, with witnesses: a case range by ``_case_results``, a
    tuple by ``_tuple_results``, and a single name by ``_applications``,
    every rewrite of ``prev`` by the rule forward, then backward, each
    leftmost-outermost."""
    if isinstance(just, CaseRangeJustification):
        bad = _validate_case_bindings(just, env)
        return bad if bad is not None else _case_results(prev, just, env)
    rules = [resolve_rule(name, env) for name in just.names]
    bad = next((rule for rule in rules if isinstance(rule, Diagnostic)), None)
    if bad is not None:
        return bad
    if len(rules) > 1:
        return list(_tuple_results(prev, just.names, env.registry.rules))
    return [(res, ((pos, oriented, dict(sigma)),)) for oriented in (rules[0], rules[0].reversed())
            for pos, res, sigma in _applications(prev, oriented)]


def _reference_check_justified_step(prev, next_term, just, env):
    """``check_justified_step`` by enumerating every result of the clause
    through ``_reference_clause_results``."""
    if isinstance(just, CaseRangeJustification):
        bad = _validate_case_bindings(just, env)
        if bad is not None:
            return StepVerdict(False, failure=bad)
        sigma = _case_sigma(just.bindings)
        if apply_substitution(sigma, prev) == next_term or apply_substitution(sigma, next_term) == prev:
            rule = RewriteRule(format_justification(just), RuleSource.CASE_RANGE, prev, next_term)
            return StepVerdict(True, witness=(((), rule, dict(sigma)),))
        return StepVerdict(False, failure=_unjustified(prev, next_term, just))

    outcomes = _reference_clause_results(prev, just, env)
    if isinstance(outcomes, Diagnostic):
        return StepVerdict(False, failure=outcomes)
    for res, witness in outcomes:
        if res == next_term:
            return StepVerdict(True, witness=witness)
    return StepVerdict(False, failure=_unjustified(prev, next_term, just))


def _reference_infer_step_justification(prev, next_term, env):
    """``infer_step_justification`` by building every rewrite of ``prev``
    by each citable rule, in preference order, one direction at a time."""
    rules = env.registry.rules
    found = None
    for rule in rules.rules:
        if rules.named.get(rule.name) is not rule \
                or rule.source is RuleSource.THEOREM and rule.name == env.current_theorem:
            continue
        found = next((oriented for oriented in (rule, rule.reversed())
                      if any(result == next_term for _, result, _ in _applications(prev, oriented))), None)
        if found is not None:
            break
    if found is not None and found.source is RuleSource.AXIOM:
        return RuleJustification((found.name,))
    clauses = [CaseRangeJustification((binding,)) for binding in env.case_bindings]
    if len(env.case_bindings) > 1:
        clauses.append(CaseRangeJustification(env.case_bindings))
    for clause in clauses:
        if _reference_check_justified_step(prev, next_term, clause, env).justified:
            return clause
    return None if found is None else RuleJustification((found.name,))


#: Every citable name, the equational functions' names, names no
#: declaration has, and the theorems ``ENVS`` prove (self-citations).
NAMES = sorted({rule.name for rule in RULES_REGISTRY.rules.rules} | set(RULES_REGISTRY.functions)
               | {"$nope", "nope"} | {env.current_theorem for env in ENVS if env.current_theorem})


def _draw_nexts(prev, env, data):
    """Terms to check a step from ``prev`` to: ``prev`` itself, ``prev``
    with one subterm replaced by a random term, that term, and one
    successor move each of ``prev`` and of that term."""
    scope = frozenset({"a", "b"})
    other = data.draw(RULE_TERMS)
    pos, _ = data.draw(st.sampled_from(positions(prev)))
    nexts = [prev, replace_at(prev, pos, other), other]
    for source in (prev, other):
        # Moves by every rule, the theorem ``env`` proves included.
        moves = successor_moves(source, StepEnv(env.registry, env.case_bindings), scope)
        if moves:
            nexts.append(data.draw(st.sampled_from(moves))[1])
    return nexts


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(RULE_TERMS, st.sampled_from(ENVS), st.data())
def test_fork_checks_agree_with_enumeration(prev, env, data):
    nexts = _draw_nexts(prev, env, data)
    for name in NAMES:
        clause = RuleJustification((name,))
        assert _built(prev, clause_edits(prev, clause, env)) == _reference_clause_results(prev, clause, env)
    for next_term in nexts:
        for name in NAMES:
            clause = RuleJustification((name,))
            assert check_justified_step(prev, next_term, clause, env) \
                == _reference_check_justified_step(prev, next_term, clause, env)
        assert infer_step_justification(prev, next_term, env) \
            == _reference_infer_step_justification(prev, next_term, env)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(RULE_TERMS, st.sampled_from(ENVS), st.lists(st.sampled_from(NAMES), min_size=2, max_size=3), st.data())
def test_tuple_and_case_edits_agree_with_enumeration(prev, env, names, data):
    # Tuples of 2-3 names, and each case binding of ``env`` alone, then all
    # of them.
    clauses = [RuleJustification(tuple(names))]
    clauses += [CaseRangeJustification((binding,)) for binding in env.case_bindings]
    if env.case_bindings:
        clauses.append(CaseRangeJustification(env.case_bindings))
    nexts = _draw_nexts(prev, env, data)
    for clause in clauses:
        assert _built(prev, clause_edits(prev, clause, env)) == _reference_clause_results(prev, clause, env)
        for next_term in nexts:
            assert check_justified_step(prev, next_term, clause, env) \
                == _reference_check_justified_step(prev, next_term, clause, env)


def _nots(k: int, leaf: str) -> Term:
    term = Term(leaf)
    for _ in range(k):
        term = Term("not", (), (term,))
    return term


def test_deep_not_chain_hop_in_both_directions(bool_registry):
    env = StepEnv(bool_registry)
    clause = RuleJustification(("$not°F",))
    deep, shallow = _nots(200, "False"), _nots(199, "True")
    forward = check_justified_step(deep, shallow, clause, env)
    backward = check_justified_step(shallow, deep, clause, env)
    assert forward == _reference_check_justified_step(deep, shallow, clause, env)
    assert backward == _reference_check_justified_step(shallow, deep, clause, env)
    assert [(pos, rule.direction) for pos, rule, _ in forward.witness] == [((0,) * 199, Direction.FORWARD)]
    assert [(pos, rule.direction) for pos, rule, _ in backward.witness] == [((0,) * 199, Direction.BACKWARD)]
    assert infer_step_justification(deep, shallow, env) == clause
    assert infer_step_justification(shallow, deep, env) == clause
    assert not check_justified_step(deep, _nots(198, "True"), clause, env).justified


def test_positions_and_replace_at_reach_depth_5000():
    # Both walk with explicit stacks.  Results are read back with
    # ``subterm_at``, because ``Term.__eq__`` still recurses.
    deep = _nots(5000, "False")
    found = positions(deep)
    assert len(found) == 5001
    assert [len(path) for path, _ in found] == list(range(5001))
    bottom = (0,) * 5000
    assert found[-1][0] == bottom and subterm_at(deep, bottom) is found[-1][1]
    assert found[-1][1].head == "False"
    replaced = replace_at(deep, bottom, Term("True"))
    assert subterm_at(replaced, bottom).head == "True"
    assert subterm_at(replaced, bottom[1:]).head == "not"
    assert subterm_at(deep, bottom).head == "False"


def test_subterm_at_is_none_off_the_term():
    term = t("and(not(False), True)")
    assert subterm_at(term, (0, 0)) == t("False")
    assert subterm_at(term, (2,)) is None
    assert subterm_at(term, (1, 0)) is None
    assert subterm_at(term, (0, 0, 0)) is None


def test_fork_is_the_deepest_position_outside_which_terms_agree():
    assert _fork(t("and(not(not(False)), True)"), t("and(not(not(False)), True)")) is None
    assert _fork(t("and(not(not(False)), True)"), t("and(not(True), True)")) == (0, 0)
    assert _fork(t("and(not(False), True)"), t("and(True, False)")) == ()
    assert _fork(t("not(or(a, b))"), t("not(or(b, a))")) == (0,)
    assert _fork(t("not(False)"), t("and(False, False)")) == ()
    nil = Term("Nil", (TypeExpr("Boolean"),))
    assert _fork(Term("cons", (), (t("a"), nil)), Term("cons", (), (t("a"), Term("Nil", (TypeExpr("Unit"),))))) \
        == (1,)


def test_step_to_an_equal_term_tries_every_position():
    swap = ("theorem ¶swap: ∀a ∈ Boolean, ∀b ∈ Boolean: or(a, b) ↔ or(b, a)\n"
            "proof\n  0. or(a, b)\n  1. or(b, a) via swap\n")
    env = StepEnv(load_registry(*BOOL_FNS, extra=swap))
    clause = RuleJustification(("swap",))
    term = t("not(or(a, a))")
    verdict = check_justified_step(term, term, clause, env)
    assert verdict == _reference_check_justified_step(term, term, clause, env)
    assert [pos for pos, _, _ in verdict.witness] == [(0,)]
    assert infer_step_justification(term, term, env) == clause


def test_inference_prefers_rule_rank_over_site():
    # ``$pick°F`` certifies the step at the root, ``$pick°L`` (declared
    # first) one level down; the earlier rule wins, as in enumeration.
    env = ENVS[0]
    prev, next_term = t("pick(False, pick(False, False))"), t("pick(False, False)")
    assert infer_step_justification(prev, next_term, env) == RuleJustification(("$pick°L",)) \
        == _reference_infer_step_justification(prev, next_term, env)


def test_inference_skips_the_theorem_being_proved():
    prev, next_term = t("not(and(a, b))"), t("or(not(a), not(b))")
    assert infer_step_justification(prev, next_term, ENVS[0]) == RuleJustification(("deMorgan1",))
    assert infer_step_justification(prev, next_term, StepEnv(RULES_REGISTRY, (), "deMorgan1")) is None
