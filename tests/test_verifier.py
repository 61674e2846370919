"""Theorem verification: the worked proofs, case handling and soundness."""

from __future__ import annotations

from unittest import mock

from axiotome import rewrite
from axiotome.oracle import brute_force_validate, enumerable_domain
from axiotome.rewrite import StepEnv, check_justified_step
from axiotome.syntax import (
    ByCasesProof, CaseBlock, LinearProof, ProofStep, Quantifier,
    RuleJustification, Term, TheoremDecl, TypeExpr, parse_program, parse_term,
)
from axiotome.verifier import check_case_coverage, effective_quantifiers, enter_case, verify_theorem

from conftest import BOOL_FNS, CORE, load_registry


def t(source: str) -> Term:
    return parse_term(source)


def _theorem(registry, name):
    return registry.theorems[name]


def _verify_fixture(fixture: str, *, base: list[str] | None = None):
    registry = load_registry(*(base or BOOL_FNS), fixture)
    reports = [verify_theorem(thm, registry) for thm in registry.theorems.values()]
    assert len(reports) == 1
    return reports[0]


def _errors(report):
    return [d for d in report.diagnostics if d.severity.value == "error"]


def _warnings(report):
    return [d for d in report.diagnostics if d.severity.value == "warning"]


# ------------------------------------------------------------ whole theorems

def test_corrected_not_not_false_is_accepted():
    report = _verify_fixture("not_not_false_corrected.axm")
    assert report.accepted
    assert report.diagnostics == ()


def test_faulty_not_not_false_is_rejected_at_step_one():
    report = _verify_fixture("not_not_false_faulty.axm")
    assert not report.accepted
    errors = _errors(report)
    assert len(errors) == 1
    assert errors[0].code == "E-UNJUSTIFIED-STEP"
    assert "$not°T" in errors[0].message and "step 1" in errors[0].message


def test_original_de_morgan_rejected_once_per_case():
    report = _verify_fixture("de_morgan_original.axm")
    assert not report.accepted
    errors = _errors(report)
    assert len(errors) == 4
    assert all(d.code == "E-UNJUSTIFIED-STEP" for d in errors)
    assert all("step 4" in d.message for d in errors)
    # Nothing else is wrong with the proof: coverage and endpoints hold.
    assert len(report.diagnostics) == 4


def test_corrected_de_morgan_is_accepted():
    report = _verify_fixture("de_morgan_corrected.axm")
    assert report.accepted and report.diagnostics == ()


def test_triple_negation_is_accepted_with_inferred_insertions():
    report = _verify_fixture("triple_negation.axm")
    assert report.accepted
    # Each case fuses a final rewrite into its closing constant elimination;
    # the verifier inserts one inferred hop per case and says so.
    warnings = _warnings(report)
    assert len(warnings) == 2
    assert all(d.code == "W-INFERRED-VIA" for d in warnings)
    assert len(report.inferred_justifications) == 2


def test_nested_or_commutativity_is_accepted():
    report = _verify_fixture("or_commutativity.axm")
    assert report.accepted
    codes = [d.code for d in report.diagnostics]
    assert codes.count("W-IMPLICIT-QUANTIFIER") == 2


def test_nested_and_commutativity_is_accepted():
    report = _verify_fixture("and_commutativity.axm")
    assert report.accepted


def test_core_module_theorems_verify(core_registry):
    for thm in core_registry.theorems.values():
        report = verify_theorem(thm, core_registry)
        assert report.accepted, (thm.name, [d.message for d in report.diagnostics])


def test_via_less_step_is_inferred_with_warning(core_registry):
    report = verify_theorem(_theorem(core_registry, "notNotFalse"), core_registry)
    assert report.accepted
    inferred = report.inferred_justifications
    assert len(inferred) == 1
    assert inferred[0].step_index == 2
    assert inferred[0].clause == "$not°T"


# ------------------------------------------------------------ linear proofs

def _linear(lhs: str, rhs: str, steps, registry):
    """Diagnostics of ``verify_theorem`` on ``lhs ↔ rhs`` proved by ``steps``."""
    thm = TheoremDecl("t", (), t(lhs), t(rhs), LinearProof(steps))
    return list(verify_theorem(thm, registry).diagnostics)


def test_single_reflexive_step_is_accepted(bool_registry):
    steps = (ProofStep(0, t("not(False)")),)
    diags = _linear("not(False)", "not(False)", steps, bool_registry)
    assert diags == []


def test_gap_in_numbering_is_diagnosed(bool_registry):
    steps = (ProofStep(0, t("not(False)")), ProofStep(2, t("True"), RuleJustification(("$not°F",))))
    diags = _linear("not(False)", "True", steps, bool_registry)
    assert any(d.code == "E-STEP-NUMBERING" for d in diags)


def test_premiss_with_justification_is_diagnosed(bool_registry):
    steps = (ProofStep(0, t("not(False)"), RuleJustification(("$not°F",))),)
    diags = _linear("not(False)", "not(False)", steps, bool_registry)
    assert any(d.code == "E-PREMISS-MISMATCH" for d in diags)


def test_endpoint_mismatch_is_diagnosed(bool_registry):
    steps = (ProofStep(0, t("not(False)")), ProofStep(1, t("True"), RuleJustification(("$not°F",))))
    diags = _linear("not(False)", "False", steps, bool_registry)
    assert [d.code for d in diags] == ["E-ENDPOINT-MISMATCH"]


def test_hop_checking_stops_at_first_failure(bool_registry):
    # Both hops are wrong, but only the first is reported.
    steps = (
        ProofStep(0, t("not(False)")),
        ProofStep(1, t("False"), RuleJustification(("$not°F",))),
        ProofStep(2, t("or(True, True)"), RuleJustification(("$not°F",))),
    )
    diags = _linear("not(False)", "or(True, True)", steps, bool_registry)
    assert [d.code for d in diags] == ["E-UNJUSTIFIED-STEP"]
    assert "step 1" in diags[0].message


# ------------------------------------------------------------------ coverage

def _cases_over(*combos, subjects=("a", "b")):
    boolean = TypeExpr("Boolean")
    blocks = []
    for combo in combos:
        ranges = tuple(Quantifier(s, TypeExpr(v)) for s, v in zip(subjects, combo))
        blocks.append(CaseBlock(None, ranges, None, LinearProof((ProofStep(0, t("a")),))))
    return tuple(blocks)


def test_full_cartesian_coverage_passes(bool_registry):
    decomposition = (TypeExpr("Boolean"), (TypeExpr("False"), TypeExpr("True")))
    cases = _cases_over(("False", "False"), ("False", "True"), ("True", "False"), ("True", "True"))
    assert check_case_coverage(decomposition, ("a", "b"), cases, bool_registry) == []


def test_missing_combination_is_reported(bool_registry):
    decomposition = (TypeExpr("Boolean"), (TypeExpr("False"), TypeExpr("True")))
    cases = _cases_over(("False", "False"), ("False", "True"), ("True", "False"))
    diags = check_case_coverage(decomposition, ("a", "b"), cases, bool_registry)
    assert len(diags) == 1
    assert diags[0].code == "E-COVERAGE" and "True, True" in diags[0].message


def test_duplicate_combination_is_reported(bool_registry):
    decomposition = (TypeExpr("Boolean"), (TypeExpr("False"), TypeExpr("True")))
    cases = _cases_over(("False", "False"), ("False", "False"),
                        ("False", "True"), ("True", "False"), ("True", "True"))
    diags = check_case_coverage(decomposition, ("a", "b"), cases, bool_registry)
    assert any("duplicate" in d.message for d in diags)


def test_decomposition_mismatch_is_reported(bool_registry):
    decomposition = (TypeExpr("Boolean"), (TypeExpr("False"), TypeExpr("False")))
    cases = _cases_over(("False", "False"))
    diags = check_case_coverage(decomposition, ("a", "b"), cases, bool_registry)
    assert diags[0].code == "E-COVERAGE" and "decomposition" in diags[0].message


def test_non_sum_scrutinee_is_reported(bool_registry):
    decomposition = (TypeExpr("False"), (TypeExpr("False"),))
    diags = check_case_coverage(decomposition, ("a",), _cases_over(("False",), subjects=("a",)),
                                bool_registry)
    assert diags and diags[0].code == "E-COVERAGE"


# ---------------------------------------------------------------- enter_case

def test_unsubstituted_premiss_is_accepted(bool_registry):
    case = CaseBlock(None, (Quantifier("a", TypeExpr("False")),), None,
                     LinearProof((ProofStep(0, t("and(False, a)")),)))
    case_env, diags = enter_case(case, t("and(False, a)"), t("False"), StepEnv(bool_registry))
    assert diags == []
    assert [q.var for q in case_env.case_bindings] == ["a"]
    src = (
        "theorem ¶t: ∀a ∈ Boolean: and(False, a) ↔ False\n"
        "proof by cases of a using Boolean = False U True\n"
        "case ∀a ∈ False:\n  0. and(False, a)\n  1. and(False, False) via ∀a ∈ False\n"
        "  2. False via $and°FF\n"
        "case ∀a ∈ True:\n  0. and(False, a)\n  1. and(False, True) via ∀a ∈ True\n"
        "  2. False via $and°FT\n"
    )
    assert verify_theorem(parse_program(src).statements[0], bool_registry).accepted


def test_restated_assertion_must_match(bool_registry):
    ranges = (Quantifier("a", TypeExpr("False")),)
    good = CaseBlock("A", ranges, (t("or(a, b)"), t("or(b, a)")),
                     LinearProof((ProofStep(0, t("or(a, b)")),)))
    _, diags = enter_case(good, t("or(a, b)"), t("or(b, a)"), StepEnv(bool_registry))
    assert diags == []
    bad = CaseBlock("A", ranges, (t("or(a, b)"), t("or(a, b)")),
                    LinearProof((ProofStep(0, t("or(a, b)")),)))
    _, diags = enter_case(bad, t("or(a, b)"), t("or(b, a)"), StepEnv(bool_registry))
    assert [d.code for d in diags] == ["E-RESTATEMENT"]


def test_presubstituted_premiss_is_accepted():
    src = (
        "theorem ¶t: ∀a ∈ Boolean: and(False, a) ↔ False\n"
        "proof by cases of a using Boolean = False U True\n"
        "case ∀a ∈ False:\n  0. and(False, False)\n  1. False via $and°FF\n"
        "case ∀a ∈ True:\n  0. and(False, True)\n  1. False via $and°FT\n"
    )
    registry = load_registry(*BOOL_FNS)
    thm = parse_program(src).statements[0]
    assert verify_theorem(thm, registry).accepted


def test_wrong_premiss_is_diagnosed():
    src = (
        "theorem ¶t: ∀a ∈ Boolean: and(False, a) ↔ False\n"
        "proof by cases of a using Boolean = False U True\n"
        "case ∀a ∈ False:\n  0. and(True, a)\n  1. False via $and°FF\n"
        "case ∀a ∈ True:\n  0. and(False, True)\n  1. False via $and°FT\n"
    )
    registry = load_registry(*BOOL_FNS)
    report = verify_theorem(parse_program(src).statements[0], registry)
    assert not report.accepted
    assert any(d.code == "E-PREMISS-MISMATCH" for d in report.diagnostics)


def test_presubstituted_endpoint_is_accepted():
    # A case may end at the right-hand side with the case's constants still
    # in place instead of restoring the metavariables.
    src = (
        "theorem ¶t: ∀a ∈ Boolean: not(not(a)) ↔ a\n"
        "proof by cases of a using Boolean = False U True\n"
        "case ∀a ∈ False:\n  0. not(not(a))\n  1. not(not(False)) via ∀a ∈ False\n"
        "  2. not(True) via $not°F\n  3. False via $not°T\n"
        "case ∀a ∈ True:\n  0. not(not(a))\n  1. not(not(True)) via ∀a ∈ True\n"
        "  2. not(False) via $not°T\n  3. True via $not°F\n"
    )
    registry = load_registry(*BOOL_FNS)
    assert verify_theorem(parse_program(src).statements[0], registry).accepted


# ----------------------------------------------------------------- nesting

def _flattened_or_commutativity() -> str:
    return (
        "theorem ¶orCommutatesFlat: ∀a ∈ Boolean, ∀b ∈ Boolean: or(a, b) ↔ or(b, a)\n"
        "proof by cases of (a, b) using Boolean = False U True\n"
        "  case ∀a ∈ False, ∀b ∈ False:\n"
        "    0. or(a, b)\n"
        "    1. or(False, False) via (∀a ∈ False, ∀b ∈ False)\n"
        "    2. or(b, a) via (∀a ∈ False, ∀b ∈ False)\n"
        "  case ∀a ∈ False, ∀b ∈ True:\n"
        "    0. or(a, b)\n"
        "    1. or(False, True) via (∀a ∈ False, ∀b ∈ True)\n"
        "    2. True via $or°FT\n"
        "    3. or(True, False) via $or°TF\n"
        "    4. or(b, a) via (∀a ∈ False, ∀b ∈ True)\n"
        "  case ∀a ∈ True, ∀b ∈ False:\n"
        "    0. or(a, b)\n"
        "    1. or(True, False) via (∀a ∈ True, ∀b ∈ False)\n"
        "    2. True via $or°TF\n"
        "    3. or(False, True) via $or°FT\n"
        "    4. or(b, a) via (∀a ∈ True, ∀b ∈ False)\n"
        "  case ∀a ∈ True, ∀b ∈ True:\n"
        "    0. or(a, b)\n"
        "    1. or(True, True) via (∀a ∈ True, ∀b ∈ True)\n"
        "    2. or(b, a) via (∀a ∈ True, ∀b ∈ True)\n"
    )


def test_nested_proof_equals_flattened_cartesian_form():
    registry = load_registry(*BOOL_FNS, "or_commutativity.axm")
    nested = verify_theorem(registry.theorems["or°Commutates"], registry)
    flat_thm = parse_program(_flattened_or_commutativity()).statements[0]
    flat = verify_theorem(flat_thm, registry)
    assert nested.accepted and flat.accepted
    assert not _errors(nested) and not _errors(flat)


# ------------------------------------------------------- implicit quantifiers

def test_implicit_quantifiers_come_from_case_subjects():
    registry = load_registry(*BOOL_FNS, "or_commutativity.axm")
    thm = registry.theorems["or°Commutates"]
    quantifiers, diags = effective_quantifiers(thm, registry)
    assert [(q.var, q.domain.name) for q in quantifiers] == [("a", "Boolean"), ("b", "Boolean")]
    assert all(d.code == "W-IMPLICIT-QUANTIFIER" for d in diags)


def test_unbound_assertion_metavariable_is_an_error(bool_registry):
    thm = parse_program("theorem ¶t: not(x) ↔ x\nproof\n  0. not(x)\n").statements[0]
    report = verify_theorem(thm, bool_registry)
    assert not report.accepted
    assert any(d.code == "E-UNRESOLVED" for d in report.diagnostics)


# ------------------------------------------------------------------ soundness

def _accepted_corpus_theorems():
    fixtures = [
        ("not_not_false_corrected.axm", BOOL_FNS),
        ("de_morgan_corrected.axm", BOOL_FNS),
        ("or_commutativity.axm", BOOL_FNS),
        ("and_commutativity.axm", BOOL_FNS),
        ("triple_negation.axm", BOOL_FNS),
        ("and_left_false_theorem.axm", CORE[:-2] + ["not_not_false_theorem.axm"]),
    ]
    for fixture, base in fixtures:
        registry = load_registry(*base, fixture)
        for thm in registry.theorems.values():
            report = verify_theorem(thm, registry)
            if report.accepted:
                yield thm, registry


def test_every_accepted_finite_theorem_is_oracle_valid():
    seen = 0
    for thm, registry in _accepted_corpus_theorems():
        quantifiers, _ = effective_quantifiers(thm, registry)
        if any(not enumerable_domain(q.domain, registry).finite for q in quantifiers):
            continue
        verdict = brute_force_validate(
            [(q.var, q.domain) for q in quantifiers], thm.lhs, thm.rhs, registry,
        )
        assert verdict.status == "valid", thm.name
        seen += 1
    assert seen >= 6


def _mutate_rule_names(body, pool, mutations, path=()):
    """Yield (path, step index, original clause, mutated clause) choices."""
    if isinstance(body, LinearProof):
        for step in body.steps:
            just = step.justification
            if isinstance(just, RuleJustification):
                for i, name in enumerate(just.names):
                    if not name.startswith("$"):
                        continue
                    for replacement in pool:
                        if replacement != name:
                            names = just.names[:i] + (replacement,) + just.names[i + 1:]
                            mutations.append((path, step.index, just,
                                              RuleJustification(names, just.span)))
    else:
        for case in body.cases:
            _mutate_rule_names(case.body, pool, mutations, path + (id(case),))


def _replace_justification(body, target, replacement):
    if isinstance(body, LinearProof):
        steps = tuple(
            ProofStep(s.index, s.term, replacement if s.justification is target else s.justification, s.span)
            for s in body.steps
        )
        return LinearProof(steps)
    cases = tuple(
        CaseBlock(c.label, c.ranges, c.restated,
                  _replace_justification(c.body, target, replacement), c.span)
        for c in body.cases
    )
    return ByCasesProof(body.subjects, body.scrutinee, body.stated_summands, cases)


def test_mutation_soundness():
    # Replacing any single axiom name in an accepted proof with any other
    # corpus axiom name is rejected, unless the justified-step checker
    # independently certifies the mutated step.
    registry_pool = load_registry(*BOOL_FNS, "if_function.axm")
    pool = sorted(registry_pool.axioms)
    rejected = 0
    independently_fine = 0
    for thm, registry in _accepted_corpus_theorems():
        mutations: list = []
        _mutate_rule_names(thm.proof, pool, mutations)
        for _, _, original, mutated in mutations:
            patched = TheoremDecl(
                thm.name, thm.quantifiers, thm.lhs, thm.rhs,
                _replace_justification(thm.proof, original, mutated), thm.span,
            )
            report = verify_theorem(patched, registry)
            if report.accepted:
                # The certifier, not the original text, is the arbiter: the
                # mutation must itself check at the step it replaced.
                ok = _mutation_checks_somewhere(patched.proof, mutated, registry)
                assert ok, (thm.name, mutated.names)
                independently_fine += 1
            else:
                rejected += 1
    assert rejected > 200


def _mutation_checks_somewhere(body, mutated, registry, bindings=()):
    if isinstance(body, LinearProof):
        prev = None
        for step in body.steps:
            if step.justification is mutated and prev is not None:
                env = StepEnv(registry, bindings)
                if check_justified_step(prev, step.term, mutated, env).justified:
                    return True
            prev = step.term
        return False
    return any(
        _mutation_checks_somewhere(c.body, mutated, registry, bindings + c.ranges)
        for c in body.cases
    )


# --------------------------------------------------------------- work counts

def _dn_and_chain(hops: int) -> tuple[str, int]:
    """A file shaped like a check-proofs job of the benchmark: the
    double-negation theorem by cases, and a ``hops``-hop chain from
    ``not^hops(False)`` down to its value, reduced from the inside out.
    Every seventh hop cites the theorem for two ``not``s at once, and
    every third other hop has no ``via``.  Also the number of hops."""
    def nots(k: int, base: str) -> str:
        return "not(" * k + base + ")" * k

    case = ["0. not(not(p))", "1. not(not({c})) via ∀p ∈ {c}", "2. not({d}) via $not°{c0}",
            "3. {c} via $not°{d0}", "4. p via ∀p ∈ {c}"]
    lines = ["theorem ¶dn: ∀p ∈ Boolean: not(not(p)) ↔ p", "proof by cases of p using Boolean = False U True"]
    for c, d in (("False", "True"), ("True", "False")):
        lines.append(f"  case ∀p ∈ {c}:")
        lines += ["    " + step.format(c=c, d=d, c0=c[0], d0=d[0]) for step in case]
    steps, depth, base = [nots(hops, "False")], hops, "False"
    while depth:
        i = len(steps)
        if i % 7 == 0 and depth >= 2:
            depth -= 2
            steps.append(f"{nots(depth, base)} via ¶dn")
            continue
        via = "" if i % 3 == 0 else f" via $not°{base[0]}"
        base = "True" if base == "False" else "False"
        depth -= 1
        steps.append(nots(depth, base) + via)
    lines += [f"theorem ¶chain: {steps[0]} ↔ {base}", "proof"]
    lines += [f"  {i}. {step}" for i, step in enumerate(steps)]
    return "\n".join(lines) + "\n", 8 + len(steps) - 1


def test_each_hop_is_matched_a_few_times_only():
    # A hop is checked, or inferred, by probing each rule only where its
    # reach lets it make the hop: one or two ``match`` calls per hop, where
    # probing every ancestor of the fork took about nine on the benchmark.
    text, hops = _dn_and_chain(60)
    registry = load_registry(*BOOL_FNS, extra=text)
    with mock.patch.object(rewrite, "match", wraps=rewrite.match) as matched:
        reports = [verify_theorem(thm, registry) for thm in registry.theorems.values()]
    assert [(r.theorem, r.accepted) for r in reports] == [("dn", True), ("chain", True)]
    assert len(reports[1].inferred_justifications) > 10
    assert matched.call_count <= 3 * hops
