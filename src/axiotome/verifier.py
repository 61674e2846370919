"""Theorem verification: quantifiers, linear proofs and proof by cases.

A proof is accepted when its premiss matches the asserted left-hand side,
every step transition is justified (or inferable, see below), the final term
matches the right-hand side, and case proofs decompose a declared sum and
cover the full cartesian product of summands over their subjects exactly
once.

Steps without a ``via`` clause get a single-step inference attempt and a
W-INFERRED-VIA warning when it succeeds.  A step whose case-range clause
does not check on its own gets one extra inferred hop before the stated
range (proofs in the wild fuse a final rewrite into the closing constant
elimination); the same warning records the insertion.  Hop checking stops
at the first unjustified transition of a (sub)proof, so one defective case
yields exactly one error; premiss, endpoint and coverage checks still run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .diagnostics import Diagnostic, DiagnosticError, Severity, error, warning
from .rewrite import (
    StepEnv, _applied, _case_sigma, apply_substitution, check_justified_step, clause_edits,
    infer_step_justification,
)
from .syntax import (
    ByCasesProof, CaseBlock, CaseRangeJustification, LinearProof, ProofBody,
    ProofStep, Quantifier, SumBody, Term, TheoremDecl, TypeExpr,
    format_justification, format_quantifier, format_term, format_type,
)
from .typesys import (
    Registry, TypingContext, infer_type, join_types, substitute_type, term_metavars,
)


@dataclass(frozen=True)
class InferredVia:
    case_path: tuple[str, ...]
    step_index: int
    clause: str


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    accepted: bool
    diagnostics: tuple[Diagnostic, ...] = ()
    inferred_justifications: tuple[InferredVia, ...] = ()

    @property
    def status(self) -> str:
        return "accepted" if self.accepted else "rejected"


def _case_label(case: CaseBlock) -> str:
    ranges = ", ".join(format_quantifier(q) for q in case.ranges)
    if case.label:
        return f"case {case.label}: {ranges}"
    return f"case {ranges}"


def effective_quantifiers(thm: TheoremDecl, registry: Registry) -> tuple[list[Quantifier], list[Diagnostic]]:
    """Explicit quantifiers plus implicit ones for assertion metavariables
    that are bound only by a ``proof by cases of`` subject."""
    quantifiers = list(thm.quantifiers)
    explicit = {q.var for q in quantifiers}
    assertion_vars = term_metavars(thm.lhs, registry) | term_metavars(thm.rhs, registry)
    subject_types: dict[str, TypeExpr] = {}

    def collect(body: ProofBody) -> None:
        if isinstance(body, ByCasesProof):
            for subject in body.subjects:
                subject_types.setdefault(subject, body.scrutinee)
            for case in body.cases:
                collect(case.body)

    collect(thm.proof)
    diags: list[Diagnostic] = []
    for var in sorted(assertion_vars - explicit):
        ty = subject_types.get(var)
        if ty is None:
            diags.append(error(
                "E-UNRESOLVED",
                f"metavariable {var!r} in the assertion of ¶{thm.name} is not quantified",
                thm.span,
            ))
            continue
        quantifiers.append(Quantifier(var, ty, thm.span))
        diags.append(warning(
            "W-IMPLICIT-QUANTIFIER",
            f"metavariable {var!r} is implicitly quantified over {format_type(ty)}",
            thm.span,
        ))
    return quantifiers, diags


def check_case_coverage(decomposition: tuple[TypeExpr, tuple[TypeExpr, ...]],
                        subjects: tuple[str, ...], cases: tuple[CaseBlock, ...],
                        registry: Registry) -> list[Diagnostic]:
    """The stated summands must equal the registered sum's summand set, and
    the cases' range tuples must cover the full cartesian product over the
    subjects exactly once."""
    scrutinee, stated = decomposition
    diags: list[Diagnostic] = []
    decl = registry.types.get(scrutinee.name)
    if decl is None or not isinstance(decl.body, SumBody):
        diags.append(error(
            "E-COVERAGE", f"{format_type(scrutinee)} is not a declared sum type", scrutinee.span,
        ))
        return diags
    bindings = dict(zip(decl.params, scrutinee.args))
    declared = [substitute_type(s, bindings) for s in decl.body.summands]
    if sorted(format_type(s) for s in stated) != sorted(format_type(s) for s in declared):
        diags.append(error(
            "E-COVERAGE",
            f"decomposition states {format_type(scrutinee)} = "
            f"{' U '.join(format_type(s) for s in stated)}, but the declaration has "
            f"summands {', '.join(format_type(s) for s in declared)}",
            scrutinee.span,
        ))
        return diags

    seen: dict[tuple[str, ...], CaseBlock] = {}
    for case in cases:
        ranged = {q.var: q.domain for q in case.ranges}
        if set(ranged) != set(subjects):
            diags.append(error(
                "E-COVERAGE",
                f"{_case_label(case)} must range over exactly the subjects "
                f"({', '.join(subjects)})",
                case.span,
            ))
            continue
        bad = False
        for var, ty in ranged.items():
            if all(ty != d for d in declared):
                diags.append(error(
                    "E-COVERAGE",
                    f"{_case_label(case)}: {format_type(ty)} is not a summand of "
                    f"{format_type(scrutinee)}",
                    case.span,
                ))
                bad = True
        if bad:
            continue
        combo = tuple(format_type(ranged[s]) for s in subjects)
        if combo in seen:
            diags.append(error(
                "E-COVERAGE", f"duplicate case for ({', '.join(combo)})", case.span,
            ))
        else:
            seen[combo] = case
    expected = itertools.product(*[[format_type(d) for d in declared]] * len(subjects))
    missing = [combo for combo in expected if combo not in seen]
    for combo in missing:
        diags.append(error(
            "E-COVERAGE",
            f"missing case for ({', '.join(combo)})",
        ))
    return diags


def enter_case(case: CaseBlock, lhs: Term, rhs: Term, env: StepEnv) -> tuple[StepEnv, list[Diagnostic]]:
    """The case-local environment; diagnoses a restated assertion that
    differs from the enclosing one."""
    case_env = StepEnv(env.registry, env.case_bindings + case.ranges, env.current_theorem)
    sigma = _case_sigma(case_env.case_bindings)
    diags: list[Diagnostic] = []
    if case.restated is not None:
        r_lhs, r_rhs = case.restated
        plain = (r_lhs, r_rhs) == (lhs, rhs)
        pre = (r_lhs, r_rhs) == (apply_substitution(sigma, lhs), apply_substitution(sigma, rhs))
        if not plain and not pre:
            diags.append(error(
                "E-RESTATEMENT",
                f"{_case_label(case)} restates {format_term(r_lhs)} ↔ {format_term(r_rhs)}, "
                f"which differs from the asserted {format_term(lhs)} ↔ {format_term(rhs)}",
                case.span,
            ))
    return case_env, diags


@dataclass
class _Verification:
    registry: Registry
    theorem: TheoremDecl
    quantifier_types: dict[str, TypeExpr]
    diagnostics: list[Diagnostic] = field(default_factory=list)
    inferred: list[InferredVia] = field(default_factory=list)
    #: Types the quantified metavariables, for every term of the theorem.
    typing: TypingContext = field(init=False)

    def __post_init__(self) -> None:
        self.typing = TypingContext(dict(self.quantifier_types), frozenset())

    # ----------------------------------------------------------- helpers

    def _type_check(self, term: Term) -> bool:
        try:
            infer_type(term, self.typing, self.registry)
            return True
        except DiagnosticError as exc:
            self.diagnostics.extend(exc.diagnostics)
            return False

    # -------------------------------------------------------------- body

    def verify_body(self, body: ProofBody, lhs: Term, rhs: Term, env: StepEnv,
                    path: tuple[str, ...]) -> None:
        if isinstance(body, LinearProof):
            self.verify_linear(lhs, rhs, body.steps, env, path)
            return
        decomposition = (body.scrutinee, body.stated_summands)
        self.diagnostics.extend(
            check_case_coverage(decomposition, body.subjects, body.cases, self.registry)
        )
        for subject in body.subjects:
            declared = self.quantifier_types.get(subject)
            if declared is not None and declared != body.scrutinee:
                self.diagnostics.append(error(
                    "E-COVERAGE",
                    f"cases decompose {format_type(body.scrutinee)}, but {subject!r} "
                    f"is quantified over {format_type(declared)}",
                    self.theorem.span,
                ))
        for case in body.cases:
            case_env, diags = enter_case(case, lhs, rhs, env)
            self.diagnostics.extend(diags)
            self.verify_body(case.body, lhs, rhs, case_env, path + (_case_label(case),))

    def verify_linear(self, lhs: Term, rhs: Term, steps: tuple[ProofStep, ...],
                      env: StepEnv, path: tuple[str, ...]) -> None:
        if not steps:
            self.diagnostics.append(error("E-STEP-NUMBERING", "empty proof", self.theorem.span))
            return
        indices = [s.index for s in steps]
        if indices != list(range(len(steps))):
            got = ", ".join(str(i) for i in indices)
            self.diagnostics.append(error(
                "E-STEP-NUMBERING",
                f"step indices must run 0..{len(steps) - 1}, got {got}",
                steps[0].span,
            ))
        if steps[0].justification is not None:
            self.diagnostics.append(error(
                "E-PREMISS-MISMATCH", "the premiss needs no justification", steps[0].span,
            ))

        sigma = _case_sigma(env.case_bindings)
        premiss_forms = {lhs, apply_substitution(sigma, lhs)}
        if steps[0].term not in premiss_forms:
            expected = " or ".join(sorted(format_term(t) for t in premiss_forms))
            self.diagnostics.append(error(
                "E-PREMISS-MISMATCH",
                f"premiss is {format_term(steps[0].term)}, expected {expected}",
                steps[0].span,
            ))

        for step in steps:
            if not self._type_check(step.term):
                return

        cur = steps[0].term
        for step in steps[1:]:
            if not self._check_hop(cur, step, env, path):
                break
            cur = step.term

        final = steps[-1].term
        endpoint_forms = {rhs, apply_substitution(sigma, rhs)}
        if final not in endpoint_forms:
            expected = " or ".join(sorted(format_term(t) for t in endpoint_forms))
            self.diagnostics.append(error(
                "E-ENDPOINT-MISMATCH",
                f"final term is {format_term(final)}, expected {expected}",
                steps[-1].span,
            ))

    def _check_hop(self, prev: Term, step: ProofStep, env: StepEnv, path: tuple[str, ...]) -> bool:
        just = step.justification
        if just is None:
            inferred = infer_step_justification(prev, step.term, env)
            if inferred is None:
                self.diagnostics.append(error(
                    "E-UNJUSTIFIED-STEP",
                    f"step {step.index} has no justification and none could be inferred for "
                    f"{format_term(prev)} into {format_term(step.term)}",
                    step.span,
                ))
                return False
            clause = format_justification(inferred)
            self.inferred.append(InferredVia(path, step.index, clause))
            self.diagnostics.append(warning(
                "W-INFERRED-VIA", f"step {step.index}: justification inferred: {clause}", step.span,
            ))
            return True

        verdict = check_justified_step(prev, step.term, just, env)
        if verdict.justified:
            return True
        if isinstance(just, CaseRangeJustification) and verdict.failure is not None \
                and verdict.failure.code == "E-UNJUSTIFIED-STEP":
            healed = self._heal_case_range_hop(prev, step, just, env, path)
            if healed:
                return True
        failure = verdict.failure
        assert failure is not None
        self.diagnostics.append(Diagnostic(
            failure.severity, failure.code,
            f"step {step.index}: {failure.message}",
            failure.span if failure.span.length else step.span,
            failure.related,
        ))
        return False

    def _heal_case_range_hop(self, prev: Term, step: ProofStep,
                             just: CaseRangeJustification, env: StepEnv,
                             path: tuple[str, ...]) -> bool:
        """Accept ``prev → X → step.term`` where the stated case range
        licenses the final hop and a single inferable rewrite covers the
        first; records the insertion like an inferred justification."""
        outcomes = clause_edits(step.term, just, env)
        if isinstance(outcomes, Diagnostic):
            return False
        for edits, _ in outcomes:
            intermediate = _applied(step.term, edits)
            inferred = infer_step_justification(prev, intermediate, env)
            if inferred is None:
                continue
            clause = f"{format_justification(inferred)} then {format_justification(just)}"
            self.inferred.append(InferredVia(path, step.index, clause))
            self.diagnostics.append(warning(
                "W-INFERRED-VIA",
                f"step {step.index}: inserted inferred step {format_term(intermediate)} "
                f"via {format_justification(inferred)} before the stated case range",
                step.span,
            ))
            return True
        return False


def verify_theorem(thm: TheoremDecl, registry: Registry) -> VerificationReport:
    quantifiers, q_diags = effective_quantifiers(thm, registry)
    quantifier_types = {q.var: q.domain for q in quantifiers}
    v = _Verification(registry, thm, quantifier_types)
    v.diagnostics.extend(q_diags)

    side_types = []
    for side in (thm.lhs, thm.rhs):
        try:
            side_types.append(infer_type(side, v.typing, registry))
        except DiagnosticError as exc:
            v.diagnostics.extend(exc.diagnostics)
    if len(side_types) == 2:
        lhs_ty, rhs_ty = side_types
        if join_types(lhs_ty, rhs_ty, registry) is None:
            v.diagnostics.append(error(
                "E-TYPE-MISMATCH",
                f"assertion sides have incompatible types {format_type(lhs_ty)} and "
                f"{format_type(rhs_ty)}",
                thm.span,
            ))

    env = StepEnv(registry, (), thm.name)
    v.verify_body(thm.proof, thm.lhs, thm.rhs, env, ())
    accepted = not any(d.severity is Severity.ERROR for d in v.diagnostics)
    return VerificationReport(thm.name, accepted, tuple(v.diagnostics), tuple(v.inferred))
