"""Theorem verification: quantifiers, linear proofs and proof by cases.

A proof is accepted when its premiss matches the asserted left-hand side,
every step transition is justified (or inferable, see below), the final term
matches the right-hand side, and case proofs decompose a declared sum and
cover the full cartesian product of summands over their subjects exactly
once.

Each hop is judged by ``rewrite.judge_hop``, the judgement ``fill`` keeps
steps by, and its verdict is reported here: as a diagnostic, and whole in
the report's hop record, which ``fill`` reads instead of judging the
written hops again.  Steps without a ``via`` clause get a single-step
inference attempt and a W-INFERRED-VIA warning when it succeeds.  A step
whose case-range clause does not check on its own is healed by one inferred
hop before the stated range; the same warning records the insertion.  Hop
checking stops at the first unjustified transition of a (sub)proof, so one
defective case yields exactly one error, and the record ends there;
premiss, endpoint and coverage checks still run.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import NamedTuple

from .diagnostics import Diagnostic, DiagnosticError, Severity, error, warning
from .rewrite import StepEnv, StepVerdict, Substitution, _case_sigma, apply_substitution, judge_hop
from .syntax import (
    ByCasesProof, CaseBlock, LinearProof, ProofBody, ProofStep, Quantifier, Term, TheoremDecl,
    TypeExpr, format_justification, format_quantifier, format_term, format_type,
)
from .typesys import Registry, TypingContext, infer_type, join_types, summands, term_metavars


class InferredVia(NamedTuple):
    case_path: tuple[str, ...]
    step_index: int
    clause: str


class JudgedHop(NamedTuple):
    """``judge_hop``'s verdict on a written hop: the hop from ``prev`` into
    ``step``, the written step itself, of the linear proof at ``case_path``."""

    case_path: tuple[str, ...]
    step: ProofStep
    prev: Term
    verdict: StepVerdict

    @property
    def step_index(self) -> int:
        return self.step.index

    @property
    def inferred_clause(self) -> str:
        """The inferred clause as ``--strict`` reports it; a healed hop's
        ends ``then`` the written clause."""
        clause = format_justification(self.verdict.inferred)
        if self.verdict.intermediate is None:
            return clause
        return f"{clause} then {format_justification(self.step.justification)}"


class VerificationReport(NamedTuple):
    """A theorem's verdict and diagnostics, and in ``hops`` every hop that
    was judged, in proof order: each linear proof's hops up to its first
    rejected one, none of a proof whose terms do not type."""

    theorem: str
    accepted: bool
    diagnostics: tuple[Diagnostic, ...] = ()
    hops: tuple[JudgedHop, ...] = ()

    @property
    def status(self) -> str:
        return "accepted" if self.accepted else "rejected"

    @property
    def inferred_justifications(self) -> tuple[InferredVia, ...]:
        """The hops whose clause was inferred, healed hops included."""
        return tuple(InferredVia(hop.case_path, hop.step_index, hop.inferred_clause)
                     for hop in self.hops if hop.verdict.inferred is not None)


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
    bodies = [thm.proof]  # in pre-order, so a subject's outermost scrutinee counts
    while bodies:
        body = bodies.pop()
        if isinstance(body, ByCasesProof):
            for subject in body.subjects:
                subject_types.setdefault(subject, body.scrutinee)
            bodies.extend(case.body for case in reversed(body.cases))
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
    declared = summands(scrutinee, registry)
    if declared is None:
        return [error("E-COVERAGE", f"{format_type(scrutinee)} is not a declared sum type", scrutinee.span)]
    if Counter(stated) != Counter(declared):
        return [error(
            "E-COVERAGE",
            f"decomposition states {format_type(scrutinee)} = "
            f"{' U '.join(format_type(s) for s in stated)}, but the declaration has "
            f"summands {', '.join(format_type(s) for s in declared)}",
            scrutinee.span,
        )]

    diags: list[Diagnostic] = []
    seen: dict[tuple[TypeExpr, ...], CaseBlock] = {}
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
        strays = [ty for ty in ranged.values() if ty not in declared]
        diags += [error("E-COVERAGE", f"{_case_label(case)}: {format_type(ty)} is not a summand of "
                                      f"{format_type(scrutinee)}", case.span) for ty in strays]
        if strays:
            continue
        combo = tuple(ranged[s] for s in subjects)
        if combo in seen:
            diags.append(error(
                "E-COVERAGE", f"duplicate case for ({', '.join(map(format_type, combo))})", case.span,
            ))
        else:
            seen[combo] = case
    for combo in itertools.product(declared, repeat=len(subjects)):
        if combo not in seen:
            diags.append(error("E-COVERAGE", f"missing case for ({', '.join(map(format_type, combo))})"))
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


class _Verification:
    def __init__(self, registry: Registry, theorem: TheoremDecl, quantifier_types: dict[str, TypeExpr]) -> None:
        self.registry = registry
        self.theorem = theorem
        self.quantifier_types = quantifier_types
        self.diagnostics: list[Diagnostic] = []
        self.hops: list[JudgedHop] = []
        #: Types the quantified metavariables, for every term of the theorem,
        #: and keeps each node's type once known.
        self.typing = TypingContext(dict(quantifier_types), frozenset())

    # ----------------------------------------------------------- helpers

    def _type_check(self, step: ProofStep) -> bool:
        try:
            infer_type(step.term, self.typing, self.registry, step.term_spans)
            return True
        except DiagnosticError as exc:
            self.diagnostics.extend(exc.diagnostics)
            return False

    # -------------------------------------------------------------- body

    def verify_body(self, body: ProofBody, lhs: Term, rhs: Term, env: StepEnv,
                    path: tuple[str, ...]) -> None:
        """Verify ``body`` and every case block nested in it, in order,
        from a stack of the bodies and case blocks still to verify."""
        stack: list[tuple[ProofBody | CaseBlock, StepEnv, tuple[str, ...]]] = [(body, env, path)]
        while stack:
            item, env, path = stack.pop()
            if isinstance(item, LinearProof):
                self.verify_linear(lhs, rhs, item.steps, env, path)
            elif isinstance(item, CaseBlock):
                case_env, diags = enter_case(item, lhs, rhs, env)
                self.diagnostics.extend(diags)
                stack.append((item.body, case_env, path + (_case_label(item),)))
            else:
                self.diagnostics.extend(check_case_coverage(
                    (item.scrutinee, item.stated_summands), item.subjects, item.cases, self.registry))
                for subject in item.subjects:
                    declared = self.quantifier_types.get(subject)
                    if declared is not None and declared != item.scrutinee:
                        self.diagnostics.append(error(
                            "E-COVERAGE",
                            f"cases decompose {format_type(item.scrutinee)}, but {subject!r} "
                            f"is quantified over {format_type(declared)}",
                            self.theorem.span,
                        ))
                stack.extend((case, env, path) for case in reversed(item.cases))

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
        self._check_side("E-PREMISS-MISMATCH", "premiss", steps[0], lhs, sigma)

        for step in steps:
            if not self._type_check(step):
                return

        cur = steps[0].term
        for step in steps[1:]:
            if not self._check_hop(cur, step, env, path):
                break
            cur = step.term

        self._check_side("E-ENDPOINT-MISMATCH", "final term", steps[-1], rhs, sigma)

    def _check_side(self, code: str, what: str, step: ProofStep, side: Term, sigma: Substitution) -> None:
        """Report ``step`` under ``code`` unless its term is ``side`` or
        ``side`` under the case bindings' substitution ``sigma``."""
        forms = {side, apply_substitution(sigma, side)}
        if step.term not in forms:
            expected = " or ".join(sorted(format_term(t) for t in forms))
            self.diagnostics.append(error(
                code, f"{what} is {format_term(step.term)}, expected {expected}", step.span,
            ))

    def _check_hop(self, prev: Term, step: ProofStep, env: StepEnv, path: tuple[str, ...]) -> bool:
        """Record ``judge_hop``'s verdict on the hop into ``step`` and report
        it: an inferred clause as a W-INFERRED-VIA warning, a failure as an
        error at the step."""
        just = step.justification
        verdict = judge_hop(prev, step.term, just, env)
        self.hops.append(JudgedHop(path, step, prev, verdict))
        if verdict.inferred is not None:
            clause = format_justification(verdict.inferred)
            message = f"justification inferred: {clause}"
            if verdict.intermediate is not None:
                message = (f"inserted inferred step {format_term(verdict.intermediate)} via {clause} "
                           f"before the stated case range")
            self.diagnostics.append(warning("W-INFERRED-VIA", f"step {step.index}: {message}", step.span))
        failure = verdict.failure
        if failure is not None:
            self.diagnostics.append(failure._replace(
                message=f"step {step.index}{'' if just is None else ':'} {failure.message}",
                span=failure.span if failure.span.length else step.span))
        return failure is None


def verify_theorem(thm: TheoremDecl, registry: Registry) -> VerificationReport:
    quantifiers, q_diags = effective_quantifiers(thm, registry)
    quantifier_types = {q.var: q.domain for q in quantifiers}
    v = _Verification(registry, thm, quantifier_types)
    v.diagnostics.extend(q_diags)

    side_types = []
    for side, spans in ((thm.lhs, thm.lhs_spans), (thm.rhs, thm.rhs_spans)):
        try:
            side_types.append(infer_type(side, v.typing, registry, spans))
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
    return VerificationReport(thm.name, accepted, tuple(v.diagnostics), tuple(v.hops))
