"""Axiotome kernel: an executable front end, type checker, proof verifier,
brute-force validator and proof repairer for the Axiotome formal language."""

from .diagnostics import (
    CODES, Diagnostic, DiagnosticError, Severity, Span, render_human, render_machine,
)
from .oracle import (
    DomainEnumeration, NormalizationResult, ValidationVerdict,
    brute_force_validate, enumerable_domain, normalize,
)
from .rewrite import (
    Direction, Position, RewriteRule, StepEnv, StepVerdict, Substitution,
    apply_substitution, check_justified_step, judge_hop, match,
)
from .search import (
    JustifiedChain, SearchBudget, fill_gap, infer_step_justification,
    repair_theorem,
)
from .syntax import (
    Program, Term, TheoremDecl, TypeExpr, format_node, parse_program, parse_term, tokenize,
)
from .typesys import (
    ConstructorSignature, Registry, TypingContext, build_registry,
    check_well_formed, conforms, constructor_signature, infer_type,
)
from .verifier import (
    InferredVia, VerificationReport, check_case_coverage, effective_quantifiers,
    enter_case, verify_theorem,
)

__version__ = "0.1.0"
