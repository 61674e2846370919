"""Axiotome kernel: an executable front end, type checker, proof verifier,
brute-force validator and proof repairer for the Axiotome formal language.

The public names below are served by ``__getattr__`` (PEP 562): each
imports its module on first use, so importing one submodule, as the
``axiotome`` command imports ``axiotome.cli``, loads only what it needs."""

from importlib import import_module

_EXPORTS = {
    "diagnostics": "CODES Diagnostic DiagnosticError Severity Span render_human render_machine",
    "oracle": "DomainEnumeration NormalizationResult ValidationVerdict brute_force_validate "
              "enumerable_domain normalize",
    "rewrite": "Direction Position RewriteRule StepEnv StepVerdict Substitution apply_substitution "
               "check_justified_step judge_hop match",
    "search": "JustifiedChain SearchBudget fill_gap infer_step_justification repair_theorem",
    "syntax": "Program Term TheoremDecl TypeExpr format_node parse_program parse_term tokenize",
    "typesys": "ConstructorSignature Registry TypingContext build_registry check_well_formed conforms "
               "constructor_signature infer_type",
    "verifier": "InferredVia VerificationReport check_case_coverage effective_quantifiers enter_case "
                "verify_theorem",
}

#: The module of each public name.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
