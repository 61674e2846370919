"""Shared fixtures: corpus loading and composed registries."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import strategies as st

from axiotome.rewrite import (
    Position, RewriteRule, StepEnv, Substitution, apply_substitution, match, positions, replace_at,
)
from axiotome.syntax import OperatorDecl, Program, Quantifier, Term, TypeExpr, parse_program
from axiotome.typesys import Registry, build_registry

CORPUS = Path(__file__).parent / "corpus"

#: Type declarations shared by the boolean modules (the nullary supplement
#: first so the verbatim listings resolve).
BASE_TYPES = ["missing_nullary_types.axm", "product_types.axm", "sum_types.axm"]

#: Base types plus the three boolean connectives.
BOOL_FNS = BASE_TYPES + ["not_function.axm", "and_function.axm", "or_function.axm"]

#: The original core module: types, not/and, the formulaic example and the
#: two worked theorems.
CORE = BASE_TYPES + [
    "not_function.axm", "and_function.axm", "double_negation_function.axm",
    "not_not_false_theorem.axm", "and_left_false_theorem.axm",
]

#: All program fixtures (term_examples.axm is parsed in term mode instead).
PROGRAM_FIXTURES = sorted(
    p.name for p in CORPUS.glob("*.axm") if p.name != "term_examples.axm"
)


#: Rules the corpus lacks, for the rule index's looser keys: ``$pick°L``
#: has a metavariable first argument and shares its head with rules whose
#: first argument is a constant, and ``same`` unfolds backwards from a bare
#: metavariable.  ``¶pick`` and ``¶same`` are named like functions, so a
#: ``via`` clause cannot cite them.
MIXED_RULES = """\
function pick(a: Boolean, b: Boolean) : Boolean
  allowing $pick°T: pick(True, b) ↔ not(b)
           $pick°L: pick(a, b) ↔ a
           $pick°F: pick(False, b) ↔ b
function same(b: Boolean) : Boolean ≡ b
theorem ¶pick: ∀b ∈ Boolean: pick(b, b) ↔ b
proof
  0. pick(b, b)
  1. b via $pick°L
theorem ¶same: ∀b ∈ Boolean: not(same(b)) ↔ not(b)
proof
  0. not(same(b))
  1. not(b) via same
"""


def corpus_path(name: str) -> Path:
    return CORPUS / name


def corpus_text(name: str) -> str:
    return corpus_path(name).read_text(encoding="utf-8")


def load_program(*names: str, operators: dict[str, str] | None = None) -> Program:
    """Parse the named fixtures and merge them in order, threading operator
    declarations from earlier files into later ones."""
    statements: list = []
    ops = dict(operators or {})
    for name in names:
        program = parse_program(corpus_text(name), name, dict(ops))
        statements.extend(program.statements)
        for stmt in program.statements:
            if isinstance(stmt, OperatorDecl):
                ops[stmt.glyph] = stmt.function_name
    return Program(tuple(statements), "+".join(names))


def load_registry(*names: str, extra: str = "") -> Registry:
    """Registry of the named fixtures, followed by the source ``extra``."""
    program = load_program(*names)
    if extra:
        program = Program(program.statements + parse_program(extra, "extra.axm").statements)
    registry, diags = build_registry(program)
    errors = [d for d in diags if d.severity.value == "error"]
    assert not errors, [d.message for d in errors]
    return registry


def terms(arities: dict[str, int], leaves: tuple[str, ...] = ("False", "True")) -> st.SearchStrategy[Term]:
    """Hypothesis strategy for terms over the given heads and nullary leaves."""
    def extend(children: st.SearchStrategy[Term]) -> st.SearchStrategy[Term]:
        return st.one_of([st.tuples(*[children] * n).map(lambda args, h=h: Term(h, (), args))
                          for h, n in arities.items()])

    return st.recursive(st.sampled_from([Term(leaf) for leaf in leaves]), extend, max_leaves=12)


def _applications(term: Term, rule: RewriteRule) -> list[tuple[Position, Term, Substitution]]:
    """Every single application of ``rule`` (oriented per its direction) to
    ``term``, as (position, result, substitution) in leftmost-outermost
    order: the unindexed reference enumeration, trying the rule at every
    position."""
    if not rule.determined():
        return []
    src, dst = rule.oriented()
    out = []
    for pos, sub in positions(term):
        sigma = match(src, sub, rule.metavars)
        if sigma is not None:
            out.append((pos, replace_at(term, pos, apply_substitution(sigma, dst)), sigma))
    return out


#: Axioms, unfoldings and theorems, with rules under every kind of index key.
RULES_REGISTRY = load_registry(*BOOL_FNS, "if_function.axm", "double_negation_function.axm",
                               "de_morgan_corrected.axm", "triple_negation.axm", extra=MIXED_RULES)
ENVS = (
    StepEnv(RULES_REGISTRY),
    StepEnv(RULES_REGISTRY, (Quantifier("a", TypeExpr("False")), Quantifier("b", TypeExpr("False"))),
            "deMorgan1"),
    StepEnv(RULES_REGISTRY, (Quantifier("a", TypeExpr("True")),), "same"),
)
RULE_TERMS = terms({"not": 1, "and": 2, "or": 2, "if": 3, "doubleNegation": 1, "pick": 2, "same": 1},
                   ("False", "True", "a", "b"))


@pytest.fixture(scope="session")
def bool_registry() -> Registry:
    return load_registry(*BOOL_FNS)


@pytest.fixture(scope="session")
def full_registry() -> Registry:
    return load_registry(*BOOL_FNS, "if_function.axm", "double_negation_function.axm")


@pytest.fixture(scope="session")
def core_registry() -> Registry:
    return load_registry(*CORE)
