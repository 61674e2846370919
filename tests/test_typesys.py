"""Registry construction, well-formedness and term typing."""

from __future__ import annotations

import itertools

import pytest

from axiotome.diagnostics import DiagnosticError
from axiotome.syntax import TypeExpr, parse_program, parse_term
from axiotome.typesys import (
    TypingContext, build_registry, check_well_formed, conforms,
    constructor_signature, infer_type,
)

from conftest import BASE_TYPES, BOOL_FNS, load_program, load_registry


def _diag_codes(diags):
    return [d.code for d in diags]


# ----------------------------------------------------------------- registry

def test_forward_references_resolve():
    # Prepend references List before List is declared.
    registry, diags = build_registry(load_program("polymorphic_lists.axm"))
    assert not diags
    assert set(registry.types) == {"Nil", "Prepend", "List"}


def test_duplicate_type_name_is_diagnosed():
    program = parse_program("type False ≡ Product[]\ntype False ≡ Product[]")
    _, diags = build_registry(program)
    assert _diag_codes(diags) == ["E-DUP-NAME"]


def test_unresolved_sum_summand():
    program = parse_program("type X ≡ Sum[Missing]")
    _, diags = build_registry(program)
    assert "E-UNRESOLVED" in _diag_codes(diags)


def test_verbatim_core_types_lack_true_and_zero():
    # The original listings never declare True or Zero; building the
    # registry from them alone must surface both as unresolved.
    program = load_program("product_types.axm", "sum_types.axm")
    _, diags = build_registry(program)
    messages = " ".join(d.message for d in diags)
    assert "'Zero'" in messages and "'True'" in messages
    assert all(d.code == "E-UNRESOLVED" for d in diags)


def test_duplicate_axiom_name_is_global():
    program = parse_program(
        "type False ≡ Product[]\ntype True ≡ Product[]\ntype Boolean ≡ Sum[False, True]\n"
        "function f(a: Boolean) : Boolean\n  allowing $x: f(False) ↔ False\n"
        "function g(a: Boolean) : Boolean\n  allowing $x: g(False) ↔ False\n"
    )
    _, diags = build_registry(program)
    assert "E-DUP-NAME" in _diag_codes(diags)


# ----------------------------------------------------------- well-formedness

def test_natural_numbers_listing_is_well_formed():
    registry = load_registry("natural_numbers.axm")
    assert check_well_formed(registry) == []


def test_if_listing_is_well_formed(full_registry):
    assert check_well_formed(full_registry) == []


@pytest.mark.parametrize("name", ["or_function.axm", "if_function.axm",
                                  "natural_numbers.axm", "polymorphic_lists.axm"])
def test_response_listings_pass_with_zero_diagnostics(name):
    names = [name] if name in ("natural_numbers.axm", "polymorphic_lists.axm") \
        else BASE_TYPES + ["not_function.axm", "and_function.axm", name]
    registry = load_registry(*names)
    assert check_well_formed(registry) == []


def test_built_registry_is_immutable(bool_registry):
    with pytest.raises(TypeError):
        bool_registry.axioms["$extra"] = bool_registry.axioms["$not°F"]
    with pytest.raises(TypeError):
        del bool_registry.types["Boolean"]
    with pytest.raises(AttributeError):
        bool_registry.theorems = {}


def test_axiom_arity_violation():
    program = load_program(*BASE_TYPES)
    extra = parse_program(
        "function or(a: Boolean, b: Boolean) : Boolean\n  allowing $bad: or(False) ↔ True"
    )
    from axiotome.syntax import Program
    registry, diags = build_registry(Program(program.statements + extra.statements))
    assert not diags
    codes = _diag_codes(check_well_formed(registry))
    assert "E-ARITY" in codes


def test_axiom_lhs_must_apply_the_function():
    program = load_program(*BASE_TYPES)
    extra = parse_program(
        "function f(a: Boolean) : Boolean\n  allowing $odd: not(False) ↔ True"
    )
    from axiotome.syntax import Program
    registry, _ = build_registry(Program(program.statements + extra.statements))
    codes = _diag_codes(check_well_formed(registry))
    assert "E-TYPE-MISMATCH" in codes


def test_unannotated_free_rhs_name_is_diagnosed():
    program = load_program(*BASE_TYPES)
    extra = parse_program(
        "function f(a: Boolean) : Boolean\n  allowing $f: f(False) ↔ mystery"
    )
    from axiotome.syntax import Program
    registry, _ = build_registry(Program(program.statements + extra.statements))
    codes = _diag_codes(check_well_formed(registry))
    assert "E-UNRESOLVED" in codes


def test_product_recursion_without_sum_warns():
    program = parse_program("type Loop ≡ Product[again: Loop]")
    registry, _ = build_registry(program)
    codes = _diag_codes(check_well_formed(registry))
    assert codes == ["W-INHABITATION"]


def test_recursion_through_sum_is_fine():
    registry = load_registry("natural_numbers.axm")
    assert check_well_formed(registry) == []


# ------------------------------------------------------------------- typing

def test_infer_not_false(bool_registry):
    ty = infer_type(parse_term("not(False)"), TypingContext(), bool_registry)
    assert ty == TypeExpr("Boolean")


def test_infer_pair_instantiates_parameters(bool_registry):
    ty = infer_type(parse_term("Pair(False, True)"), TypingContext(), bool_registry)
    assert ty == TypeExpr("Pair", (TypeExpr("False"), TypeExpr("True")))


def test_infer_rejects_non_conforming_argument(bool_registry):
    with pytest.raises(DiagnosticError) as exc:
        infer_type(parse_term("and(Zero, True)"), TypingContext(), bool_registry)
    d = exc.value.diagnostics[0]
    assert d.code == "E-TYPE-MISMATCH"
    assert "Zero" in d.message


def test_if_branches_join_to_boolean(full_registry):
    ty = infer_type(parse_term("if(True, False, not(False))"), TypingContext(), full_registry)
    assert ty == TypeExpr("Boolean")


def test_metavariables_type_from_context(bool_registry):
    ctx = TypingContext({"a": TypeExpr("Boolean")})
    assert infer_type(parse_term("not(a)"), ctx, bool_registry) == TypeExpr("Boolean")


def test_unknown_head_is_unresolved(bool_registry):
    with pytest.raises(DiagnosticError) as exc:
        infer_type(parse_term("mystery(False)"), TypingContext(), bool_registry)
    assert exc.value.diagnostics[0].code == "E-UNRESOLVED"


def test_nil_keeps_unconstrained_parameter_symbolic():
    registry = load_registry("polymorphic_lists.axm")
    ty = infer_type(parse_term("Nil"), TypingContext(), registry)
    assert ty == TypeExpr("Nil", (TypeExpr("A"),))
    explicit = infer_type(parse_term("Nil[List[Nil]]"), TypingContext(), registry)
    assert explicit.name == "Nil"


def test_infer_is_declaration_order_independent():
    statements = load_program("missing_nullary_types.axm", "polymorphic_lists.axm").statements
    term = parse_term("Prepend(True, Nil[True])")
    results = set()
    from axiotome.syntax import Program
    for perm in itertools.permutations(statements):
        registry, diags = build_registry(Program(tuple(perm)))
        assert not diags
        results.add(infer_type(term, TypingContext(), registry))
    assert results == {TypeExpr("Prepend", (TypeExpr("True"),))}


# -------------------------------------------------------------- conformance

def test_conforms_examples(bool_registry):
    boolean = TypeExpr("Boolean")
    false = TypeExpr("False")
    assert conforms(false, boolean, bool_registry)
    assert not conforms(boolean, false, bool_registry)


def test_conforms_through_polymorphic_sum():
    registry = load_registry("polymorphic_lists.axm", "missing_nullary_types.axm")
    nil = TypeExpr("Nil", (TypeExpr("True"),))
    lst = TypeExpr("List", (TypeExpr("True"),))
    assert conforms(nil, lst, registry)
    assert not conforms(TypeExpr("Nil", (TypeExpr("Zero"),)), lst, registry)  # invariant args


def test_conforms_reflexive_and_transitive_on_corpus():
    registry = load_registry(*BOOL_FNS, "polymorphic_lists.axm")
    instances = [
        TypeExpr("False"), TypeExpr("True"), TypeExpr("Boolean"),
        TypeExpr("Zero"), TypeExpr("Successor"), TypeExpr("Number"),
        TypeExpr("Pair", (TypeExpr("False"), TypeExpr("True"))),
        TypeExpr("Nil", (TypeExpr("Boolean"),)),
        TypeExpr("Prepend", (TypeExpr("Boolean"),)),
        TypeExpr("List", (TypeExpr("Boolean"),)),
    ]
    for ty in instances:
        assert conforms(ty, ty, registry)
    for a, b, c in itertools.product(instances, repeat=3):
        if conforms(a, b, registry) and conforms(b, c, registry):
            assert conforms(a, c, registry)


def test_axiom_sides_conform_to_return_types(bool_registry):
    ctx_cache = {}
    for name, (axiom, owner) in bool_registry.axioms.items():
        fn = bool_registry.functions[owner]
        ctx = TypingContext(bool_registry.axiom_metavars(axiom, owner))
        for side in (axiom.lhs, axiom.rhs):
            ty = infer_type(side, ctx, bool_registry)
            assert ty == fn.return_type or conforms(ty, fn.return_type, bool_registry), name


# -------------------------------------------------------------- constructors

def test_constructor_signature_successor():
    registry = load_registry("natural_numbers.axm")
    sig = constructor_signature("Successor", registry)
    assert sig.fields == (("n", TypeExpr("NaturalNumber")),)
    assert sig.result_type == TypeExpr("Successor")


def test_constructor_signature_pair(bool_registry):
    sig = constructor_signature("Pair", bool_registry)
    assert sig.type_params == ("A", "B")
    assert sig.fields == (("left", TypeExpr("A")), ("right", TypeExpr("B")))


def test_sum_types_have_no_constructor(bool_registry):
    with pytest.raises(DiagnosticError) as exc:
        constructor_signature("Boolean", bool_registry)
    assert exc.value.diagnostics[0].code == "E-NO-CONSTRUCTOR"
