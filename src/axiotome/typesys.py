"""Declaration registry, well-formedness checks and term typing.

The registry is built in two passes (collect names, then resolve bodies) so
forward references work regardless of declaration order.  Product type names
double as constructor names; sum types have no constructor of their own.
Conformance is width subtyping through sums with invariant type arguments.
"""

from __future__ import annotations

from functools import cached_property, partial
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Container, Iterator, Mapping, NamedTuple, Sequence

from .diagnostics import Diagnostic, DiagnosticError, Span, error, warning
from .syntax import (
    Axiom, EquationalBody, FormulaicBody, Frozen, FunctionDecl, OperatorDecl,
    ProductBody, Program, SumBody, Term, TheoremDecl, TypeDecl, TypeExpr,
    format_term, format_type,
)

if TYPE_CHECKING:
    from .rewrite import RuleSet


class ConstructorSignature(NamedTuple):
    type_params: tuple[str, ...]
    fields: tuple[tuple[str, TypeExpr], ...]
    result_type: TypeExpr


class TypingContext(Frozen):
    """Metavariable types plus the type parameters currently in scope.

    ``memo`` holds the type of each node typed in the context so far.  A
    node's type depends on the context and the registry alone, so a context
    is for the terms of one registry.  Threads that type terms in one
    context fill its memo together; those that race on a node store equal
    entries, and a dict's single get or set is atomic under the GIL."""

    def __init__(self, metavar_types: dict[str, TypeExpr] | None = None,
                 type_params: frozenset[str] = frozenset()) -> None:
        vars(self).update(metavar_types={} if metavar_types is None else metavar_types,
                          type_params=type_params, memo={})


class Registry(Frozen):
    """Immutable view of every declaration in a program.

    The maps are copied into read-only mappings on construction, so the
    tables derived from them (``rules``, ``signatures``) cannot go stale.
    """

    def __init__(self, types: Mapping[str, TypeDecl] = {}, functions: Mapping[str, FunctionDecl] = {},
                 axioms: Mapping[str, tuple[Axiom, str]] = {}, operators: Mapping[str, str] = {},
                 theorems: Mapping[str, TheoremDecl] = {}) -> None:
        tables = {"types": types, "functions": functions, "axioms": axioms, "operators": operators,
                  "theorems": theorems}
        vars(self).update((name, MappingProxyType(dict(table))) for name, table in tables.items())

    @cached_property
    def rules(self) -> RuleSet:
        """The indexed rewrite rules of every declaration, built on first use.

        ``rewrite`` builds on this module, hence the deferred import."""
        from .rewrite import RuleSet
        return RuleSet.of(self)

    @cached_property
    def signatures(self) -> Mapping[str, ConstructorSignature]:
        """The signature of each function and each product type's
        constructor, by name, built whole on first use."""
        sigs = {name: ConstructorSignature(decl.params, decl.body.fields,
                                           TypeExpr(name, tuple(TypeExpr(p) for p in decl.params)))
                for name, decl in self.types.items() if isinstance(decl.body, ProductBody)}
        sigs.update((name, ConstructorSignature(fn.type_params, fn.params, fn.return_type))
                    for name, fn in self.functions.items())
        return MappingProxyType(sigs)

    def axiom_metavars(self, axiom: Axiom, owner: str) -> dict[str, TypeExpr]:
        """Metavariable typing for an axiom: the owning function's declared
        parameters plus the axiom's inline annotations."""
        fn = self.functions[owner]
        ctx = {name: ty for name, ty in fn.params}
        ctx.update(dict(axiom.metavar_types))
        return ctx


def substitute_type(ty: TypeExpr, bindings: dict[str, TypeExpr]) -> TypeExpr:
    """``ty`` with each bound type parameter replaced, node by node in
    post-order, so type depth is unbounded; a rebuilt node keeps its span."""
    if not bindings:
        return ty
    if not ty.args:
        return bindings.get(ty.name, ty)
    order, stack = [], [ty]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.args)
    done: dict[int, TypeExpr] = {}  # by identity, as equal types may differ in span
    for node in reversed(order):
        done[id(node)] = TypeExpr(node.name, tuple(done[id(a)] for a in node.args), node.span) \
            if node.args else bindings.get(node.name, node)
    return done[id(ty)]


def build_registry(program: Program) -> tuple[Registry, list[Diagnostic]]:
    """Two-pass registry construction; duplicate and unresolved names are
    diagnosed but a best-effort registry is still returned (first wins)."""
    types: dict[str, TypeDecl] = {}
    functions: dict[str, FunctionDecl] = {}
    axioms: dict[str, tuple[Axiom, str]] = {}
    operators: dict[str, str] = {}
    theorems: dict[str, TheoremDecl] = {}
    diags: list[Diagnostic] = []

    def record(table: dict, name: str, value, kind: str, span: Span, taken: Container[str] = ()) -> bool:
        """Record ``value`` under ``name``, or report it when ``table`` or
        ``taken`` already holds that name."""
        if name in table or name in taken:
            diags.append(error("E-DUP-NAME", f"duplicate {kind} name {name!r}", span))
            return False
        table[name] = value
        return True

    for stmt in program.statements:
        if isinstance(stmt, TypeDecl):
            record(types, stmt.name, stmt, "type", stmt.span, functions)
        elif isinstance(stmt, FunctionDecl):
            if record(functions, stmt.name, stmt, "function", stmt.span, types) \
                    and isinstance(stmt.body, EquationalBody):
                for ax in stmt.body.axioms:
                    record(axioms, ax.name, (ax, stmt.name), "axiom", ax.span)
        elif isinstance(stmt, OperatorDecl):
            record(operators, stmt.glyph, stmt.function_name, "operator", stmt.span)
        elif isinstance(stmt, TheoremDecl):
            record(theorems, stmt.name, stmt, "theorem", stmt.span)

    reg = Registry(types, functions, axioms, operators, theorems)

    # Second pass: resolve type references now that all names are known.
    for decl in reg.types.values():
        scope = frozenset(decl.params)
        if isinstance(decl.body, ProductBody):
            for _, ty in decl.body.fields:
                diags.extend(_resolve_type(ty, scope, reg))
        else:
            for ty in decl.body.summands:
                diags.extend(_resolve_type(ty, scope, reg))
    for fn in reg.functions.values():
        scope = frozenset(fn.type_params)
        for _, ty in fn.params:
            diags.extend(_resolve_type(ty, scope, reg))
        diags.extend(_resolve_type(fn.return_type, scope, reg))
        if isinstance(fn.body, EquationalBody):
            for ax in fn.body.axioms:
                for _, ty in ax.metavar_types:
                    diags.extend(_resolve_type(ty, scope, reg))
    for op_glyph, op_fn in reg.operators.items():
        if op_fn not in reg.functions:
            diags.append(error("E-UNRESOLVED", f"operator {op_glyph} maps to undeclared function {op_fn!r}"))
    for thm in reg.theorems.values():
        for q in thm.quantifiers:
            diags.extend(_resolve_type(q.domain, frozenset(), reg))

    return reg, diags


def _resolve_type(ty: TypeExpr, scope: frozenset[str], reg: Registry) -> list[Diagnostic]:
    """Name and arity errors of ``ty`` and its arguments, in pre-order."""
    out: list[Diagnostic] = []
    stack = [ty]
    while stack:
        ty = stack.pop()
        if ty.name in scope:
            if ty.args:
                out.append(error("E-ARITY", f"type parameter {ty.name!r} takes no arguments", ty.span))
            continue
        decl = reg.types.get(ty.name)
        if decl is None:
            out.append(error("E-UNRESOLVED", f"reference to undeclared type {ty.name!r}", ty.span))
            continue
        if len(ty.args) != len(decl.params):
            out.append(error(
                "E-ARITY",
                f"type {ty.name!r} expects {len(decl.params)} type argument(s), got {len(ty.args)}",
                ty.span,
            ))
        stack.extend(reversed(ty.args))
    return out


def summands(ty: TypeExpr, reg: Registry) -> list[TypeExpr] | None:
    """The summands of the declared sum that ``ty`` names, with ``ty``'s
    type arguments substituted; ``None`` unless ``ty`` names a declared sum."""
    decl = reg.types.get(ty.name)
    if decl is None or not isinstance(decl.body, SumBody):
        return None
    bindings = dict(zip(decl.params, ty.args))
    return [substitute_type(s, bindings) for s in decl.body.summands]


#: The most types a walk of a summand closure visits, and the longest path
#: of an enumeration walk (``oracle._enumerate``).  A type that recurses
#: with growing type arguments has infinitely many.
CLOSURE_BOUND = 10_000


def _in_closure(sub: TypeExpr | None, sup: TypeExpr, reg: Registry) -> bool | None:
    """Whether ``sub`` lies in ``sup``'s summand closure, walked with a seen
    set so that cyclic sums end; ``None`` once the walk passes
    ``CLOSURE_BOUND`` types without meeting ``sub``."""
    todo, seen = [sup], {sup}
    while todo:
        parts = summands(todo.pop(), reg) or ()
        if sub in parts:
            return True
        todo += [s for s in parts if s not in seen]
        seen.update(parts)
        if len(seen) > CLOSURE_BOUND:
            return None
    return False


def conforms(sub: TypeExpr, sup: TypeExpr, reg: Registry) -> bool:
    """Structural equality, or membership in ``sup``'s summand closure.
    Type arguments are invariant.  Past ``CLOSURE_BOUND`` types of an
    infinite closure, which ``check_well_formed`` reports, the answer is
    False."""
    return sub == sup or bool(_in_closure(sub, sup, reg))


def constructor_signature(name: str, reg: Registry) -> ConstructorSignature:
    """Signature of the constructor implied by a product type definition."""
    decl = reg.types.get(name)
    if decl is None:
        raise DiagnosticError(error("E-UNRESOLVED", f"unknown type {name!r}"))
    if isinstance(decl.body, SumBody):
        raise DiagnosticError(error(
            "E-NO-CONSTRUCTOR", f"sum type {name!r} has no constructor of its own", decl.span,
        ))
    return reg.signatures[name]


def join_types(t1: TypeExpr, t2: TypeExpr, reg: Registry) -> TypeExpr | None:
    """Least declared type both arguments conform to, if any."""
    if conforms(t1, t2, reg):
        return t2
    if conforms(t2, t1, reg):
        return t1
    for name, decl in reg.types.items():
        if isinstance(decl.body, SumBody) and not decl.params:
            candidate = TypeExpr(name)
            if conforms(t1, candidate, reg) and conforms(t2, candidate, reg):
                return candidate
    return None


def _solve_params(pattern: TypeExpr, actual: TypeExpr, params: set[str], bindings: dict[str, TypeExpr],
                  reg: Registry, where: Callable[[], Span]) -> None:
    """Bind ``pattern``'s type parameters to ``actual``'s parts, left to
    right; a failed join lies at ``where()``, the span of the argument."""
    pairs = [(pattern, actual)]
    while pairs:
        pattern, actual = pairs.pop()
        if pattern.name in params and not pattern.args:
            seen = bindings.get(pattern.name)
            if seen is None:
                bindings[pattern.name] = actual
            elif seen != actual:
                joined = join_types(seen, actual, reg)
                if joined is None:
                    raise DiagnosticError(error(
                        "E-TYPE-MISMATCH",
                        f"cannot reconcile {format_type(seen)} and {format_type(actual)} "
                        f"for type parameter {pattern.name!r}",
                        where(),
                    ))
                bindings[pattern.name] = joined
        elif pattern.name == actual.name and len(pattern.args) == len(actual.args):
            pairs.extend(reversed(tuple(zip(pattern.args, actual.args))))


#: Where a typing error lies: ``place(node)`` is the span of ``node``, and
#: ``place(node, i)`` that of its ``i``-th argument.
Placer = Callable[..., Span]


def _signature(term: Term, ctx: TypingContext, reg: Registry, place: Placer) -> ConstructorSignature:
    """Signature of the function or constructor at ``term``'s head, once
    ``term`` is checked to give it as many type arguments (if any) and
    arguments as it declares."""
    sig = reg.signatures.get(term.head)
    if sig is None:
        if term.head in reg.types:
            raise DiagnosticError(error(
                "E-NO-CONSTRUCTOR", f"sum type {term.head!r} has no constructor", place(term),
            ))
        if term.head in ctx.type_params:
            raise DiagnosticError(error(
                "E-UNRESOLVED", f"type parameter {term.head!r} used as a term", place(term),
            ))
        raise DiagnosticError(error("E-UNRESOLVED", f"unknown term head {term.head!r}", place(term)))
    explicit = term.type_args
    if explicit and len(explicit) != len(sig.type_params):
        raise DiagnosticError(error(
            "E-ARITY",
            f"{term.head!r} expects {len(sig.type_params)} type argument(s), got {len(explicit)}",
            place(term),
        ))
    if len(term.args) != len(sig.fields):
        raise DiagnosticError(error(
            "E-ARITY",
            f"{term.head!r} expects {len(sig.fields)} argument(s), got {len(term.args)}",
            place(term),
        ))
    return sig


def _result_type(term: Term, sig: ConstructorSignature, arg_types: tuple[TypeExpr, ...], reg: Registry,
                 place: Placer) -> TypeExpr:
    """Type of the application ``term`` given its arguments' types: solve
    the type parameters not given explicitly, then check each argument."""
    explicit = term.type_args
    bindings: dict[str, TypeExpr] = dict(zip(sig.type_params, explicit))
    params = set(sig.type_params)
    if params and not explicit:
        for i, ((_, pty), aty) in enumerate(zip(sig.fields, arg_types)):
            _solve_params(pty, aty, params, bindings, reg, partial(place, term, i))
    for i, ((_, pty), aty, arg) in enumerate(zip(sig.fields, arg_types, term.args)):
        expected = substitute_type(pty, bindings)
        unsolved = params and _mentions_unsolved(expected, params, bindings)
        if not unsolved and not conforms(aty, expected, reg):
            raise DiagnosticError(error(
                "E-TYPE-MISMATCH",
                f"argument {format_term(arg)} of {term.head!r}: "
                f"{format_type(aty)} does not conform to {format_type(expected)}",
                place(term, i),
            ))
    # Unsolved parameters stay symbolic (e.g. Nil's unused element type).
    return substitute_type(sig.result_type, bindings)


def _mentions_unsolved(ty: TypeExpr, params: set[str], bindings: dict[str, TypeExpr]) -> bool:
    stack = [ty]
    while stack:
        ty = stack.pop()
        if ty.name in params and ty.name not in bindings:
            return True
        stack.extend(ty.args)
    return False


def infer_type(term: Term, ctx: TypingContext, reg: Registry, spans: Sequence[Span] = ()) -> TypeExpr:
    """Most specific type of ``term``; raises DiagnosticError on failure.

    One post-order walk with an explicit stack, so term depth is unbounded.
    A node's head is checked on entering it, before its arguments (left to
    right), and its argument types on leaving it, so the first error is the
    one a depth-first recursion would meet.  Each node's type is kept in
    ``ctx.memo``: a node is typed once per context, however often it occurs
    in the terms typed there.

    ``spans`` are the spans of ``term``'s nodes in pre-order, as the parser
    keeps them.  An error lies at the failing node's first occurrence in
    pre-order, where the walk meets it, or at that occurrence's argument;
    without spans it has none.
    """
    memo = ctx.memo
    known = memo.get(term)
    if known is not None:
        return known
    metavar_types = ctx.metavar_types

    def place(node: Term, arg: int | None = None) -> Span:
        return _place(term, spans, node, arg)

    types: list[TypeExpr] = []  # types of the finished subterms, in order
    # Terms to enter, and (term, signature, base of its argument types) to leave.
    stack: list = [term]
    while stack:
        item = stack.pop()
        if item.__class__ is tuple:
            node, sig, base = item
            arg_types = tuple(types[base:])
            del types[base:]
            ty = memo[node] = _result_type(node, sig, arg_types, reg, place)
            types.append(ty)
            continue
        ty = memo.get(item)
        if ty is None:
            if item.head not in metavar_types:
                stack.append((item, _signature(item, ctx, reg, place), len(types)))
                stack.extend(reversed(item.args))
                continue
            if item.args or item.type_args:
                raise DiagnosticError(error(
                    "E-TYPE-MISMATCH", f"metavariable {item.head!r} cannot take arguments", place(item),
                ))
            ty = metavar_types[item.head]
        types.append(ty)
    return types[0]


def _place(term: Term, spans: Sequence[Span], node: Term, arg: int | None) -> Span:
    """The span of ``node``'s first occurrence in ``term`` in pre-order, or
    of that occurrence's ``arg``-th argument, from ``term``'s ``spans``."""
    index, stack = 0, [term]
    while stack:
        sub = stack.pop()
        if sub is node:
            break
        index += 1
        stack.extend(reversed(sub.args))
    if arg is not None:
        index += 1 + sum(len(a.postorder()) for a in node.args[:arg])
    return spans[index] if index < len(spans) else Span()


def term_metavars(term: Term, reg: Registry) -> set[str]:
    """Nullary heads that resolve to neither a constructor nor a function."""
    return {node.head for node in term.postorder()
            if not node.args and not node.type_args and node.head not in reg.types
            and node.head not in reg.functions}


def check_well_formed(reg: Registry) -> list[Diagnostic]:
    """Declaration-level checks beyond name resolution."""
    diags: list[Diagnostic] = []
    cycles = _product_cycles(reg)
    for decl in reg.types.values():
        if isinstance(decl.body, ProductBody):
            labels = [label for label, _ in decl.body.fields]
            for label in {x for x in labels if labels.count(x) > 1}:
                diags.append(error("E-DUP-NAME", f"duplicate field label {label!r} in {decl.name!r}", decl.span))
            if decl.name in cycles:
                diags.append(warning(
                    "W-INHABITATION",
                    f"product type {decl.name!r} recurses without an intervening sum and has no inhabitants",
                    decl.span,
                ))
        else:
            own = TypeExpr(decl.name, tuple(TypeExpr(p) for p in decl.params))
            if _in_closure(None, own, reg) is None:
                diags.append(error(
                    "E-INFINITE-SUM",
                    f"the summand closure of {format_type(own)} is infinite: a sum recurses "
                    f"with growing type arguments",
                    decl.span,
                ))
    for fn in reg.functions.values():
        diags.extend(_check_function(fn, reg))
    return diags


def _product_cycles(reg: Registry) -> set[str]:
    """The product types that reach themselves through fields of product
    types alone: those whose strongly connected component of the
    product-field graph has two or more types or a self-field.  One
    iterative pass of Tarjan's algorithm (*SIAM J. Comput.* 1(2), 1972)
    finds every component."""
    products = {name: decl.body for name, decl in reg.types.items() if isinstance(decl.body, ProductBody)}
    edges = {name: [ty.name for _, ty in body.fields if ty.name in products] for name, body in products.items()}
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    at: dict[str, int] = {}  # the position of each type still on ``stack``
    walk: list[tuple[str, Iterator[str]]] = []  # the depth-first path, with each type's fields left
    cycles: set[str] = set()

    def enter(name: str) -> None:
        index[name] = low[name] = len(index)
        at[name] = len(stack)
        stack.append(name)
        walk.append((name, iter(edges[name])))

    for root in edges:
        if root not in index:
            enter(root)
        while walk:
            name, targets = walk[-1]
            for target in targets:
                if target not in index:
                    enter(target)
                    break
                if target in at:
                    low[name] = min(low[name], index[target])
            else:
                walk.pop()
                if walk:
                    parent = walk[-1][0]
                    low[parent] = min(low[parent], low[name])
                if low[name] == index[name]:
                    component = stack[at[name]:]
                    del stack[at[name]:]
                    for member in component:
                        del at[member]
                    if len(component) > 1 or name in edges[name]:
                        cycles.update(component)
    return cycles


def _check_function(fn: FunctionDecl, reg: Registry) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    names = [p for p, _ in fn.params]
    for name in {x for x in names if names.count(x) > 1}:
        diags.append(error("E-DUP-NAME", f"duplicate parameter {name!r} in function {fn.name!r}", fn.span))
    if isinstance(fn.body, FormulaicBody):
        ctx = TypingContext(dict(fn.params), frozenset(fn.type_params))
        body, spans = fn.body.term, fn.body.term_spans
        try:
            body_ty = infer_type(body, ctx, reg, spans)
            if not conforms(body_ty, fn.return_type, reg):
                diags.append(error(
                    "E-TYPE-MISMATCH",
                    f"body of {fn.name!r} has type {format_type(body_ty)}, "
                    f"expected {format_type(fn.return_type)}",
                    _place(body, spans, body, None),
                ))
        except DiagnosticError as exc:
            diags.extend(exc.diagnostics)
        return diags

    seen_axioms: list[str] = []
    for ax in fn.body.axioms:
        if ax.name in seen_axioms:
            continue  # global duplicate already reported by build_registry
        seen_axioms.append(ax.name)
        if ax.lhs.head != fn.name:
            diags.append(error(
                "E-TYPE-MISMATCH",
                f"axiom {ax.name} must rewrite an application of {fn.name!r}, "
                f"its left-hand side is {format_term(ax.lhs)}",
                ax.span,
            ))
            continue
        metavars = reg.axiom_metavars(ax, fn.name)
        ctx = TypingContext(metavars, frozenset(fn.type_params))
        try:
            lhs_ty = infer_type(ax.lhs, ctx, reg, ax.lhs_spans)
            rhs_ty = infer_type(ax.rhs, ctx, reg, ax.rhs_spans)
        except DiagnosticError as exc:
            diags.extend(exc.diagnostics)
            continue
        for side, ty in (("left", lhs_ty), ("right", rhs_ty)):
            if not conforms(ty, fn.return_type, reg) and not _is_param(ty, fn.type_params):
                diags.append(error(
                    "E-TYPE-MISMATCH",
                    f"axiom {ax.name}: {side}-hand side has type {format_type(ty)}, "
                    f"which does not conform to {format_type(fn.return_type)}",
                    ax.span,
                ))
        for side in (ax.rhs, ax.lhs):
            for name in sorted(term_metavars(side, reg) - set(metavars)):
                diags.append(error(
                    "E-UNRESOLVED",
                    f"axiom {ax.name}: {name!r} is neither a declared name, a parameter "
                    f"of {fn.name!r}, nor annotated with a type",
                    ax.span,
                ))
    return diags


def _is_param(ty: TypeExpr, type_params: tuple[str, ...]) -> bool:
    return not ty.args and ty.name in type_params
