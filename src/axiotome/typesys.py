"""Declaration registry, well-formedness checks and term typing.

The registry is built in two passes (collect names, then resolve bodies) so
forward references work regardless of declaration order.  Product type names
double as constructor names; sum types have no constructor of their own.
Conformance is width subtyping through sums with invariant type arguments.
"""

from __future__ import annotations

from functools import cached_property, partial
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Container, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

from .diagnostics import Diagnostic, DiagnosticError, Span, error, warning
from .syntax import (
    Axiom, EquationalBody, FormulaicBody, Frozen, FunctionDecl, OperatorDecl,
    ProductBody, Program, SumBody, Term, TheoremDecl, TypeDecl, TypeExpr,
    format_term, format_type,
)

if TYPE_CHECKING:
    from .rewrite import RuleSet


_Node = TypeVar("_Node")


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
    tables derived from them (``rules``, ``signatures``, ``sums``) cannot
    go stale.
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
    def sums(self) -> Mapping[str, frozenset[TypeExpr]]:
        """The summands of each sum type without type parameters, as a set
        of bare types, by name, built whole on first use."""
        return MappingProxyType({name: frozenset(s.bare for s in decl.body.summands)
                                 for name, decl in self.types.items()
                                 if isinstance(decl.body, SumBody) and not decl.params})

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


def _in_closure(sub: TypeExpr, sup: TypeExpr, reg: Registry) -> bool:
    """Whether ``sub`` lies in ``sup``'s summand closure, walked with a seen
    set so that cyclic sums end, and given up as False once the walk passes
    ``CLOSURE_BOUND`` types without meeting ``sub``.  A sum without type
    parameters reads its summands from ``reg.sums``; an instance of a
    generic sum substitutes its type arguments into its summands."""
    sums = reg.sums
    todo, seen = [sup], {sup}
    while todo:
        ty = todo.pop()
        parts = sums.get(ty.name)
        if parts is None:
            parts = summands(ty, reg) or ()
        if sub in parts:
            return True
        todo += [s for s in parts if s not in seen]
        seen.update(parts)
        if len(seen) > CLOSURE_BOUND:
            return False
    return False


def conforms(sub: TypeExpr, sup: TypeExpr, reg: Registry) -> bool:
    """Structural equality, or membership in ``sup``'s summand closure.
    Type arguments are invariant.  Past ``CLOSURE_BOUND`` types of a
    closure, as of an infinite one, which ``check_well_formed`` reports,
    the answer is False."""
    return sub == sup or _in_closure(sub, sup, reg)


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
    for name in reg.sums:
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


def _signature(term: Term, ctx: TypingContext, reg: Registry, root: Term, spans: Sequence[Span]) \
        -> ConstructorSignature:
    """Signature of the function or constructor at ``term``'s head, once
    ``term`` is checked to give it as many type arguments (if any) and
    arguments as it declares.  An error lies at ``term`` within ``root``,
    the term being typed, whose nodes have ``spans`` (``_place``)."""
    sig = reg.signatures.get(term.head)
    if sig is None:
        if term.head in reg.types:
            raise DiagnosticError(error(
                "E-NO-CONSTRUCTOR", f"sum type {term.head!r} has no constructor", _place(root, spans, term),
            ))
        if term.head in ctx.type_params:
            raise DiagnosticError(error(
                "E-UNRESOLVED", f"type parameter {term.head!r} used as a term", _place(root, spans, term),
            ))
        raise DiagnosticError(error("E-UNRESOLVED", f"unknown term head {term.head!r}", _place(root, spans, term)))
    explicit = term.type_args
    if explicit and len(explicit) != len(sig.type_params):
        raise DiagnosticError(error(
            "E-ARITY",
            f"{term.head!r} expects {len(sig.type_params)} type argument(s), got {len(explicit)}",
            _place(root, spans, term),
        ))
    if len(term.args) != len(sig.fields):
        raise DiagnosticError(error(
            "E-ARITY",
            f"{term.head!r} expects {len(sig.fields)} argument(s), got {len(term.args)}",
            _place(root, spans, term),
        ))
    return sig


def _result_type(term: Term, sig: ConstructorSignature, arg_types: tuple[TypeExpr, ...], reg: Registry,
                 root: Term, spans: Sequence[Span]) -> TypeExpr:
    """Type of the application ``term`` given its arguments' types: solve
    the type parameters not given explicitly, then check each argument.  A
    signature without type parameters checks each argument against its
    declared type and gives its declared result type."""
    if not sig.type_params:
        for i, ((_, pty), aty) in enumerate(zip(sig.fields, arg_types)):
            if not conforms(aty, pty, reg):
                raise _mismatch(term, i, aty, pty, root, spans)
        return sig.result_type
    explicit = term.type_args
    bindings: dict[str, TypeExpr] = dict(zip(sig.type_params, explicit))
    params = set(sig.type_params)
    if not explicit:
        for i, ((_, pty), aty) in enumerate(zip(sig.fields, arg_types)):
            _solve_params(pty, aty, params, bindings, reg, partial(_place, root, spans, term, i))
    for i, ((_, pty), aty) in enumerate(zip(sig.fields, arg_types)):
        expected = substitute_type(pty, bindings)
        if not _mentions_unsolved(expected, params, bindings) and not conforms(aty, expected, reg):
            raise _mismatch(term, i, aty, expected, root, spans)
    # Unsolved parameters stay symbolic (e.g. Nil's unused element type).
    return substitute_type(sig.result_type, bindings)


def _mismatch(term: Term, i: int, actual: TypeExpr, expected: TypeExpr, root: Term,
              spans: Sequence[Span]) -> DiagnosticError:
    """The error of ``term``'s ``i``-th argument, of type ``actual``, where
    ``expected`` was due."""
    return DiagnosticError(error(
        "E-TYPE-MISMATCH",
        f"argument {format_term(term.args[i])} of {term.head!r}: "
        f"{format_type(actual)} does not conform to {format_type(expected)}",
        _place(root, spans, term, i),
    ))


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
    types: list[TypeExpr] = []  # types of the finished subterms, in order
    # Terms to enter, and (term, signature, base of its argument types) to leave.
    stack: list = [term]
    while stack:
        item = stack.pop()
        if item.__class__ is tuple:
            node, sig, base = item
            arg_types = tuple(types[base:])
            del types[base:]
            ty = memo[node] = _result_type(node, sig, arg_types, reg, term, spans)
            types.append(ty)
            continue
        ty = memo.get(item)
        if ty is None:
            if item.head not in metavar_types:
                stack.append((item, _signature(item, ctx, reg, term, spans), len(types)))
                stack.extend(reversed(item.args))
                continue
            if item.args or item.type_args:
                raise DiagnosticError(error(
                    "E-TYPE-MISMATCH", f"metavariable {item.head!r} cannot take arguments",
                    _place(term, spans, item),
                ))
            ty = metavar_types[item.head]
        types.append(ty)
    return types[0]


def _place(term: Term, spans: Sequence[Span], node: Term, arg: int | None = None) -> Span:
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
    cycles, infinite = _product_cycles(reg), _infinite_sums(reg)
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
        elif decl.name in infinite:
            own = TypeExpr(decl.name, tuple(TypeExpr(p) for p in decl.params))
            diags.append(error(
                "E-INFINITE-SUM",
                f"the summand closure of {format_type(own)} is infinite: a sum recurses "
                f"with growing type arguments",
                decl.span,
            ))
    for fn in reg.functions.values():
        diags.extend(_check_function(fn, reg))
    return diags


def _components(edges: Mapping[_Node, Iterable[_Node]]) -> Iterator[list[_Node]]:
    """The strongly connected components of the graph ``edges``, each as
    soon as it is complete, so after every component it reaches: one
    iterative pass of Tarjan's algorithm (*SIAM J. Comput.* 1(2), 1972)."""
    index: dict[_Node, int] = {}
    low: dict[_Node, int] = {}
    stack: list[_Node] = []
    at: dict[_Node, int] = {}  # the position of each node still on ``stack``
    walk: list[tuple[_Node, Iterator[_Node]]] = []  # the depth-first path, with each node's edges left

    def enter(node: _Node) -> None:
        index[node] = low[node] = len(index)
        at[node] = len(stack)
        stack.append(node)
        walk.append((node, iter(edges[node])))

    for root in edges:
        if root not in index:
            enter(root)
        while walk:
            node, targets = walk[-1]
            for target in targets:
                if target not in index:
                    enter(target)
                    break
                if target in at:
                    low[node] = min(low[node], index[target])
            else:
                walk.pop()
                if walk:
                    parent = walk[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = stack[at[node]:]
                    del stack[at[node]:]
                    for member in component:
                        del at[member]
                    yield component


def _product_cycles(reg: Registry) -> set[str]:
    """The product types that reach themselves through fields of product
    types alone: those whose strongly connected component of the
    product-field graph has two or more types or a self-field."""
    products = {name: decl.body for name, decl in reg.types.items() if isinstance(decl.body, ProductBody)}
    edges = {name: [ty.name for _, ty in body.fields if ty.name in products] for name, body in products.items()}
    return {name for component in _components(edges)
            if len(component) > 1 or component[0] in edges[component[0]] for name in component}


def _infinite_sums(reg: Registry) -> set[str]:
    """The sum types whose summand closure is infinite, found without
    walking any closure: Kennedy and Pierce's expansive-recursion test ("On
    Decidability of Nominal Subtyping with Variance", FOOL 2007), in time
    linear in the declarations.

    A closure is a walk from a sum's own type, with its type parameters for
    arguments, to the summands of each sum type it meets, instantiated.  So
    a type written in a sum's declaration is met when it is a summand or an
    argument of a met type at a *promoted* position: one whose parameter is
    itself met, as ``T`` is, a summand of ``Option[T] ≡ Sum[T, None]``.
    Each met type ``Q[..., A_j, ...]`` in the declaration of ``S``, ``Q`` a
    sum, gives an edge from each parameter ``X`` of ``S`` that ``A_j``
    holds to ``Q``'s ``j``-th parameter, *expansive* where ``A_j`` is not
    ``X`` itself.  A closure is infinite exactly when it meets a sum with a
    parameter on a cycle of these edges through an expansive one: each lap
    of the cycle nests that argument deeper.  A met parameter named like a
    declared sum is taken to meet that sum, as it does in its own type."""
    decls = {name: decl for name, decl in reg.types.items() if isinstance(decl.body, SumBody)}
    position = {name: {p: i for i, p in enumerate(decl.params)} for name, decl in decls.items()}
    promoted: set[tuple[str, int]] = set()
    met: dict[str, list[tuple[str, TypeExpr]]] = {}  # by head: each met sum type and whose declaration has it
    meets: dict[str, set[str]] = {name: set() for name in decls}  # the sums each sum's closure goes on to
    edges: dict[tuple[str, int], list[tuple[str, int]]] = {
        (name, i): [] for name, decl in decls.items() for i in range(len(decl.params))}
    expansive: list[tuple[tuple[str, int], tuple[str, int]]] = []
    todo = [(name, ty) for name, decl in decls.items() for ty in decl.body.summands]
    while todo:
        owner, ty = todo.pop()
        at = position[owner].get(ty.name)
        if at is not None and not ty.args:
            if (owner, at) not in promoted:
                promoted.add((owner, at))
                if ty.name in decls:
                    meets[owner].add(ty.name)
                todo += [(user, use.args[at]) for user, use in met.get(owner, ()) if at < len(use.args)]
        elif ty.name in decls:
            meets[owner].add(ty.name)
            met.setdefault(ty.name, []).append((owner, ty))
            params = decls[ty.name].params
            todo += [(owner, arg) for j, arg in enumerate(ty.args[:len(params)]) if (ty.name, j) in promoted]
            for name, arg in dict(zip(params, ty.args)).items():
                target = (ty.name, position[ty.name][name])
                for leaf in _leaves(arg):
                    source = (owner, position[owner].get(leaf.name))
                    if source[1] is not None:
                        edges[source].append(target)
                        if leaf is not arg:
                            expansive.append((source, target))
    component = {node: i for i, nodes in enumerate(_components(edges)) for node in nodes}
    growing = {source[0] for source, target in expansive if component[source] == component[target]}
    # Components come after every component they reach, so a sum meets an
    # infinite closure by then.
    infinite: set[str] = set()
    for names in _components(meets):
        if any(name in growing or not meets[name].isdisjoint(infinite) for name in names):
            infinite.update(names)
    return infinite


def _leaves(ty: TypeExpr) -> Iterator[TypeExpr]:
    """The nodes of ``ty`` without type arguments."""
    stack = [ty]
    while stack:
        node = stack.pop()
        if node.args:
            stack.extend(node.args)
        else:
            yield node


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

    type_params = frozenset(fn.type_params)
    shared = None  # the context of every axiom without annotations: the function's parameters alone
    seen_axioms: set[str] = set()
    for ax in fn.body.axioms:
        if ax.name in seen_axioms:
            continue  # global duplicate already reported by build_registry
        seen_axioms.add(ax.name)
        if ax.lhs.head != fn.name:
            diags.append(error(
                "E-TYPE-MISMATCH",
                f"axiom {ax.name} must rewrite an application of {fn.name!r}, "
                f"its left-hand side is {format_term(ax.lhs)}",
                ax.span,
            ))
            continue
        if ax.metavar_types:
            ctx = TypingContext(reg.axiom_metavars(ax, fn.name), type_params)
        else:
            ctx = shared = shared or TypingContext(dict(fn.params), type_params)
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
    return diags


def _is_param(ty: TypeExpr, type_params: tuple[str, ...]) -> bool:
    return not ty.args and ty.name in type_params
