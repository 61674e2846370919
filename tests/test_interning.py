"""Interned terms and types: one object per distinct structure, equality by
identity, and the weakly held tables that intern them."""

from __future__ import annotations

import gc
import io
import pickle
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from axiotome.cli import main
from axiotome.diagnostics import Span
from axiotome.syntax import Term, TypeExpr, format_term, nodes, parse_term

from conftest import BOOL_FNS, corpus_path

BOOL_PATHS = [str(corpus_path(n)) for n in BOOL_FNS]

#: A term's structure as (head, type argument names, children), built into
#: a term only by ``_build``.
SHAPES = st.recursive(
    st.tuples(st.sampled_from(["False", "True", "a", "Nil"]), st.just(()), st.just(())),
    lambda children: st.tuples(st.sampled_from(["not", "and", "or", "Pair"]),
                               st.lists(st.sampled_from(["Boolean", "List"]), max_size=2).map(tuple),
                               st.lists(children, min_size=1, max_size=3).map(tuple)),
    max_leaves=12,
)


def _build(shape, span: Span = Span()) -> Term:
    head, type_names, children = shape
    type_args = tuple(TypeExpr(name, (), span) for name in type_names)
    return Term(head, type_args, tuple(_build(child, span) for child in children))


def _chain(head: str, leaf: Term, depth: int) -> Term:
    for _ in range(depth):
        leaf = Term(head, (), (leaf,))
    return leaf


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(SHAPES)
def test_equal_structure_is_one_object(shape):
    term = _build(shape)
    assert _build(shape) is term
    assert _build(shape, Span("elsewhere.axm", 3, 7, 1)) is term  # a type argument's span is not identity
    assert parse_term(format_term(term)) is term
    assert pickle.loads(pickle.dumps(term)) is term


def test_deep_terms_and_types_compare_and_hash_without_recursion():
    depth = 100_000
    deep = _chain("not", Term("False"), depth)
    assert deep is _chain("not", Term("False"), depth)
    assert deep == deep and deep != _chain("not", Term("True"), depth)
    assert {deep: 1}[deep] == 1
    plain, spanned = TypeExpr("Boolean"), TypeExpr("Boolean", (), Span("t.axm", 1, 1, 7))
    for _ in range(depth):
        plain, spanned = TypeExpr("List", (plain,)), TypeExpr("List", (spanned,), Span("t.axm", 1, 1, 4))
    assert plain == spanned and hash(plain) == hash(spanned) and spanned.bare is plain.bare
    assert plain != TypeExpr("List", (plain,))


def test_table_entries_go_with_their_objects():
    gc.collect()
    terms, types = len(nodes._TERMS), len(nodes._TYPES)
    term = parse_term("and(not(interned°a), Pair[interned°T](interned°b, interned°a))")
    assert (len(nodes._TERMS), len(nodes._TYPES)) == (terms + 5, types + 1)
    del term
    assert (len(nodes._TERMS), len(nodes._TYPES)) == (terms, types)


def test_cli_runs_leave_the_table_at_its_starting_size(tmp_path):
    de_morgan = str(corpus_path("de_morgan_original.axm"))
    runs = [
        ["check", *BOOL_PATHS, de_morgan],
        ["validate", *BOOL_PATHS, de_morgan],
        ["fill", de_morgan, *BOOL_PATHS, "-o", str(tmp_path / "out.axm")],
        ["eval", "and(not(False), or(True, False))", *BOOL_PATHS],
        ["fmt", "--check", de_morgan],
    ]
    gc.collect()
    start = len(nodes._TERMS), len(nodes._TYPES)
    for i in range(50):
        main(runs[i % len(runs)], io.StringIO(), io.StringIO())
    gc.collect()
    assert (len(nodes._TERMS), len(nodes._TYPES)) == start


def test_threads_that_build_the_same_terms_get_one_object():
    # Every term is new to the table, so the threads race to record each.
    shapes = [("and", (f"race°T{i}",), (("not", (), ((f"race°a{i}", (), ()),)), (f"race°b{i}", (), ())))
              for i in range(300)]
    barrier = threading.Barrier(8)
    results = {}

    def work(i):
        barrier.wait(timeout=60)
        results[i] = [_build(shape) for shape in shapes]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    first = results[0]
    for i in range(1, 8):
        assert all(mine is theirs for mine, theirs in zip(results[i], first))
        assert all(mine.type_args[0] is theirs.type_args[0] for mine, theirs in zip(results[i], first))
    assert [_build(shape) for shape in shapes] == first
