"""The kernel's records, named tuples and plain classes, keep their
semantics: equality that ignores spans where it always did, immutability,
pickling, and a diagnostic code checked however a diagnostic is built."""

from __future__ import annotations

import pickle

import pytest

from axiotome.diagnostics import Diagnostic, Severity, Span, error
from axiotome.rewrite import StepEnv, StepVerdict, check_justified_step
from axiotome.syntax import RuleJustification, parse_program, parse_term, tokenize

from conftest import BOOL_FNS, PROGRAM_FIXTURES, corpus_text, load_registry
from test_syntax import NODE_KINDS, _nodes


def _node_pairs(kind) -> list[tuple]:
    """The nodes of ``kind`` in the first corpus program that has one, each
    beside its twin from a parse of the same text two lines further down."""
    for name in PROGRAM_FIXTURES:
        text = corpus_text(name)
        here = [n for n in _nodes(parse_program(text, name)) if isinstance(n, kind)]
        if here:
            there = [n for n in _nodes(parse_program("\n\n" + text, "elsewhere.axm")) if isinstance(n, kind)]
            return list(zip(here, there, strict=True))
    raise AssertionError(f"no corpus program has a {kind.__name__}")


def _verdict() -> StepVerdict:
    registry = load_registry(*BOOL_FNS)
    return check_justified_step(parse_term("not(False)"), parse_term("True"),
                                RuleJustification(("$not°F",)), StepEnv(registry))


def _rule():
    return load_registry(*BOOL_FNS).rules.named["$not°F"]


def _token_pairs() -> list[tuple]:
    """The tokens of a corpus text, each beside its twin from the same text
    after a comment and a blank line, so spans and trivia differ."""
    text = corpus_text("not_function.axm")
    return list(zip(tokenize(text), tokenize("// moved\n\n" + text, "elsewhere.axm"), strict=True))


#: Pairs of equal records built apart, by record kind: the AST nodes, then
#: the others.
OTHERS = {
    "Diagnostic": lambda: [(error("E-SYNTAX", "m", Span("a.axm", 2, 3, 4)),
                            Diagnostic(Severity.ERROR, "E-SYNTAX", "m", Span("a.axm", 2, 3, 4)))],
    "StepVerdict": lambda: [(_verdict(), _verdict())],
    "RewriteRule": lambda: [(_rule(), _rule().reversed().reversed())],
    "Token": _token_pairs,
}
RECORDS = {**{kind.__name__: lambda kind=kind: _node_pairs(kind) for kind in NODE_KINDS}, **OTHERS}


@pytest.mark.parametrize("record", RECORDS)
def test_records_compare_hash_pickle_and_refuse_changes(record):
    pairs = RECORDS[record]()
    for a, b in pairs:
        assert a == b and not a != b
        if record != "StepVerdict":  # its witness holds a substitution, a dict
            assert hash(a) == hash(b)
        assert pickle.loads(pickle.dumps(a)) == a
        field = a._fields[0] if isinstance(a, tuple) else "name"
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    if record not in OTHERS or record == "Token":
        # Equal, yet parsed at other places: equality ignores the spans.
        assert all(a.span != b.span for a, b in pairs if hasattr(a, "span"))
    if record not in ("Diagnostic", "StepVerdict"):  # ``_node`` records equal no plain tuple
        assert all(a != tuple(a) for a, _ in pairs if isinstance(a, tuple))
    if record == "Diagnostic":
        with pytest.raises(ValueError):
            Diagnostic(Severity.ERROR, "E-UNPUBLISHED", "m")
        with pytest.raises(ValueError):
            pairs[0][0]._replace(code="E-UNPUBLISHED")
    if record == "StepVerdict":
        assert pairs[0][0].justified and pairs[0][0].witness
    if record == "RewriteRule":
        rule = pairs[0][0]
        assert rule.reversed() != rule and rule.reversed().reversed() == rule
        assert not hasattr(rule, "__dict__")  # nothing can be cached on a rule
    if record == "Token":
        assert pairs[0][0].trivia != pairs[0][1].trivia
