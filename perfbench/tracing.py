"""Traced runs of the CLI and the finer per-layer probes.

A traced job runs ``axiotome.cli.main`` itself under one root span.  For
the job's duration, the kernel functions the CLI calls (``parse_program``,
``build_registry``, ``check_well_formed``, ``verify_theorem``,
``brute_force_validate``, ``repair_theorem`` and ``format_node``) are
replaced in the ``axiotome.cli`` namespace by wrappers that record a span
around each call and keep what the probes need.

Probes run after the job's span, under a root span of their own: they
tokenize the sources, replay every written hop through
``check_justified_step`` (or ``infer_step_justification`` when the step has
no ``via``), close every gap of a repaired proof with ``fill_gap``, expand a
capped breadth-first frontier with ``successor_moves`` from each gap source,
and repeat the oracle's normalizations.  They also count the work done.
"""

from __future__ import annotations

import io
import itertools
from collections import Counter, deque
from contextlib import contextmanager
from time import perf_counter

import axiotome.cli as cli
from axiotome.oracle import enumerable_domain, normalize
from axiotome.rewrite import StepEnv, apply_substitution, check_justified_step, term_vars
from axiotome.search import fill_gap, infer_step_justification, successor_moves
from axiotome.syntax import LinearProof, tokenize

#: Nodes expanded by the ``successor_moves`` probe from each gap source.
FRONTIER_NODES = 40


class Tracer:
    """Spans kept in memory as (name, start, end, parent index, job id)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, str]] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []
        self.job = ""

    def call(self, name: str, fn, *args):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.job))
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans[index] = (name, start, perf_counter(), parent, self.job)
            self._open.pop()

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time of child spans."""
        out: Counter[str] = Counter()
        for name, start, end, parent, _ in self.spans:
            out[name] += end - start
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return dict(out)


# --------------------------------------------------------------- traced CLI

#: The kernel functions ``axiotome.cli`` calls, and the span of each.
SPANS = {
    "parse_program": "syntax.parse_program",
    "format_node": "syntax.format_node",
    "build_registry": "typesys.build_registry",
    "check_well_formed": "typesys.check_well_formed",
    "verify_theorem": "verifier.verify_theorem",
    "repair_theorem": "search.repair_theorem",
    "brute_force_validate": "oracle.brute_force_validate",
}


def _record(name: str, args: tuple, result, work: dict) -> None:
    """Keep what the probes need from one call the CLI made."""
    if name == "parse_program":
        work["sources"][args[1]] = args[0]
    elif name == "build_registry":
        work["registry"] = result[0]
    elif name == "verify_theorem":
        work["verified"].append(args[0])
    elif name == "repair_theorem":
        work["repaired"].append((args[0], args[3]))
    elif name == "brute_force_validate":
        work["validated"].append(args)


@contextmanager
def _traced_cli(tr: Tracer, work: dict):
    saved = {name: getattr(cli, name) for name in SPANS}

    def wrap(name, fn):
        def traced(*args):
            result = tr.call(SPANS[name], fn, *args)
            _record(name, args, result, work)
            return result
        return traced

    for name, fn in saved.items():
        setattr(cli, name, wrap(name, fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def run_job(main, argv: list[str], tr: Tracer) -> tuple[int, str, str, dict]:
    """Run ``main`` (``axiotome.cli.main``) on one job's ``argv`` with the
    kernel calls traced; returns the exit code, the printed text and what
    the probes need."""
    out, err = io.StringIO(), io.StringIO()
    work = {"sources": {}, "verified": [], "validated": [], "repaired": [], "registry": None}
    with _traced_cli(tr, work):
        code = tr.call("cli.job", main, argv, out, err)
    return code, out.getvalue(), err.getvalue(), work


# ------------------------------------------------------------------ probes

def _segments(body, bindings=()):
    if isinstance(body, LinearProof):
        yield bindings, body.steps
        return
    for case in body.cases:
        yield from _segments(case.body, bindings + case.ranges)


def _frontier(source, target, env: StepEnv, tr: Tracer) -> None:
    registry = env.registry
    scope = frozenset(term_vars(source, registry) | term_vars(target, registry)
                      | {q.var for q in env.case_bindings})
    queue, seen = deque([source]), {source}
    for _ in range(FRONTIER_NODES):
        if not queue:
            break
        term = queue.popleft()
        tr.counts["search.nodes"] += 1
        for _, result in tr.call("search.successor_moves", successor_moves, term, env, scope):
            if result not in seen:
                seen.add(result)
                queue.append(result)


def probe(work: dict, tr: Tracer) -> None:
    tr.call("probe", _probe, work, tr)


def _probe(work: dict, tr: Tracer) -> None:
    counts = tr.counts
    for path, text in work["sources"].items():
        counts["syntax.tokens"] += len(tr.call("syntax.tokenize", tokenize, text, path))
    registry = work["registry"]
    budgets = {id(thm): budget for thm, budget in work["repaired"]}
    for thm in work["verified"]:
        counts["verifier.theorems"] += 1
        for bindings, steps in _segments(thm.proof):
            env = StepEnv(registry, bindings, thm.name)
            for prev, step in zip(steps, steps[1:]):
                counts["verifier.hops"] += 1
                if step.justification is not None:
                    counts["rewrite.steps_checked"] += 1
                    ok = tr.call("rewrite.check_justified_step", check_justified_step,
                                 prev.term, step.term, step.justification, env).justified
                else:
                    counts["search.inferences"] += 1
                    ok = tr.call("search.infer_step_justification", infer_step_justification,
                                 prev.term, step.term, env) is not None
                if not ok and id(thm) in budgets:
                    counts["search.gaps"] += 1
                    chain = tr.call("search.fill_gap", fill_gap, prev.term, step.term, env,
                                    budgets[id(thm)])
                    counts["search.gaps_filled"] += chain is not None
                    _frontier(prev.term, step.term, env, tr)
    for quantifiers, lhs, rhs, _, budget in work["validated"]:
        domains = [enumerable_domain(domain, registry).inhabitants for _, domain in quantifiers]
        names = [var for var, _ in quantifiers]
        for combo in itertools.product(*domains):
            counts["oracle.assignments"] += 1
            sigma = dict(zip(names, combo))
            sides = [tr.call("oracle.normalize", normalize, apply_substitution(sigma, side),
                             registry, budget) for side in (lhs, rhs)]
            counts["oracle.normalize_calls"] += 2
            counts["oracle.rewrites"] += sides[0].steps + sides[1].steps
            if sides[0].normal_form != sides[1].normal_form or any(s.exhausted_budget for s in sides):
                break
