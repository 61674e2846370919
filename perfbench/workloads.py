"""Seeded generators for the benchmark workloads, with their known answers.

Every job is one CLI invocation on one generated ``.axm`` file plus the shared
definitions file ``DEFS``.  The known answer of each job is computed here in
plain Python (ground rewriting and truth tables over booleans), without
importing ``axiotome``, so a kernel defect cannot hide in its own oracle.

Terms are strings (``"False"``, ``"True"`` or a metavariable) or tuples
``(head, arg, ...)``.  Justifications are ``None`` (no ``via``),
``("rule", names)`` or ``("case", ((var, constant), ...))``.

The shape of each workload (how many jobs, theorems, hops and variables of
each kind) is fixed; the seed chooses only details that leave the cost of a
pass about the same, so that runs with different seeds can be compared.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

WORKLOADS = ("check-proofs", "validate-identities", "fill-gaps")

DEFS_NAME = "defs.axm"

DEFS = """\
type False ≡ Product[]
type True ≡ Product[]
type Boolean ≡ Sum[False, True]
function not(b: Boolean) : Boolean
  allowing $not°F: not(False) ↔ True
           $not°T: not(True) ↔ False
function and(a: Boolean, b: Boolean) : Boolean
  allowing $and°FF: and(False, False) ↔ False
           $and°FT: and(False, True) ↔ False
           $and°TF: and(True, False) ↔ False
           $and°TT: and(True, True) ↔ True
function or(a: Boolean, b: Boolean) : Boolean
  allowing $or°FF: or(False, False) ↔ False
           $or°FT: or(False, True) ↔ True
           $or°TF: or(True, False) ↔ True
           $or°TT: or(True, True) ↔ True
"""

CONSTANTS = ("False", "True")
_OPS = {"not": lambda a: not a, "and": lambda a, b: a and b, "or": lambda a, b: a or b}
_DUAL = {"and": "or", "or": "and"}


# ------------------------------------------------------------------- terms

def fmt(t) -> str:
    """The kernel's canonical rendering of a term (``format_term``)."""
    if isinstance(t, str):
        return t
    return f"{t[0]}({', '.join(fmt(a) for a in t[1:])})"


def const(b: bool) -> str:
    return "True" if b else "False"


def evaluate(t, env: dict[str, bool] | None = None) -> bool:
    if isinstance(t, str):
        return t == "True" if t in CONSTANTS else env[t]
    return _OPS[t[0]](*(evaluate(a, env) for a in t[1:]))


def subst(t, env: dict[str, str]):
    if isinstance(t, str):
        return env.get(t, t)
    return (t[0],) + tuple(subst(a, env) for a in t[1:])


def variables(t) -> list[str]:
    """Metavariables in order of first occurrence."""
    if isinstance(t, str):
        return [] if t in CONSTANTS else [t]
    out: list[str] = []
    for a in t[1:]:
        out += [v for v in variables(a) if v not in out]
    return out


def positions(t, path=()):
    yield path, t
    if not isinstance(t, str):
        for i, a in enumerate(t[1:]):
            yield from positions(a, path + (i,))


def replace(t, path, new):
    if not path:
        return new
    i = path[0] + 1
    return t[:i] + (replace(t[i], path[1:], new),) + t[i + 1:]


def _subterm(t, path):
    for i in path:
        t = t[i + 1]
    return t


def axiom_name(redex) -> str:
    """The axiom that rewrites a ground redex such as ``and(True, False)``."""
    return f"${redex[0]}°" + "".join(a[0] for a in redex[1:])


def axiom_sides(name: str):
    head, letters = name[1:].split("°")
    lhs = (head,) + tuple("True" if c == "T" else "False" for c in letters)
    return lhs, const(evaluate(lhs))


def _disjoint(p, q) -> bool:
    shorter = min(len(p), len(q))
    return p[:shorter] != q[:shorter]


def _rewrites(prev, term, axioms, used):
    if not axioms:
        yield term
        return
    lhs, rhs = axiom_sides(axioms[0])
    for src, dst in ((lhs, rhs), (rhs, lhs)):
        for path, sub in positions(prev):
            if sub == src and all(_disjoint(path, u) for u in used):
                yield from _rewrites(prev, replace(term, path, dst), axioms[1:], used + (path,))


def justifies(prev, nxt, *axioms: str) -> bool:
    """Does applying each of ``axioms`` once, in either direction, at
    pairwise disjoint positions of ``prev`` rewrite it into ``nxt``?  This
    is how the kernel reads a ``via`` that lists several axioms."""
    return any(t == nxt for t in _rewrites(prev, prev, axioms, ()))


def parse(text: str):
    """The term that ``fmt`` renders as ``text``."""
    term, rest = _parse(text.replace(" ", ""))
    if rest:
        raise ValueError(f"trailing text {rest!r}")
    return term


def _parse(text: str):
    cut = min((text.find(c) for c in "()," if c in text), default=len(text))
    head, rest = text[:cut], text[cut:]
    if not head:
        raise ValueError(f"no term at {text!r}")
    if not rest.startswith("("):
        return head, rest
    args, rest = [], rest[1:]
    while True:
        arg, rest = _parse(rest)
        args.append(arg)
        if rest.startswith(")"):
            return (head,) + tuple(args), rest[1:]
        if not rest.startswith(","):
            raise ValueError(f"expected ',' or ')' at {rest!r}")
        rest = rest[1:]


def reduction_hops(t, rng: random.Random, pair_p: float) -> list[tuple[object, tuple]]:
    """Rewrite a ground term to its value, leftmost innermost redex first.
    With probability ``pair_p`` a hop rewrites the two leftmost redexes at
    once, justified by a paired ``via``."""
    hops = []
    while not isinstance(t, str):
        redexes = [(p, s) for p, s in positions(t)
                   if not isinstance(s, str) and all(isinstance(a, str) for a in s[1:])]
        # A redex has only constant arguments, so no redex contains another;
        # sorting the paths orders them left to right.
        redexes.sort(key=lambda ps: ps[0])
        take = redexes[:2] if len(redexes) >= 2 and rng.random() < pair_p else redexes[:1]
        names = []
        for path, sub in take:
            t = replace(t, path, const(evaluate(sub)))
            names.append(axiom_name(sub))
        hops.append((t, ("rule", tuple(names))))
    return hops


def not_chain(k: int, base: str = "False"):
    t = base
    for _ in range(k):
        t = ("not", t)
    return t


# ------------------------------------------------------------------ proofs

@dataclass
class Step:
    term: object
    via: tuple | None = None


@dataclass
class Segment:
    """One linear run of steps: a whole linear proof or one case."""

    bindings: tuple[tuple[str, str], ...]
    steps: list[Step]
    corrupt_at: int | None = None   # index of the seeded bad step
    deleted: int = 0                # steps removed for fill-gaps
    kept_terms: list[str] = field(default_factory=list)
    lines: list[int] = field(default_factory=list)


@dataclass
class Theorem:
    name: str
    quants: list[str]
    lhs: object
    rhs: object
    segments: list[Segment]
    cases: bool


def fmt_via(via) -> str:
    kind, items = via
    if kind == "rule":
        return items[0] if len(items) == 1 else f"({', '.join(items)})"
    rendered = ", ".join(f"∀{v} ∈ {c}" for v, c in items)
    return rendered if len(items) == 1 else f"({rendered})"


def render(theorems: list[Theorem]) -> str:
    """Source text of ``theorems``; records each step's line number."""
    lines: list[str] = []

    def emit(text: str) -> int:
        lines.append(text)
        return len(lines)

    for thm in theorems:
        quant = "".join(f"∀{v} ∈ Boolean, " for v in thm.quants)
        if quant:
            quant = quant[:-2] + ": "
        emit(f"theorem ¶{thm.name}: {quant}{fmt(thm.lhs)} ↔ {fmt(thm.rhs)}")
        if thm.cases:
            subjects = thm.quants[0] if len(thm.quants) == 1 else f"({', '.join(thm.quants)})"
            emit(f"proof by cases of {subjects} using Boolean = False U True")
        else:
            emit("proof")
        for seg in thm.segments:
            pad = "  "
            if thm.cases:
                emit("  case " + ", ".join(f"∀{v} ∈ {c}" for v, c in seg.bindings) + ":")
                pad = "    "
            seg.lines = []
            for i, step in enumerate(seg.steps):
                via = f" via {fmt_via(step.via)}" if step.via is not None else ""
                seg.lines.append(emit(f"{pad}{i}. {fmt(step.term)}{via}"))
    return "\n".join(lines) + "\n"


def chain_theorem(name: str, k: int, rng: random.Random, cite: str | None = None,
                  cite_p: float = 0.0) -> Theorem:
    """``not^k(False) ↔ value`` proved hop by hop from the inside out; with
    ``cite`` some double hops cite the double-negation theorem."""
    term = not_chain(k)
    steps = [Step(term)]
    depth = k
    base = "False"
    while depth:
        if cite and depth >= 2 and rng.random() < cite_p:
            depth -= 2
            steps.append(Step(not_chain(depth, base), ("rule", (cite,))))
            continue
        via = ("rule", ("$not°F" if base == "False" else "$not°T",))
        base = "True" if base == "False" else "False"
        depth -= 1
        steps.append(Step(not_chain(depth, base), via))
    return Theorem(name, [], term, base, [Segment((), steps)], cases=False)


def _without_detours(steps: list[Step]) -> list[Step]:
    """Cut the loop when the reduction of the right side passes through a
    term already on the path; the via after the loop still applies."""
    i = 0
    while i < len(steps):
        later = [j for j in range(len(steps) - 1, i, -1) if steps[j].term == steps[i].term]
        if later:
            steps = steps[:i + 1] + steps[later[0] + 1:]
        i += 1
    return steps


def case_theorem(name: str, lhs, rhs, rng: random.Random, pair_p: float) -> Theorem:
    """Proof by cases over every metavariable: introduce the constants,
    reduce the left side to its value, expand the value back into the
    right side, eliminate the constants."""
    quants = sorted(set(variables(lhs)) | set(variables(rhs)))
    segments = []
    for combo in itertools.product(CONSTANTS, repeat=len(quants)):
        bindings = tuple(zip(quants, combo))
        env = dict(bindings)
        case_via = ("case", bindings)
        left, right = subst(lhs, env), subst(rhs, env)
        steps = [Step(lhs), Step(left, case_via)]
        steps += [Step(t, v) for t, v in reduction_hops(left, rng, pair_p)]
        down = reduction_hops(right, rng, pair_p)
        back = [right] + [t for t, _ in down[:-1]]
        steps += [Step(t, v) for t, (_, v) in zip(reversed(back), reversed(down))]
        steps.append(Step(rhs, case_via))
        segments.append(Segment(bindings, _without_detours(steps)))
    return Theorem(name, quants, lhs, rhs, segments, cases=True)


def _single_axiom(via) -> bool:
    return via is not None and via[0] == "rule" and len(via[1]) == 1 and via[1][0].startswith("$")


def drop_vias(thm: Theorem, rng: random.Random, p: float) -> None:
    """Write a share ``p`` (rounded) of the theorem's single-axiom hops
    without ``via``; the kernel must infer them.  The share is exact, so
    that the inference work of a theorem does not vary with the seed."""
    hops = [step for seg in thm.segments for step in seg.steps[1:] if _single_axiom(step.via)]
    for step in rng.sample(hops, round(p * len(hops))):
        step.via = None


def _corruptible_hops(thm: Theorem) -> list[tuple[int, int]]:
    return [(si, i) for si, seg in enumerate(thm.segments)
            for i, step in enumerate(seg.steps) if i and _single_axiom(step.via)]


def corrupt(thm: Theorem, rng: random.Random) -> None:
    """Replace one axiom ``via`` by a sibling axiom that does not justify the hop."""
    si, i = rng.choice(_corruptible_hops(thm)[-3:])
    seg = thm.segments[si]
    prev, step = seg.steps[i - 1].term, seg.steps[i]
    head = step.via[1][0].split("°")[0]
    siblings = [f"{head}°{s}" for s in (("F", "T") if head == "$not" else ("FF", "FT", "TF", "TT"))]
    wrong = [a for a in siblings if not justifies(prev, step.term, a)]
    step.via = ("rule", (rng.choice(wrong),))
    seg.corrupt_at = i


# ------------------------------------------------------------------- jobs

@dataclass
class Job:
    """One CLI run on the file ``text`` and the definitions, both written
    to a work directory, with the run's known answer."""

    id: str
    command: str
    text: str
    expected: dict

    @property
    def filename(self) -> str:
        return f"{self.id}.axm"

    def argv(self, workdir: str) -> list[str]:
        target = f"{workdir}/{self.filename}"
        defs = f"{workdir}/{DEFS_NAME}"
        if self.command == "fill":
            return ["fill", target, defs, "-o", f"{workdir}/{self.id}.out.axm"]
        return [self.command, defs, target]


def _check_expected(theorems: list[Theorem]) -> dict:
    errors, warnings, statuses = [], [], []
    for thm in theorems:
        rejected = False
        for seg in thm.segments:
            for i, step in enumerate(seg.steps[1:], start=1):
                if i == seg.corrupt_at:
                    errors.append(seg.lines[i])
                    rejected = True
                    break
                if step.via is None:
                    warnings.append(seg.lines[i])
        statuses.append((thm.name, "rejected" if rejected else "accepted"))
    return {"exit": 1 if errors else 0, "errors": errors, "warnings": warnings,
            "statuses": statuses}


# Identities over one to three metavariables, used as case proofs.
_CASE_IDENTITIES = [
    (("not", ("not", ("not", "a"))), ("not", "a")),
    (("and", "a", "b"), ("and", "b", "a")),
    (("or", "a", "b"), ("or", "b", "a")),
    (("not", ("and", "a", "b")), ("or", ("not", "a"), ("not", "b"))),
    (("not", ("or", "a", "b")), ("and", ("not", "a"), ("not", "b"))),
    (("and", "a", ("or", "a", "b")), "a"),
    (("or", "a", ("and", "a", "b")), "a"),
    (("and", "a", ("and", "b", "c")), ("and", ("and", "a", "b"), "c")),
    (("or", "a", ("or", "b", "c")), ("or", ("or", "a", "b"), "c")),
    (("and", "a", ("or", "b", "c")), ("or", ("and", "a", "b"), ("and", "a", "c"))),
    (("or", "a", ("and", "b", "c")), ("and", ("or", "a", "b"), ("or", "a", "c"))),
]
_LETTERS = "pqrstuvwxyz"


def _renamed(identity, rng: random.Random):
    lhs, rhs = identity
    env = dict(zip("abc", sorted(rng.sample(_LETTERS, 3))))
    return subst(lhs, env), subst(rhs, env)


def _double_negation(name: str, rng: random.Random) -> Theorem:
    v = rng.choice(_LETTERS)
    return case_theorem(name, ("not", ("not", v)), v, rng, 0.0)


#: Files of three theorems in a check-proofs pass, besides the 200-hop chain.
CHECK_FILES = 100


def gen_check_proofs(seed: int) -> list[Job]:
    """Files of three theorems each: a negation chain of 5 to 60 hops (some
    hops cite the file's double-negation theorem), a case proof over one to
    three variables, and the double-negation theorem itself; plus one file
    holding a single 200-hop chain.  About one theorem in ten gets a
    corrupted step."""
    rng = random.Random(f"check-proofs:{seed}")
    files: list[list[Theorem]] = []
    for j in range(CHECK_FILES):
        dn = _double_negation(f"dn{j}", rng)
        length = 5 + (54 * j) // (CHECK_FILES - 1) + rng.randint(0, 1)
        lhs, rhs = _renamed(_CASE_IDENTITIES[j % len(_CASE_IDENTITIES)], rng)
        files.append([
            dn,
            chain_theorem(f"chain{j}", length, rng, cite=f"¶{dn.name}", cite_p=0.15),
            case_theorem(f"cases{j}", lhs, rhs, rng, pair_p=0.4),
        ])
    files.append([chain_theorem("chainlong", 200, rng)])
    for thms in files:
        for thm in thms:
            drop_vias(thm, rng, 0.3)
    # Which theorems are corrupted is fixed by position, and the bad step is
    # one of the last hops, so that the work a rejection saves does not
    # depend on the seed.
    for j, (_, chain, cases) in enumerate(files[:-1]):
        for thm in ([chain] if j % 10 == 3 else []) + ([cases] if j % 5 == 1 else []):
            if _corruptible_hops(thm):
                corrupt(thm, rng)
    out = []
    for j, thms in enumerate(files):
        text = render(thms)
        out.append(Job(f"check{j:03d}", "check", text, _check_expected(thms)))
    rng.shuffle(out)
    return out


# -------------------------------------------------------------- identities

def _tree(vars_: list[str], rng: random.Random | None):
    """A balanced tree over ``vars_`` in order with a quarter of its nodes
    (rounded) negated: its size and depth, which set the cost of normalizing
    it, depend only on ``len(vars_)``.  Connectives and negated nodes are
    chosen by ``rng``, or follow a fixed pattern when it is ``None``."""
    def shape(vs, depth):
        if len(vs) == 1:
            return vs[0]
        op = rng.choice(("and", "or")) if rng else ("and", "or")[depth % 2]
        cut = len(vs) // 2
        return (op, shape(vs[:cut], depth + 1), shape(vs[cut:], depth + 1))

    tree = shape(vars_, 0)
    nodes = [p for p, _ in positions(tree)]
    count = round(len(nodes) / 4)
    negated = rng.sample(nodes, count) if rng else nodes[1::4][:count]
    # Deepest first: wrapping a node moves only the paths below it.
    for path in sorted(negated, key=len, reverse=True):
        tree = replace(tree, path, ("not", _subterm(tree, path)))
    return tree


def _split(vars_: list[str], parts: int) -> list[list[str]]:
    """Consecutive parts of (nearly) equal size."""
    bounds = [round(i * len(vars_) / parts) for i in range(parts + 1)]
    return [vars_[a:b] for a, b in zip(bounds, bounds[1:])]


def _identity(kind: str, vars_: list[str], rng: random.Random, fixed: bool = False):
    """Both sides of one instance of the law ``kind`` over ``vars_``; with
    ``fixed`` the subtrees have a fixed shape and only the order of
    ``vars_`` varies."""
    op = "and" if fixed else rng.choice(("and", "or"))
    dual = _DUAL[op]
    parts = _split(vars_, 3 if kind in ("reassociation", "distributivity") else 2)
    x, y, *z = (_tree(p, None if fixed else rng) for p in parts)
    if kind == "reassociation":
        return (op, x, (op, y, z[0])), (op, (op, x, y), z[0])
    if kind == "commutation":
        return (op, x, y), (op, y, x)
    if kind == "de Morgan":
        return ("not", (op, x, y)), (dual, ("not", x), ("not", y))
    if kind == "distributivity":
        return (op, x, (dual, y, z[0])), (dual, (op, x, y), (op, x, z[0]))
    return (op, x, (dual, x, y)), x


IDENTITY_KINDS = ("reassociation", "commutation", "de Morgan", "distributivity", "absorption")


def _perturb(lhs, rhs, quants: list[str], rng: random.Random):
    """Negate a subterm or swap a connective of ``rhs`` so that the identity
    is false.  Of the first six such candidates, keep the one whose first
    counterexample comes last, so that the oracle enumerates most
    assignments before it finds one."""
    nodes = [p for p, _ in positions(rhs)]
    candidates = []
    while len(candidates) < 6:
        path = rng.choice(nodes)
        sub = _subterm(rhs, path)
        new = ("not", sub) if isinstance(sub, str) or sub[0] == "not" else (_DUAL[sub[0]],) + sub[1:]
        candidate = replace(rhs, path, new)
        cex = first_counterexample(lhs, candidate, quants)
        if cex is not None:
            candidates.append((int("".join("1" if b else "0" for b in cex.values()), 2), candidate))
    return max(candidates, key=lambda c: c[0])[1]


def first_counterexample(lhs, rhs, quants: list[str]) -> dict[str, bool] | None:
    """The first assignment, summands in declaration order (False, True),
    on which the two sides differ; the kernel enumerates in the same order."""
    for combo in itertools.product((False, True), repeat=len(quants)):
        env = dict(zip(quants, combo))
        if evaluate(lhs, env) != evaluate(rhs, env):
            return env
    return None


# Variables per identity, one entry per job of a pass.  Small K dominate and
# a few large ones make the tail.  The median and the 90th percentile of a
# pass fall in the middle of the K = 5 and K = 8 groups, and the K >= 9 jobs
# take half of a pass's time.  The cost of an identity doubles with each
# variable and varies with its law and shape, so these groups hold true
# identities of a fixed shape, in seeded variable orders (the percentile
# groups each of one law): their costs do not change from seed to seed, and
# neither do the percentiles and jobs per second.
VALIDATE_KS = [3] * 20 + [4] * 20 + [5] * 20 + [6] * 14 + [7] * 10 + [8] * 10 + [9] * 4 + [10] * 2
_PERCENTILE_GROUPS = {5: "commutation", 8: "reassociation"}
_FIXED_FROM_K = 9


def gen_validate_identities(seed: int) -> list[Job]:
    """One identity per file over K variables (``VALIDATE_KS``); the law
    cycles through ``IDENTITY_KINDS``, and every third identity outside the
    fixed groups is made false by a seeded perturbation."""
    rng = random.Random(f"validate-identities:{seed}")
    out = []
    mixed = 0
    for j, k in enumerate(VALIDATE_KS):
        names = sorted(rng.sample("abcdefghijklmnopqrstuvwxyz", k))
        order = names[:]
        rng.shuffle(order)
        kind = _PERCENTILE_GROUPS.get(k) or IDENTITY_KINDS[j % len(IDENTITY_KINDS)]
        fixed = k in _PERCENTILE_GROUPS or k >= _FIXED_FROM_K
        lhs, rhs = _identity(kind, order, rng, fixed=fixed)
        if not fixed:
            if mixed % 3 == 0:
                rhs = _perturb(lhs, rhs, names, rng)
            mixed += 1
        name = f"id{j}"
        quant = ", ".join(f"∀{v} ∈ Boolean" for v in names)
        text = f"theorem ¶{name}: {quant}: {fmt(lhs)} ↔ {fmt(rhs)}\nproof\n  0. {fmt(lhs)}\n"
        cex = first_counterexample(lhs, rhs, names)
        if cex is None:
            expected = {"exit": 0, "stdout": [f"¶{name}: valid"]}
        else:
            shown = ", ".join(f"{v} = {const(b)}" for v, b in cex.items())
            expected = {"exit": 1, "stdout": [f"¶{name}: invalid counterexample {shown}"]}
        out.append(Job(f"validate{j:03d}", "validate", text, expected))
    rng.shuffle(out)
    return out


# -------------------------------------------------------------- fill gaps

def _gap_windows(seg: Segment, m: int) -> list[int]:
    """First step indices of runs of ``m`` intermediate steps whose hops,
    and the hop after them, are single-axiom rewrites."""
    steps = seg.steps
    return [i for i in range(1, len(steps) - m)
            if all(_single_axiom(steps[h].via) for h in range(i, i + m + 1))]


def _delete(seg: Segment, start: int, m: int) -> None:
    """Remove ``m`` steps; the step after them loses its ``via`` so the
    repair may splice any shortest chain in front of it."""
    seg.steps = seg.steps[:start] + seg.steps[start + m:]
    seg.steps[start] = Step(seg.steps[start].term, None)
    seg.deleted = m


# Case identities of one or two variables whose every case has a run of
# three single-axiom hops to cut; wider terms make three-hop gaps cost
# seconds to close, which would let a few jobs fill a whole run.
_FILL_IDENTITIES = [
    (("not", ("and", "a", "b")), ("or", ("not", "a"), ("not", "b"))),
    (("not", ("or", "a", "b")), ("and", ("not", "a"), ("not", "b"))),
    (("not", ("and", "a", ("not", "b"))), ("or", ("not", "a"), "b")),
    (("not", ("or", "a", ("not", "b"))), ("and", ("not", "a"), "b")),
    (("not", ("not", ("and", "a", "b"))), ("and", "a", "b")),
    (not_chain(5, "a"), ("not", "a")),
]


#: Jobs in a fill-gaps pass.
FILL_JOBS = 100


def gen_fill_gaps(seed: int) -> list[Job]:
    """Proofs with omitted steps, one theorem per job.  Two jobs in three are
    negation chains of 6 to 12 hops that lose one or two consecutive
    intermediate steps (a two- or three-hop gap); a seeded eighth of them
    are 10-hop chains that lose three (a four-hop gap).  The rest are case
    proofs: one case loses two steps, every other case one."""
    rng = random.Random(f"fill-gaps:{seed}")
    chains = [j for j in range(FILL_JOBS) if j % 3 != 2]
    long_gaps = set(rng.sample(chains, len(chains) // 8))
    out = []
    for j in range(FILL_JOBS):
        if j in long_gaps:
            # These jobs make most of the tail, so where the gap sits is not
            # seeded; only which jobs get one is.
            thm = chain_theorem(f"chain{j}", 10, rng)
            sizes = [3]
            starts = [_gap_windows(thm.segments[0], 3)[3]]
        elif j % 3 != 2:
            thm = chain_theorem(f"chain{j}", 6 + (j // 3) % 7, rng)
            sizes = [1 + j % 3]
            starts = [rng.choice(_gap_windows(thm.segments[0], sizes[0]))]
        else:
            identity = _FILL_IDENTITIES[(j // 3) % len(_FILL_IDENTITIES)]
            thm = case_theorem(f"cases{j}", *_renamed(identity, rng), rng, pair_p=0.0)
            sizes = [1] * len(thm.segments)
            sizes[(j // 3) % len(sizes)] = 2
            # The cost of closing a gap in a case proof grows steeply with
            # the size of the terms around it, so the cut is not seeded: it
            # is the middle one of the places a cut of that size can go.
            starts = [_gap_windows(seg, m)[len(_gap_windows(seg, m)) // 2]
                      for seg, m in zip(thm.segments, sizes)]
        for seg, m, start in zip(thm.segments, sizes, starts):
            seg.kept_terms = [fmt(s.term) for i, s in enumerate(seg.steps) if not start <= i < start + m]
            _delete(seg, start, m)
        text = render([thm])
        expected = {"exit": 0, "theorems": [
            (thm.name, [(s.kept_terms, s.deleted) for s in thm.segments])]}
        out.append(Job(f"fill{j:03d}", "fill", text, expected))
    rng.shuffle(out)
    return out


GENERATORS = {
    "check-proofs": gen_check_proofs,
    "validate-identities": gen_validate_identities,
    "fill-gaps": gen_fill_gaps,
}


def generate(workload: str, seed: int) -> list[Job]:
    return GENERATORS[workload](seed)
