"""Compare what one CLI run printed and wrote with the job's known answer."""

from __future__ import annotations

import re
from pathlib import Path

from .workloads import DEFS, Job, justifies, parse, subst

_DIAGNOSTIC = re.compile(
    r"^(?P<file>.+?):(?P<line>\d+):\d+: (?P<severity>error|warning|note)\[(?P<code>[A-Z-]+)\]: ")
_STATUS = re.compile(r"^¶(\S+): (accepted|rejected)$")
_STEP = re.compile(r"^\s+(\d+)\. (.+?)(?: via (.+))?$")


def mismatch(job: Job, workdir: str, code: int, stdout: str, stderr: str) -> str | None:
    """``None`` when the run gave the known answer, else what differs."""
    if stderr:
        return f"unexpected stderr: {stderr.splitlines()[0]}"
    if code != job.expected["exit"]:
        return f"exit code {code}, expected {job.expected['exit']}"
    return _CHECKERS[job.command](job, workdir, stdout.splitlines())


def _check(job: Job, workdir: str, lines: list[str]) -> str | None:
    target = f"{workdir}/{job.filename}"
    errors, warnings, statuses = [], [], []
    for line in lines:
        if line.startswith("  "):  # related-span notes under a diagnostic
            continue
        diag = _DIAGNOSTIC.match(line)
        status = _STATUS.match(line)
        if diag and diag["file"] == target and diag["code"] == "E-UNJUSTIFIED-STEP":
            errors.append(int(diag["line"]))
        elif diag and diag["file"] == target and diag["code"] == "W-INFERRED-VIA":
            warnings.append(int(diag["line"]))
        elif status:
            statuses.append((status[1], status[2]))
        else:
            return f"unexpected output line: {line[:120]}"
    expected = job.expected
    if sorted(errors) != expected["errors"]:
        return f"E-UNJUSTIFIED-STEP on lines {sorted(errors)}, expected {expected['errors']}"
    if sorted(warnings) != expected["warnings"]:
        return f"W-INFERRED-VIA on lines {sorted(warnings)}, expected {expected['warnings']}"
    if statuses != expected["statuses"]:
        return f"verdicts {statuses}, expected {expected['statuses']}"
    return None


def _validate(job: Job, workdir: str, lines: list[str]) -> str | None:
    if lines != job.expected["stdout"]:
        return f"verdicts {lines}, expected {job.expected['stdout']}"
    return None


_AXIOM = re.compile(r"\$(not°[FT]|and°[FT]{2}|or°[FT]{2})$")
_BINDING = re.compile(r"∀(\w+) ∈ (False|True)$")
AXIOMS = tuple(re.findall(r"\$\w+°\w+", DEFS))


def read_proofs(text: str) -> dict[str, list[tuple[dict, list[tuple[int, str, str | None]]]]]:
    """Theorem name -> segments, from canonically formatted source.  A
    segment is the case's bindings (empty for a linear proof) and the
    (index, term, via or ``None``) of each step."""
    proofs: dict[str, list] = {}
    segments: list = []
    for line in text.splitlines():
        stripped = line.strip()
        if line.startswith("theorem ¶"):
            segments = proofs.setdefault(line[len("theorem ¶"):].split(":")[0], [])
        elif stripped == "proof":
            segments.append(({}, []))
        elif stripped.startswith("case "):
            bindings = [_BINDING.match(b) for b in stripped[5:].rstrip(":").split(", ")]
            segments.append(({b[1]: b[2] for b in bindings if b}, []))
        elif step := _STEP.match(line):
            segments[-1][1].append((int(step[1]), step[2], step[3]))
    return proofs


def hop_justified(prev, term, via: str | None, bindings: dict[str, str]) -> bool:
    """Does ``via`` justify the hop from ``prev`` to ``term`` the way the
    kernel reads it?  A hop without ``via`` must be one axiom rewrite or one
    case substitution, as the kernel infers at depth one."""
    if via is None:
        return any(justifies(prev, term, a) for a in AXIOMS) or any(
            hop_justified(prev, term, f"∀{v} ∈ {c}", bindings) for v, c in bindings.items())
    items = via[1:-1].split(", ") if via.startswith("(") else [via]
    if all(_AXIOM.match(item) for item in items):
        return justifies(prev, term, *items)
    cases = [_BINDING.match(item) for item in items]
    if not all(cases) or any(bindings.get(c[1]) != c[2] for c in cases):
        return False
    sigma = {c[1]: c[2] for c in cases}
    return subst(prev, sigma) == term or subst(term, sigma) == prev


def _fill(job: Job, workdir: str, lines: list[str]) -> str | None:
    output = f"{workdir}/{job.id}.out.axm"
    verdicts = [line for line in lines if line.startswith("¶")]
    wanted = [f"¶{name}: repaired" for name, _ in job.expected["theorems"]]
    if verdicts != wanted:
        return f"verdicts {verdicts}, expected {wanted}"
    if not lines or lines[-1] != f"wrote {output}":
        return "missing 'wrote' line"
    if any(not (line.startswith(("¶", "  ")) or line == lines[-1]) for line in lines):
        return "unexpected output line"
    proofs = read_proofs(Path(output).read_text(encoding="utf-8"))
    for name, segments in job.expected["theorems"]:
        got = proofs.get(name, [])
        if len(got) != len(segments):
            return f"¶{name}: {len(got)} proof segments, expected {len(segments)}"
        for (bindings, steps), (kept, deleted) in zip(got, segments):
            if [i for i, _, _ in steps] != list(range(len(steps))):
                return f"¶{name}: steps are not numbered from 0"
            terms = [t for _, t, _ in steps]
            rest = iter(terms)
            if not all(any(t == r for r in rest) for t in kept) \
                    or terms[0] != kept[0] or terms[-1] != kept[-1]:
                return f"¶{name}: a written step was lost or reordered"
            if len(terms) - len(kept) > deleted:
                return f"¶{name}: {len(terms) - len(kept)} steps inserted where {deleted} were omitted"
            try:
                parsed = [parse(t) for t in terms]
            except ValueError as exc:
                return f"¶{name}: cannot read a step: {exc}"
            for (i, _, via), prev, term in zip(steps[1:], parsed, parsed[1:]):
                if not hop_justified(prev, term, via, bindings):
                    return f"¶{name}: step {i} is not justified by {via or 'one rewrite'}"
    return None


_CHECKERS = {"check": _check, "validate": _validate, "fill": _fill}
