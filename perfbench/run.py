"""Kernel benchmark: check-proofs, validate-identities and fill-gaps.

Usage (from the repository root):

    python3 perfbench/run.py --workload check-proofs --seed 1 --seconds 25 --trace 0

One client runs the workload's jobs one after another in this process
through ``axiotome.cli.main`` (a closed loop, no threads).  A first pass over
the jobs warms up; then whole passes are timed until ``--seconds`` have
passed.  Every result is compared with the known answer the generator
computed without the kernel.

``--trace 0`` prints the end-to-end metrics: set-up time (a fresh
interpreter importing ``axiotome.cli``), jobs per second, the median and
90th percentile time per job, and peak RSS.  Times are given at reference
speed: a fixed pure-Python task runs after every job and between imports,
and each wall time is scaled by the task's nominal time over its time
nearby, which takes out the drift of a shared machine's speed (see
``at_reference_speed``); the wall-clock figures are printed too.
``--trace 1`` instead makes two passes in which each job runs through the
CLI once untraced and once with a span around every kernel call the CLI
makes, and is then probed (see ``tracing.py``); it checks that the work
counts repeat and prints the per-layer metrics of the second pass.  Spans
go to ``.perfbench-out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh interpreters started to time set-up; the first one is not timed
#: because it may write the bytecode cache.
SETUP_IMPORTS = 12

#: Fewest timed passes in an end-to-end run.
MIN_PASSES = 3

#: Untimed jobs run first; in sizing, the first pass ran ~10% slower at p90.
WARM_UP_SECONDS = 2.0

#: The reference task: parse and print back a fixed 300-node boolean term,
#: in plain Python like the kernel (string scanning, tuples, recursion).  In
#: a 200-second trial in which the machine's speed ranged over a factor of
#: 1.6, check, validate and fill jobs at reference speed spread 2-3% over
#: 5-second windows; at reference speed by truth-table evaluation of a small
#: term they spread 4-5%, and on the wall clock 18-22%.
REF_SIZE = 300
REF_SEED = "perfbench-reference"

#: The reference task's median time on the machine the benchmark was sized
#: on (a shared 2-core x86-64 VM, Python 3.11); times at reference speed are
#: in that machine's seconds.
REF_NOMINAL_S = 0.0022

#: A job's time is scaled by the median reference time of the jobs within
#: this many places of it (about a second of a run).
REF_WINDOW = 10


def _random_term(size: int, rng: random.Random):
    if size <= 1:
        return rng.choice("abcdef")
    op = rng.choice(("and", "or", "not"))
    if op == "not":
        return ("not", _random_term(size - 1, rng))
    left = rng.randint(1, size - 1)
    return (op, _random_term(left, rng), _random_term(size - left, rng))


@functools.cache
def _reference_text() -> str:
    from perfbench.workloads import fmt

    return fmt(_random_term(REF_SIZE, random.Random(REF_SEED)))


def reference_seconds() -> float:
    """Time one run of the reference task, with the cycle collector off so
    that garbage the kernel left behind is not billed to it."""
    from perfbench.workloads import fmt, parse

    text = _reference_text()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        fmt(parse(text))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(times: list[float], refs: list[float], window: int) -> list[float]:
    """Scale ``times[i]`` by ``REF_NOMINAL_S`` over the median of the
    reference times within ``window`` places of ``refs[i]``.  A shared
    machine's speed drifts by a fifth over tens of seconds, and the reference
    task slows with it in step with the kernel; the ratio does not."""
    return [t * REF_NOMINAL_S / statistics.median(refs[max(0, i - window):i + window + 1])
            for i, t in enumerate(times)]


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_seconds() -> tuple[float, float]:
    """Median import time of fresh interpreters, at reference speed and on
    the wall clock; the reference task runs before each import and after
    the last."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    times, refs = [], []
    for _ in range(SETUP_IMPORTS):
        refs.append(statistics.median(reference_seconds() for _ in range(5)))
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import axiotome.cli"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    refs.append(statistics.median(reference_seconds() for _ in range(5)))
    # Each import is scaled by the reference times on either side of it.
    scaled = [t * REF_NOMINAL_S / ((a + b) / 2) for t, a, b in zip(times[1:], refs[1:], refs[2:])]
    return statistics.median(scaled), statistics.median(times[1:])


def fresh_collector() -> None:
    """Collect garbage, then move every live object out of the cycle
    collector's view, so that the next job starts with the collector's
    counts at zero and its collections see only its own objects, not the
    benchmark's or earlier jobs'.  Left to chance, where collections fell
    spread the time of one gap search over 120-300 ms."""
    gc.collect()
    gc.freeze()


class Runner:
    """Writes a workload's files and runs its jobs through the CLI."""

    def __init__(self, jobs, workdir: str) -> None:
        from axiotome.cli import main
        from perfbench.workloads import DEFS, DEFS_NAME

        self.main = main
        self.jobs = jobs
        self.workdir = workdir
        Path(workdir, DEFS_NAME).write_text(DEFS, encoding="utf-8")
        for job in jobs:
            Path(workdir, job.filename).write_text(job.text, encoding="utf-8")
        self.failures: list[str] = []

    def check(self, job, code: int, stdout: str, stderr: str) -> None:
        from perfbench.verdicts import mismatch

        why = mismatch(job, self.workdir, code, stdout, stderr)
        if why is not None:
            self.failures.append(f"{job.id}: {why}")

    def warm_up(self) -> None:
        """Run jobs and the reference task, checked but not timed, until
        ``WARM_UP_SECONDS`` pass."""
        start = time.perf_counter()
        for job in self.jobs:
            self.cli_pass([job], refs=[])
            if time.perf_counter() - start > WARM_UP_SECONDS:
                break

    def cli_pass(self, jobs=None, refs: list[float] | None = None) -> list[float]:
        """One pass over the jobs; returns each job's time to verdict.  With
        ``refs``, the reference task runs after each job and its time is
        appended there."""
        times, results = [], []
        for job in jobs or self.jobs:
            argv = job.argv(self.workdir)
            out, err = io.StringIO(), io.StringIO()
            fresh_collector()
            start = time.perf_counter()
            try:
                code = self.main(argv, out, err)
            except Exception:  # a crash is a failed job, not a failed run
                code, err = -1, io.StringIO(traceback.format_exc())
            times.append(time.perf_counter() - start)
            results.append((job, code, out.getvalue(), err.getvalue()))
            if refs is not None:
                refs.append(reference_seconds())
        for result in results:
            self.check(*result)
        return times

    def traced_pass(self):
        """Each job once untraced and once traced through the CLI, then
        probed; returns the tracer and the summed untraced time.  Running the
        two side by side keeps load from other tenants out of their ratio,
        and which of them goes first alternates from job to job."""
        from perfbench.tracing import Tracer, probe, run_job

        tr = Tracer()
        cli_seconds = 0.0
        for i, job in enumerate(self.jobs):
            tr.job = job.id
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if not traced:
                    cli_seconds += self.cli_pass([job])[0]
                    continue
                fresh_collector()
                try:
                    code, stdout, stderr, work = run_job(self.main, job.argv(self.workdir), tr)
                    probe(work, tr)
                except Exception:
                    self.failures.append(f"{job.id}: {traceback.format_exc()}")
                    continue
                self.check(job, code, stdout, stderr)
        return tr, cli_seconds


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, int, int]:
    """Time whole passes until ``seconds`` of job time and ``MIN_PASSES``
    passes are done; every job of every timed pass is one sample, taken at
    reference speed."""
    setup, setup_wall = setup_seconds()
    runner.warm_up()
    warm_failures = len(runner.failures)
    wall: list[float] = []
    refs: list[float] = []
    passes = 0
    while passes < MIN_PASSES or sum(wall) < seconds:
        wall += runner.cli_pass(refs=refs)
        passes += 1
    samples = at_reference_speed(wall, refs, REF_WINDOW)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p90 = percentile(samples, 90)
    print(f"{passes} timed passes; job samples {len(samples)}, {sum(t > p90 for t in samples)} above p90")
    print(f"wall clock: setup_s {setup_wall}, jobs_per_s {len(wall) / sum(wall)}, "
          f"job_p50_ms {statistics.median(wall) * 1e3}, job_p90_ms {percentile(wall, 90) * 1e3}; "
          f"reference task median {statistics.median(refs) * 1e3} ms, nominal {REF_NOMINAL_S * 1e3} ms")
    return {
        "setup_s": (setup, "s"),
        "jobs_per_s": (len(samples) / sum(samples), "1/s"),
        "job_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "job_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, len(samples), len(runner.failures) - warm_failures


WORK_COUNTS = ("syntax.tokens", "verifier.hops", "search.gaps", "oracle.assignments", "oracle.rewrites")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(runner: Runner, out_dir: Path, name: str) -> tuple[dict, int, int]:
    runner.warm_up()
    warm_failures = len(runner.failures)
    first, _ = runner.traced_pass()
    tr, cli_seconds = runner.traced_pass()
    failed = len(runner.failures) - warm_failures
    for key in WORK_COUNTS:
        if first.counts[key] != tr.counts[key]:
            runner.failures.append(f"work count {key} changed: {first.counts[key]} then {tr.counts[key]}")
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{name}.jsonl", "w", encoding="utf-8") as fh:
        for span in tr.spans:
            fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "job"), span))) + "\n")

    ms = {k: v * 1e3 for k, v in tr.self_seconds().items()}
    c = tr.counts

    def t(span: str) -> float:
        return ms.get(span, 0.0)  # a layer the workload never calls took no time

    def per_s(count: str, span: str) -> float:
        return _ratio(c[count], t(span) / 1e3)

    job_ms = sum(end - start for n, start, end, _, _ in tr.spans if n == "cli.job") * 1e3
    metrics = {
        "syntax.tokenize_ms": (t("syntax.tokenize"), "ms"),
        "syntax.tokens": (c["syntax.tokens"], "count"),
        "syntax.tokens_per_s": (per_s("syntax.tokens", "syntax.tokenize"), "1/s"),
        "syntax.parse_program_ms": (t("syntax.parse_program"), "ms"),
        "syntax.format_node_ms": (t("syntax.format_node"), "ms"),
        "typesys.build_registry_ms": (t("typesys.build_registry"), "ms"),
        "typesys.check_well_formed_ms": (t("typesys.check_well_formed"), "ms"),
        "verifier.verify_theorem_ms": (t("verifier.verify_theorem"), "ms"),
        "verifier.theorems": (c["verifier.theorems"], "count"),
        "verifier.hops": (c["verifier.hops"], "count"),
        "verifier.ms_per_hop": (_ratio(t("verifier.verify_theorem"), c["verifier.hops"]), "ms"),
        "rewrite.check_justified_step_ms": (t("rewrite.check_justified_step"), "ms"),
        "rewrite.steps_checked": (c["rewrite.steps_checked"], "count"),
        "rewrite.us_per_step": (
            _ratio(t("rewrite.check_justified_step") * 1e3, c["rewrite.steps_checked"]), "us"),
        "search.infer_step_justification_ms": (t("search.infer_step_justification"), "ms"),
        "search.inferences": (c["search.inferences"], "count"),
        "search.repair_theorem_ms": (t("search.repair_theorem"), "ms"),
        "search.fill_gap_ms": (t("search.fill_gap"), "ms"),
        "search.gaps": (c["search.gaps"], "count"),
        "search.gaps_filled_ratio": (_ratio(c["search.gaps_filled"], c["search.gaps"]), "ratio"),
        "search.successor_moves_ms": (t("search.successor_moves"), "ms"),
        "search.nodes_per_s": (per_s("search.nodes", "search.successor_moves"), "1/s"),
        "oracle.brute_force_validate_ms": (t("oracle.brute_force_validate"), "ms"),
        "oracle.assignments": (c["oracle.assignments"], "count"),
        "oracle.assignments_per_s": (per_s("oracle.assignments", "oracle.brute_force_validate"), "1/s"),
        "oracle.normalize_ms": (t("oracle.normalize"), "ms"),
        "oracle.normalize_calls": (c["oracle.normalize_calls"], "count"),
        "oracle.rewrites": (c["oracle.rewrites"], "count"),
        "oracle.rewrites_per_s": (per_s("oracle.rewrites", "oracle.normalize"), "1/s"),
        "cli.main_ms": (cli_seconds * 1e3, "ms"),
        "trace.overhead_share": (_ratio(job_ms, cli_seconds * 1e3) - 1, "ratio"),
    }
    return metrics, 4 * len(runner.jobs), failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "axiotome" / "cli.py").is_file():
        _fail(f"no kernel sources at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS, generate

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    jobs = generate(args.workload, args.seed)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        runner = Runner(jobs, workdir)
        print(f"workload {args.workload}, seed {args.seed}, {len(jobs)} jobs per pass, one client")
        if args.trace:
            metrics, attempted, failed = per_layer(runner, ROOT / ".perfbench-out",
                                                   f"{args.workload}-{args.seed}")
        else:
            metrics, attempted, failed = end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in runner.failures[:10]:
        print(f"FAILED {failure}")
    print(f"attempted {attempted}, failed {failed}, failed_share {_ratio(failed, attempted)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
