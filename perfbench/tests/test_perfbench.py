"""Tests of the benchmark itself: generator, verdict checks, metrics.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import copy
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import axiotome.cli as cli  # noqa: E402
from perfbench import run, tracing, verdicts, workloads  # noqa: E402
from perfbench.workloads import WORKLOADS, generate  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def runner_for(tmp_path):
    def make(jobs):
        return run.Runner(jobs, str(tmp_path))
    return make


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first, again, other = generate(workload, 11), generate(workload, 11), generate(workload, 12)
    assert [(j.id, j.text, j.expected) for j in first] == [(j.id, j.text, j.expected) for j in again]
    assert [j.text for j in first] != [j.text for j in other]


def test_generated_names_are_plain_identifiers():
    # A name the lexer rejects would turn every job into a fast E-SYNTAX.
    for workload in WORKLOADS:
        for job in generate(workload, 3):
            for name in re.findall(r"theorem ¶(\S+):", job.text):
                assert re.fullmatch(r"[A-Za-z][A-Za-z0-9]*", name), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_job_gets_its_known_answer(workload, runner_for):
    runner = runner_for(generate(workload, 5))
    runner.cli_pass()
    assert runner.failures == []


def _wrong(job):
    bad = copy.deepcopy(job)
    if job.command == "check":
        name, status = bad.expected["statuses"][0]
        bad.expected["statuses"][0] = (name, "rejected" if status == "accepted" else "accepted")
    elif job.command == "validate":
        line = bad.expected["stdout"][0]
        bad.expected["stdout"][0] = line.replace("valid", "invalid counterexample a = False") \
            if line.endswith(": valid") else line.split(" counterexample")[0].replace("invalid", "valid")
    else:
        name, segments = bad.expected["theorems"][0]
        kept, deleted = segments[0]
        segments[0] = (kept[:1] + ["False"] + kept[1:], deleted)
    return bad


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_wrong_known_answer_counts_as_a_failure(workload, runner_for):
    jobs = sorted(generate(workload, 5), key=lambda j: len(j.text))[:3]
    runner = runner_for([_wrong(jobs[0])] + jobs[1:])
    runner.cli_pass()
    assert len(runner.failures) == 1 and runner.failures[0].startswith(jobs[0].id)


def test_an_inserted_step_with_a_wrong_via_counts_as_a_failure(runner_for, tmp_path):
    # A repair that keeps the written steps but inserts a chain the vias do
    # not justify must not read as correct.
    job = next(j for j in generate("fill-gaps", 5) if "cases" not in j.text)
    runner = runner_for([job])
    out = io.StringIO()
    code = runner.main(job.argv(str(tmp_path)), out, io.StringIO())
    assert verdicts.mismatch(job, str(tmp_path), code, out.getvalue(), "") is None
    inserted = re.search(r"\+ (\d+)\. (.+) via (\$\w+°\w+)", out.getvalue())
    index, term, via = inserted.groups()
    wrong = via[:-1] + ("T" if via.endswith("F") else "F")
    output = tmp_path / f"{job.id}.out.axm"
    text = output.read_text(encoding="utf-8")
    line = f"  {index}. {term} via {via}\n"
    assert line in text
    output.write_text(text.replace(line, f"  {index}. {term} via {wrong}\n"), encoding="utf-8")
    assert "not justified" in verdicts.mismatch(job, str(tmp_path), code, out.getvalue(), "")


def test_hops_are_judged_as_the_kernel_reads_their_via():
    parse = workloads.parse
    assert verdicts.hop_justified(parse("and(not(False), not(True))"), parse("and(True, False)"),
                                  "($not°F, $not°T)", {})
    assert not verdicts.hop_justified(parse("not(not(False))"), parse("False"),
                                      "($not°F, $not°T)", {})
    assert verdicts.hop_justified(parse("not(a)"), parse("not(True)"), "∀a ∈ True", {"a": "True"})
    assert not verdicts.hop_justified(parse("not(a)"), parse("not(True)"), "∀a ∈ True",
                                      {"a": "False"})
    assert verdicts.hop_justified(parse("True"), parse("not(False)"), None, {})
    assert not verdicts.hop_justified(parse("True"), parse("not(True)"), None, {})


def test_a_crash_counts_as_a_failure(runner_for):
    jobs = sorted(generate("check-proofs", 5), key=lambda j: len(j.text))[:2]
    runner = runner_for(jobs)

    def crash(argv, out, err):
        raise RecursionError("boom")
    runner.main = crash
    runner.cli_pass()
    assert len(runner.failures) == 2


def test_metric_names_and_units_follow_the_contract():
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.fullmatch(metric["name"]) and len(metric["name"]) <= 64
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match_the_declaration(runner_for):
    jobs = sorted(generate("check-proofs", 2), key=lambda j: len(j.text))[:12]
    metrics, attempted, failed = run.end_to_end(runner_for(jobs), seconds=0.0)
    assert failed == 0 and attempted == run.MIN_PASSES * len(jobs)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == declared
    assert all(value > 0 for value, _ in metrics.values())


def test_times_are_scaled_by_the_reference_times_around_them():
    nominal = run.REF_NOMINAL_S
    # A machine at half and at a quarter of the nominal speed.
    assert run.at_reference_speed([0.2, 0.4], [2 * nominal, 4 * nominal], window=0) \
        == pytest.approx([0.1, 0.1])
    # One slow reference run is outvoted by its neighbours.
    refs = [nominal, nominal, 50 * nominal, nominal, nominal]
    assert run.at_reference_speed([0.1] * 5, refs, window=2) == pytest.approx([0.1] * 5)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_work_counts(workload, runner_for, tmp_path):
    jobs = sorted(generate(workload, 4), key=lambda j: len(j.text))[:4]
    first, _, _ = run.per_layer(runner_for(jobs), tmp_path / "a", "t")
    again, _, failed = run.per_layer(runner_for(jobs), tmp_path / "b", "t")
    assert failed == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: unit for k, (_, unit) in first.items()} == declared
    for name in run.WORK_COUNTS:
        assert first[name][0] == again[name][0]
    spans = (tmp_path / "a" / "trace-t.jsonl").read_text(encoding="utf-8").splitlines()
    assert {"name", "start", "end", "parent", "job"} == set(json.loads(spans[0]))
    # The CLI's own kernel functions are back in place after a traced run.
    assert all(getattr(cli, name).__module__.startswith("axiotome.")
               for name in tracing.SPANS)


def test_without_the_kernel_sources_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-proofs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and "{" not in done.stdout


def test_layer_map_names_declared_metrics_and_workloads():
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text(encoding="utf-8"))
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    mapped = set()
    for layer in layers["layers"]:
        mapped.update(layer["metrics"])
        for claim in layer["moves"] + layer["leaves"]:
            assert claim["metric"] in end_to_end and claim["workload"] in WORKLOADS
    assert mapped == per_layer
    assert workloads.WORKLOADS == tuple(w["name"] for w in BENCHMARK["workloads"])
