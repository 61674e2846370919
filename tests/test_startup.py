"""Start-up: the ``axiotome`` command loads neither the dataclass machinery
nor the modules only some commands use, and the package still serves every
public name it has always served.  Structural, in a fresh interpreter; no
timing."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import axiotome

from conftest import BOOL_FNS, corpus_path

SRC = Path(axiotome.__file__).parent.parent

#: Modules ``check`` and ``fmt`` must not load: ``dataclasses`` pulls in
#: ``inspect``, and only ``validate``, ``eval`` and ``fill`` need ``oracle``
#: or ``search``.
UNWANTED = ["dataclasses", "inspect", "axiotome.oracle", "axiotome.search"]

#: The names ``axiotome`` has always exported, by the module that defines each.
EXPORTS = {
    "diagnostics": "CODES Diagnostic DiagnosticError Severity Span render_human render_machine",
    "oracle": "DomainEnumeration NormalizationResult ValidationVerdict brute_force_validate "
              "enumerable_domain normalize",
    "rewrite": "Direction Position RewriteRule StepEnv StepVerdict Substitution apply_substitution "
               "check_justified_step judge_hop match",
    "search": "JustifiedChain SearchBudget fill_gap infer_step_justification repair_theorem",
    "syntax": "Program Term TheoremDecl TypeExpr format_node parse_program parse_term tokenize",
    "typesys": "ConstructorSignature Registry TypingContext build_registry check_well_formed conforms "
               "constructor_signature infer_type",
    "verifier": "InferredVia VerificationReport check_case_coverage effective_quantifiers enter_case "
                "verify_theorem",
}

#: Run in a fresh interpreter with the commands as its argument: what
#: importing ``axiotome.cli`` loads, what running the commands loads too,
#: their exit codes, and then how the package serves ``EXPORTS``.
PROBE = """
import importlib, io, json, sys
before = set(sys.modules)
import axiotome.cli
imported = sorted(set(sys.modules) - before)
codes = [axiotome.cli.main(argv, io.StringIO(), io.StringIO()) for argv in json.loads(sys.argv[1])]
ran = sorted(set(sys.modules) - before)
import axiotome
listed = set(dir(axiotome))
star = {}
exec("from axiotome import *", star)
exports = json.loads(sys.argv[2])
served = {module: [[name in listed, name in star,
                    getattr(axiotome, name) is getattr(importlib.import_module("axiotome." + module), name)]
                   for name in names.split()] for module, names in exports.items()}
print(json.dumps({"imported": imported, "ran": ran, "codes": codes, "served": served}))
"""


def test_check_and_fmt_start_without_dataclasses_oracle_or_search():
    paths = [str(corpus_path(name)) for name in BOOL_FNS + ["de_morgan_corrected.axm"]]
    commands = [["check", *paths], ["fmt", "--check", paths[-1]]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(commands), json.dumps(EXPORTS)],
                          env=env, capture_output=True, text=True, check=True)
    found = json.loads(done.stdout)
    assert found["codes"] == [0, 1]  # the proofs check, and the file is not in canonical form
    assert [m for m in UNWANTED if m in found["imported"]] == []
    assert [m for m in UNWANTED if m in found["ran"]] == []
    for module, names in EXPORTS.items():
        # Each name is in ``dir(axiotome)``, comes with ``import *`` and is
        # the defining module's own object.
        assert found["served"][module] == [[True, True, True]] * len(names.split()), module
