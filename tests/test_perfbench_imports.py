"""The benchmark's tracer imports library names the kernel itself does not
call (``successor_moves``, the ``term_vars`` alias, ``tokenize``); loading
it here keeps a trim of those names from breaking ``perfbench/run.py
--trace 1`` unnoticed."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def test_perfbench_tracing_imports():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.probe) and callable(module.run_job)
