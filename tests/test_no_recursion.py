"""The kernel walks terms, types and proofs with explicit stacks, so the
depth of an input is bounded by memory, not by Python's recursion limit.
This keeps a recursive function from coming back unnoticed."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "axiotome"


def _self_calls(tree: ast.AST) -> list[str]:
    """``name:line`` of each function that calls its own name, and of each
    method that calls ``self.<its name>``."""
    found = []
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name) and func.id == fn.name \
                    or id(fn) in methods and isinstance(func, ast.Attribute) and func.attr == fn.name \
                    and isinstance(func.value, ast.Name) and func.value.id == "self":
                found.append(f"{fn.name}:{call.lineno}")
    return found


def test_no_function_in_the_kernel_calls_itself():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = {str(path.relative_to(SRC)): calls for path in modules
             if (calls := _self_calls(ast.parse(path.read_text(encoding="utf-8"), str(path))))}
    assert found == {}


def test_a_self_call_is_found():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n"
                     "class C:\n    def g(self):\n        return self.g()\n    def h(self):\n        return self.g()\n")
    assert _self_calls(tree) == ["f:2", "g:5"]
