"""Design rules of the package source that no behavioural test can see."""

import ast
from pathlib import Path

import pytest

import flmarket

SOURCES = sorted(Path(flmarket.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    local = [
        f"{path.name}:{node.lineno} in {scope.name}()"
        for scope in ast.walk(tree)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(scope)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert local == [], "imports belong at module level: " + ", ".join(local)
