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


def _module_uses_by_scope(tree, module):
    """Dotted scope ("Class.method", "<module>") of every use of `module`:
    each load of its name, and each import that binds it under another name
    (`from module import x`, `import module as m`)."""
    found = []

    def rebinds(node):
        if isinstance(node, ast.ImportFrom):
            return node.module == module
        return isinstance(node, ast.Import) and any(
            alias.name == module and alias.asname for alias in node.names
        )

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Name) and child.id == module) or rebinds(child):
                found.append(scope)
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_ledger_hashes_only_in_compute_hash():
    # One digest path keeps every hash a read, append or verify makes
    # visible to anything that wraps ReputationRecord.compute_hash.
    path = Path(flmarket.__file__).parent / "ledger.py"
    uses = _module_uses_by_scope(ast.parse(path.read_text(), filename=str(path)), "hashlib")
    assert uses and set(uses) == {"ReputationRecord.compute_hash"}, (
        f"hashlib used outside ReputationRecord.compute_hash: {uses}"
    )
