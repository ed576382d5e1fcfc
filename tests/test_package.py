"""Properties of the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import robinhood


def _raises_assertion_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_has_no_assert_statements() -> None:
    # python -O strips assert statements, so a check written as one would
    # vanish; the package raises its own errors instead, and not a bare
    # AssertionError that the CLI would report as a traceback.
    package = Path(robinhood.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert found == []
