"""Properties of the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import robinhood


def test_package_has_no_assert_statements() -> None:
    # python -O strips assert statements, so a check written as one would
    # vanish; the package raises its own errors instead.
    package = Path(robinhood.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
