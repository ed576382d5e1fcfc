"""Properties of the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import robinhood
from robinhood import engine, errors, schedule


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


def _read_errors_built(method: ast.FunctionDef) -> set[str]:
    return {
        node.func.id
        for node in ast.walk(method)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("IndexBeyondHorizon", "RestrictionViolated")
    }


def test_only_the_check_core_decides_read_errors() -> None:
    # One method decides what reading a range of nights raises; every reader
    # calls it through check_horizon, require_valid or require_playable. The
    # one other read error is cells' check of the bag's day.
    tree = ast.parse(Path(schedule.__file__).read_text(encoding="utf-8"))
    (game,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "GameInstance"]
    found = {
        method.name: errors
        for method in game.body
        if isinstance(method, ast.FunctionDef) and (errors := _read_errors_built(method))
    }
    assert found == {"_check_read": {"IndexBeyondHorizon", "RestrictionViolated"}, "cells": {"IndexBeyondHorizon"}}


def test_the_engine_builds_no_horizon_error_of_its_own() -> None:
    # A night past the instance's horizon is refused by GameInstance.check_horizon,
    # so simulate, compare and survival name it alike; the engine has no class of its own.
    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert names.isdisjoint({"IndexBeyondHorizon", "ScheduleExhausted"})
    assert not hasattr(errors, "ScheduleExhausted") and not hasattr(robinhood, "ScheduleExhausted")


def test_only_flat_walks_a_spec_tail() -> None:
    # FunctionSpec.flat is the one walk down a spec's nesting, and every other
    # reader reads its prefix and closed form; to_obj writes the nested form
    # back, and spec_plus_one builds it.
    tree = ast.parse(Path(schedule.__file__).read_text(encoding="utf-8"))
    scopes = [(getattr(node, "name", ""), node) for node in tree.body if not isinstance(node, ast.ClassDef)]
    scopes += [
        (f"{cls.name}.{getattr(node, 'name', '')}", node)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
    ]
    found = {
        name
        for name, scope in scopes
        for node in ast.walk(scope)
        if isinstance(node, ast.Attribute) and node.attr == "tail"
    }
    assert found == {"FunctionSpec.flat", "FunctionSpec.to_obj", "spec_plus_one"}


def test_only_the_engine_draws_call_below() -> None:
    # Every exact draw of the package goes through sample_hypergeom or
    # _choose_uniform_subset, so Monte Carlo and run_trace draw a bag alike.
    package = Path(robinhood.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(getattr(node, "name", ""), node) for node in tree.body if not isinstance(node, ast.ClassDef)]
        scopes += [(f"{cls.name}.{getattr(node, 'name', '')}", node)
                   for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body]
        found |= {
            f"{path.name}:{name}"
            for name, scope in scopes
            for node in ast.walk(scope)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "below"
        }
    assert found == {"engine.py:sample_hypergeom", "engine.py:_choose_uniform_subset"}
