"""Properties of the package source itself."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


SRC = str(Path(robinhood.__file__).parent.parent)
# Run in a fresh interpreter: whether argv (after the script's name) loaded numpy, as "<exit code> <loaded>".
_LOADS_NUMPY = (
    "import sys\n"
    "if sys.argv[1:] == ['import']:\n"
    "    import robinhood\n"
    "    code = 0\n"
    "else:\n"
    "    from robinhood.cli import dispatch\n"
    "    code = dispatch(sys.argv[1:])\n"
    "print(code, 'numpy' in sys.modules, file=sys.stderr)\n"
)


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["import"], False),
        (["validate", "{sched}"], False),
        (["classify", "{sched}"], False),
        (["survival", "{sched}", "--day", "1", "--horizon", "50"], False),
        (["simulate", "{sched}", "--nights", "50", "--tag-day", "1", "--out", "{tmp}/trace.jsonl"], False),
        (["construct", "--memory-b", "constant:1", "--steps", "3", "-o", "{tmp}/sep"], False),
        (["simulate", "{sched}", "--nights", "50", "--tag-day", "1", "--trials", "20", "--strategy", "oldest-det"],
         False),
        (["simulate", "{sched}", "--nights", "50", "--tag-day", "1", "--trials", "20", "--strategy", "oldest-rnd"],
         True),
        (["compare", "{sched}", "--day", "1", "--nights", "50", "--trials", "20"], True),
    ],
    ids=["import", "validate", "classify", "survival", "simulate-out", "construct", "trials-det", "trials-rnd",
         "compare"],
)
def test_only_the_vectorized_monte_carlo_draw_loads_numpy(tmp_path, argv, loads) -> None:
    # numpy costs about 100 ms and 12 MB at import, and only the oldest-rnd Monte
    # Carlo draw uses it, so every other command starts without it.
    sched = tmp_path / "sched.json"
    sched.write_text('{"r": {"kind": "constant", "value": 1}, "s": {"kind": "constant", "value": 3},'
                     ' "b": {"kind": "constant", "value": 0}}')
    argv = [arg.format(sched=sched, tmp=tmp_path) for arg in argv]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _LOADS_NUMPY, *argv], capture_output=True, text=True, env=env)
    assert proc.stderr.splitlines()[-1] == f"0 {loads}", proc.stderr
