"""Every ``$ robinhood ...`` example in the README, run through the CLI.

Each example runs in a fresh directory whose ``sched.json`` is the README's
schedule (r = 1, s = 2, b = 0). The lines after the command are the output
as the README shows it: canonical JSON, wrapped after a comma onto lines
that start with a space, with ``...`` or ``{...}`` where a value is cut
short. Everything else must match the output character for character.
"""

from __future__ import annotations

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from robinhood.cli import build_parser, dispatch
from robinhood.engine import TRACE_CHUNK_LINES

README = Path(__file__).resolve().parent.parent / "README.md"
SCHEDULE = {
    "r": {"kind": "constant", "value": 1},
    "s": {"kind": "constant", "value": 2},
    "b": {"kind": "constant", "value": 0},
}


def readme_examples() -> list[tuple[str, list[str]]]:
    """(command, shown output lines, unwrapped) for each ``$ robinhood`` line."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    examples = []
    for block in blocks:
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *shown = chunk.rstrip("\n").split("\n")
            lines: list[str] = []
            for line in shown:
                if line.startswith(" ") and lines:
                    lines[-1] += line[1:]
                else:
                    lines.append(line)
            examples.append((command, lines))
    return examples


def shown_pattern(line: str) -> re.Pattern[str]:
    """The shown line as a regex: ``{...}`` and ``...`` stand for any text."""
    parts = re.split(r"(\{\.\.\.\}|\.\.\.)", line)
    return re.compile("".join(".*?" if part in ("{...}", "...") else re.escape(part) for part in parts))


EXAMPLES = readme_examples()


def test_the_readme_has_an_example_for_every_subcommand() -> None:
    commands = [shlex.split(command)[1] for command, _ in EXAMPLES]
    assert sorted(set(commands)) == ["classify", "compare", "construct", "simulate", "survival", "validate"]
    assert all(command.startswith("robinhood ") and shown for command, shown in EXAMPLES)


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_readme_example_output(command, shown, tmp_path, monkeypatch, capsys) -> None:
    monkeypatch.chdir(tmp_path)
    Path("sched.json").write_text(json.dumps(SCHEDULE), encoding="utf-8")
    assert dispatch(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(shown)
    for got, want in zip(out, shown):
        assert shown_pattern(want).fullmatch(got), (want, got)


def test_every_cli_option_is_in_the_readme() -> None:
    text = README.read_text(encoding="utf-8")
    parser = build_parser()
    sub = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    options = {o for p in (parser, *sub.choices.values()) for action in p._actions for o in action.option_strings}
    assert len(options) > 10
    missing = sorted(o for o in options if not re.search(rf"(?<![\w-]){re.escape(o)}(?![\w-])", text))
    assert missing == []


def test_only_nonempty_pools_keep_classify_from_answering_at_the_far_horizon(tmp_path, capsys) -> None:
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert (
        "`validate` and `classify` answer at `--horizon 1000000000000`, except for `validate --csv` and"
        " classify's Undetermined diagnostics on a tail piece whose very-old pool is nonempty, which read"
        " every night. The diagnostics skip a piece whose pool is empty in one step."
    ) in text
    # r = i, s = i + 1, b = 3: Ltilde(i) = -i, an empty pool on every night.
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "r": {"kind": "affine", "a": 1, "c": 0},
        "s": {"kind": "affine", "a": 1, "c": 1},
        "b": {"kind": "constant", "value": 3},
    }), encoding="utf-8")
    assert dispatch(["classify", str(path), "--horizon", "1000000000000"]) == 0
    diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
    assert diagnostics == {
        "first_undefined_index": 1,
        "horizon": 10**12,
        "last_term": None,
        "partial_sum": 0.0,
        "term_decay_exponent_estimate": None,
    }


def test_the_readme_gives_the_trace_chunk_size() -> None:
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert f"Lines are hashed and written in chunks of {TRACE_CHUNK_LINES} (`TRACE_CHUNK_LINES`)" in text
