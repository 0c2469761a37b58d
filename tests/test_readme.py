"""The README's examples run as written.

Every `chromexp` line of the command-line block runs through `cli.main`
in-process (an `echo ... |` prefix becomes stdin) and must exit 0. Where
a line's comment states its output, the output must be that: a comment
that starts with a JSON object states the JSON document, and the comment
of a `--pretty` line states the text. The "Library in one minute"
snippet runs too, and each expression whose comment is a quoted string
must have that repr.
"""

import io
import json
import shlex
import sys
from pathlib import Path

import pytest

from chromexp.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(heading, lang):
    """The lines of the first `lang` block under the `## heading` section."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("\n```", 1)[0].splitlines()


def code_and_comment(line):
    """A line's code and its trailing comment's text ("" if it has none)."""
    code, _, comment = line.partition("  #")
    return code.strip(), comment.strip()


def command(line):
    """(argv, stdin text or None, stated output or None) of one line."""
    code, comment = code_and_comment(line)
    stdin = None
    if "|" in code:
        echo, code = code.split("|")
        stdin = shlex.split(echo)[1]
    program, *argv = shlex.split(code)
    assert program == "chromexp"
    stated = None
    if comment.startswith("{"):
        stated = json.JSONDecoder().raw_decode(comment)[0]
    elif comment and "--pretty" in argv:
        stated = comment
    return argv, stdin, stated


COMMANDS = [line for line in fenced_block("Command line", "sh") if line.strip()]


def test_the_command_block_states_these_outputs():
    stated = [command(line)[2] for line in COMMANDS]
    assert [s for s in stated if s is not None] == [
        "M(2,1) + M(3)", "6*e(3)", {"p": 3, "value": 6}, {"p": -1, "value": -6}]


@pytest.mark.parametrize("line", COMMANDS)
def test_every_command_line_example_runs(line, monkeypatch, capsys):
    argv, stdin, stated = command(line)
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert main(argv) == 0
    out = capsys.readouterr().out
    if isinstance(stated, dict):
        assert json.loads(out) == stated
    elif stated is not None:
        assert out.strip() == stated


def test_library_snippet_runs_and_gives_the_stated_reprs():
    namespace, checked = {}, []
    for line in fenced_block("Library in one minute", "python"):
        code, comment = code_and_comment(line)
        if comment.startswith("'"):
            assert repr(eval(code, namespace)) == comment
            checked.append(comment)
        else:
            exec(code, namespace)
    assert checked == ["'(t^2)*M(1,1,1) + (t)*M(1,2)'"]
