"""The command-line examples in README.md print what the README shows."""

import pathlib
import shlex

import pytest

from freecurves.cli import run

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PROMPT = "$ freecurves "


def _examples():
    """(command, shown output lines) for each prompt line in the README; the
    output runs to the next blank line or the end of the code block."""
    examples, shown = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith(PROMPT):
            shown = []
            examples.append((line[len(PROMPT) :], shown))
        elif shown is not None and line and not line.startswith("```"):
            shown.append(line)
        else:
            shown = None
    return examples


EXAMPLES = _examples()


def test_every_command_has_an_example():
    commands = {shlex.split(command)[0] for command, _ in EXAMPLES}
    assert commands == {
        "sp", "degbd", "smooth", "glue", "balance", "esp", "count", "check"
    }


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example_output(capsys, command, shown):
    argv, _, pipe = command.partition(" | ")
    code = run(shlex.split(argv))
    out = capsys.readouterr().out.splitlines()
    if pipe:
        # the only filter the examples use is tail -N
        out = out[-int(pipe.removeprefix("tail -")) :]
    assert code == 0
    assert out == shown
