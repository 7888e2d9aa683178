"""The examples in README.md print and return what the README shows."""

import ast
import io
import pathlib
import shlex
import tokenize

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


def _library_block() -> str:
    """The ```python block under "## Library"."""
    text = README.read_text(encoding="utf-8")
    section = text.partition("\n## Library\n")[2]
    return section.partition("```python\n")[2].partition("```")[0]


def test_library_example():
    # an expression whose comment is a Python literal evaluates to it; the
    # pbundle line for F_1 raises; every other statement runs as written
    source = _library_block()
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace, literals, refusals = {}, 0, 0
    for stmt in ast.parse(source).body:
        segment = ast.get_source_segment(source, stmt)
        code = compile(ast.Module([stmt], []), "README.md", "exec")
        if segment == "pbundle(1, 1, [1, 0])":
            with pytest.raises(ValueError, match="second chamber"):
                exec(code, namespace)
            refusals += 1
            continue
        try:
            shown = ast.literal_eval(comments.get(stmt.end_lineno, ""))
        except (ValueError, SyntaxError):
            exec(code, namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert value == shown, segment
        literals += 1
    assert (literals, refusals) == (4, 1)
