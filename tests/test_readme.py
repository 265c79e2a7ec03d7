"""The README's command-line examples: each `$ tauberlab ...` line that the
README follows with an output line runs through cli.main exactly as
shown, and must print exactly that line."""

import shlex
from pathlib import Path

import pytest

from tauberlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    lines = [line.strip() for line in README.read_text().splitlines()]
    return [
        (cmd[len("$ tauberlab ") :], out)
        for cmd, out in zip(lines, lines[1:])
        if cmd.startswith("$ tauberlab ") and out and not out.startswith("$")
    ]


EXAMPLES = _examples()


def test_readme_shows_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[cmd for cmd, _ in EXAMPLES])
def test_readme_example_prints_what_the_readme_shows(argv, shown, capsys):
    code = main(shlex.split(argv))
    assert code == 0
    assert capsys.readouterr().out == shown + "\n"
