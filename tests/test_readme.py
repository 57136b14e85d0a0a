"""Every README example that shows output runs as written, in 7-bit ASCII."""

from __future__ import annotations

import doctest
import re
import shlex
from pathlib import Path

import pytest

from qmmp132 import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
FENCES = re.findall(r"^```(\w*)\n(.*?)^```", README, re.S | re.M)


def shell_examples():
    """(argv, expected stdout) for each `$ qmmp132 ...` line followed by output."""
    out = []
    for lang, body in FENCES:
        if lang != "sh":
            continue
        command, shown = None, []
        for line in body.splitlines() + ["$"]:
            if line.startswith("$"):
                if command is not None and shown:
                    out.append((command, "".join(shown)))
                command, shown = None, []
                if line.startswith("$ qmmp132 "):
                    command = shlex.split(line[2:], comments=True)[1:]
            elif command is not None:
                shown.append(line + "\n")
    return out


EXAMPLES = shell_examples()


def test_readme_has_command_examples():
    assert {argv[0] for argv, _ in EXAMPLES} == {"poly", "series", "stat", "seq"}


@pytest.mark.parametrize(
    "argv, shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES]
)
def test_readme_command_example(capsys, argv, shown):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert (code, out) == (0, shown)
    assert out.isascii()


def test_readme_quick_start():
    (body,) = [body for lang, body in FENCES if lang == "python"]
    test = doctest.DocTestParser().get_doctest(body, {}, "README", "README.md", 0)
    assert len(test.examples) >= 3
    assert all(ex.want.isascii() for ex in test.examples)
    assert doctest.DocTestRunner().run(test).failed == 0
