"""The docstring examples of every ``lcs_enum`` module run and pass, and
so do the README's examples, of the library and of the CLI."""

import doctest
import importlib
import pkgutil
import shlex
from pathlib import Path

import pytest

import lcs_enum
from lcs_enum import cli

MODULES = sorted(info.name for info in pkgutil.iter_modules(
    lcs_enum.__path__, "lcs_enum."))

README = Path(__file__).resolve().parents[1] / "README.md"


# Modules whose docstrings hold examples; a silent skip would hide them.
WITH_EXAMPLES = {"lcs_enum", "lcs_enum.enumerator"}


def test_modules_are_found():
    assert {"lcs_enum.branching", "lcs_enum.enumerator"} <= set(MODULES)


@pytest.mark.parametrize("name", ["lcs_enum"] + MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, name
    assert result.attempted or name not in WITH_EXAMPLES, name


def _readme_lines():
    """The README's lines, each code fence blanked: a closing fence would
    otherwise read as the end of an example's expected output."""
    return ["" if line.startswith("```") else line
            for line in README.read_text(encoding="utf-8").splitlines()]


def test_readme_examples():
    test = doctest.DocTestParser().get_doctest(
        "\n".join(_readme_lines()), {}, README.name, str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.failed == 0 and result.attempted


def _cli_examples():
    """(argv, expected stdout) of each ``$ lcs-enum`` line in the README,
    its output running to the next blank line."""
    lines = _readme_lines() + [""]
    examples = []
    for k, line in enumerate(lines):
        if line.startswith("$ lcs-enum "):
            end = lines.index("", k)
            examples.append((shlex.split(line)[2:],
                             "".join(out + "\n" for out in lines[k + 1:end])))
    return examples


def test_readme_cli_examples(capsys):
    examples = _cli_examples()
    assert len(examples) == 3
    for argv, want in examples:
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out == want, argv
